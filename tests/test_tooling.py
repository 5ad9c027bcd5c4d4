"""What perfbench/ uses of the package must exist and work: the names that
tracer.py wraps, and the calls fusion_inputs.py makes. A rename or a break fails
here rather than in every benchmark run."""
import importlib.util
from pathlib import Path

from rqrec.retrieval import read_ranked_lists

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_fusion_inputs_generate_tiny(tmp_path):
    # the `fusion` workload's tiny size and the pipeline defaults it runs with
    users, templates, k = 60, 10, 20
    stats = load_perfbench("fusion_inputs").generate(tmp_path, seed=5, n_users=users,
                                                     n_items=300, templates=templates, k=k)
    assert stats["median_distinct_items"] > k
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ranked_ceid.jsonl", "ranked_seid.jsonl", "test.tsv", "train.tsv", "valid.tsv"]
    for index_type in ("ceid", "seid"):
        records = read_ranked_lists(tmp_path / f"ranked_{index_type}.jsonl")
        assert len(records) == users * templates
        assert len({(r.user, r.template) for r in records}) == users * templates
        assert {r.template for r in records} == set(range(1, templates + 1))
        assert all(r.index_type == index_type and len(r.items) == len(set(r.items)) == k
                   for r in records)


def test_tracer_wrapped_names_exist():
    tracer = load_tracer()
    missing = [f"rqrec.{mod}.{attr}" for mod, attr, _, _ in tracer._FUNCTIONS
               if not callable(getattr(importlib.import_module(f"rqrec.{mod}"), attr, None))]
    methods = [(mod, cls, meth) for mod, cls, meth, _ in tracer._METHODS]
    methods.append(("scorer", "MarkovScorer", "next_token_logprobs"))
    for mod, cls, meth in methods:
        owner = getattr(importlib.import_module(f"rqrec.{mod}"), cls, None)
        if owner is None or meth not in owner.__dict__:
            missing.append(f"rqrec.{mod}.{cls}.{meth}")
    assert not missing, f"names wrapped by perfbench/tracer.py are gone: {missing}"
    assert tracer._FUNCTIONS and tracer._METHODS
