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


def test_traced_tiny_fusion_counts(tmp_path, monkeypatch):
    """The tiny `fusion` sequence traced the way the benchmark traces it: the list
    parse, the template sweep and the metrics each still feed their per-layer
    metric, so a reshaped function cannot drop out of the trace unnoticed."""
    import json
    import subprocess
    import sys
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its neighbours
    run = load_perfbench("run")
    trace = tmp_path / "trace.json"
    (tmp_path / "spec.json").write_text(json.dumps(run.make_spec("fusion", "tiny", 1, str(trace))))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "spec.json"],
                          cwd=tmp_path, env=run.child_env(), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = run.summarize(json.loads(trace.read_text()))
    # the two ranked files once each (cached) and fused.jsonl once per evaluate
    assert metrics["retrieval.read_calls"] == 7
    assert metrics["pipeline.fuse_all_users_calls"] == 9  # sweep points 2..10
    assert metrics["metrics.hit_ndcg_s"] > 0
