"""The names that perfbench/tracer.py wraps must exist, so that a rename fails
here rather than in every traced benchmark run."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
