"""One repeat of one benchmark workload, run in a fresh process by run.py.

Usage: python3 perfbench/child.py SPEC.json   (cwd = the repeat's own directory)

Set-up (imports, configuration, the `fusion` inputs, installing the tracer) ends
with a `READY` line on stdout; the parent times start-up up to that line. The
timed part calls `rqrec.pipeline.run_stage` only, then one JSON line reports
the run. A traced run writes its trace to the spec's `trace_path`, never into
the out_dir.

A shared host can change speed by up to 2x, over seconds and over minutes
(seen on a 2-vCPU VM), and that slows every stage alike. So a fixed reference
kernel that uses no rqrec code is timed before the first `run_stage` call and
after each one, and `run_ref` divides each call's wall time by the mean of the
kernel times on either side of it. That is the run's length in kernel times,
which a program change moves and the host's speed mostly does not.
"""
from __future__ import annotations

import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

FUSION_MODES = ("ceid-only", "seid-only", "conf-only", "cons-only", "full")
REFERENCE_SAMPLES = 3   # kernel runs per reference point; a point takes about 20 ms


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_s(np) -> float:
    """Wall seconds of a fixed mix of dict-heavy Python and small numpy work.

    The mix resembles the pipeline's: n-gram style dict counting, dense
    matmul, elementwise maths and sorting on arrays that fit in cache.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 48))
    w = rng.standard_normal((48, 64))
    t = perf_counter()
    for _ in range(REFERENCE_SAMPLES):
        counts: dict[tuple[int, int, int], int] = {}
        for i in range(12000):
            key = (i % 97, i % 89, i & 7)
            counts[key] = counts.get(key, 0) + 1
        for _ in range(10):
            h = np.tanh(a @ w)
            d = ((a[:32, None, :] - a[None, :32, :]) ** 2).sum(-1)
            np.argsort(d + h[:32, :32], axis=1)
    return perf_counter() - t


def run(spec: dict) -> dict:
    import numpy
    from rqrec.config import load_config
    from rqrec.pipeline import STAGES, run_stage

    cfg = load_config(spec["config"], overrides=spec["overrides"])
    setup_info: dict = {}
    if spec["kind"] == "fusion":
        import fusion_inputs
        cfg.out_dir.mkdir(parents=True)
        setup_info = fusion_inputs.generate(cfg.out_dir, cfg.seed, templates=cfg.templates,
                                            k=cfg.k_retrieve, **spec["fusion"])
    setup_files = sorted(str(p.relative_to(cfg.out_dir)) for p in cfg.out_dir.rglob("*")
                         if p.is_file()) if cfg.out_dir.exists() else []
    tracer = None
    if spec["trace_path"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)

    stage_s: dict[str, float] = {}
    mode_metrics: dict[str, str] = {}
    run_ref = cpu_s = 0.0
    refs = [reference_s(numpy)]

    def timed(name: str, stage: str, **kwargs) -> None:
        nonlocal run_ref, cpu_s
        cpu0 = _cpu_s()
        t = perf_counter()
        run_stage(cfg, stage, **kwargs)
        seconds = perf_counter() - t
        cpu_s += _cpu_s() - cpu0
        refs.append(reference_s(numpy))
        stage_s[name] = stage_s.get(name, 0.0) + seconds
        run_ref += seconds / ((refs[-2] + refs[-1]) / 2)

    if spec["kind"] == "pipeline":
        for stage in STAGES:
            timed(stage, stage, synthetic=True)
    else:
        for mode in FUSION_MODES:
            cfg.breakdown = mode == "full"
            timed(f"rerank+evaluate:{mode}", "rerank", mode=mode)
            timed(f"rerank+evaluate:{mode}", "evaluate")
            mode_metrics[mode] = (cfg.out_dir / "metrics.csv").read_text(encoding="utf-8")
        timed("analyze", "analyze")
    run_s = sum(stage_s.values())
    if tracer is not None:
        Path(spec["trace_path"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return {
        "run_s": run_s,
        "run_ref": run_ref,
        "refs": refs,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "stage_s": stage_s,
        "mode_metrics": mode_metrics,
        "setup_files": setup_files,
        "setup_info": setup_info,
        "k": cfg.k_retrieve,
        "templates": cfg.templates,
        "alpha": cfg.alpha,
        "tau": cfg.tau,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    try:
        result = run(spec)
    except Exception:  # reported to the parent, which fails every user of this run
        print(json.dumps({"error": traceback.format_exc()}), flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
