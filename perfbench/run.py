"""rqrec benchmark: one workload, timed end to end or traced per layer.

Usage (from anywhere; paths resolve against this checkout):

    python3 perfbench/run.py --workload {fixture,catalog,fusion} --seed N \
        --seconds S --trace {0,1} [--size {bench,tiny}]

Each repeat runs in a fresh child process (perfbench/child.py) with a fresh
out_dir under .perfbench_work/, and with BLAS/OpenMP pinned to one thread. The
workload is a closed loop with one client: one batch job at a time. Repeats of
the same seed continue until the next one would end after --seconds (at least
one, and with --trace 1 at least one untraced and one traced), then:

  --trace 0  prints the end-to-end metrics (medians over repeats); run_ref is
             the run's length in reference-kernel times (see child.py);
  --trace 1  alternates traced and untraced repeats and prints the per-layer
             metrics of the traced ones, plus trace.overhead_ratio.

Every repeat is checked: identical sha256 for every out_dir file across
repeats, k distinct fused items from the code tables for every test user, the
fusion oracle on a seeded sample of users, metrics.csv recomputed from
fused.jsonl, and NDCG@K <= Hit@K. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when any
check failed. `--size tiny` shrinks every workload for the benchmark's own
self-test (perfbench/selftest.py).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
from tracer import COUNT_METRICS, summarize

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
SYNTHETIC_CFG = "configs/synthetic.cfg"
BLAS_THREADS = "1"
ORACLE_SAMPLE = 200     # users per run checked against the fusion oracle
HARD_LIMIT_S = 170.0    # a child still running this long after start is killed

# The full fixture takes about 150 s, far more than one run of the benchmark
# may (see BENCHMARK.json), so sizes are scaled until one repeat takes 7-12 s on
# 2 cores at the first benchmarked commit: a median over 3-5 repeats in 40 s.
# fixture keeps configs/synthetic.cfg's 4:1 users:items, 10 templates and beam
# 20 at 1/15.6 of its size. catalog has enough items for the index layers to
# dominate and enough users for Hit@10 to vary little between seeds.
WORKLOADS = {
    "fixture": {
        "kind": "pipeline",
        "bench": ["synthetic.n_users=128", "synthetic.n_items=64"],
        "tiny": ["synthetic.n_users=48", "synthetic.n_items=40", "collab.epochs=3",
                 "rqvae.epochs=3", "rqvae.kmeans_iters=5", "pipeline.templates=3"],
    },
    "catalog": {
        "kind": "pipeline",
        "bench": ["synthetic.n_users=360", "synthetic.n_items=240",
                  "synthetic.n_clusters=16", "synthetic.p_follow=0.5",
                  "pipeline.templates=2", "retrieval.k=10"],
        "tiny": ["synthetic.n_users=60", "synthetic.n_items=60", "synthetic.n_clusters=16",
                 "synthetic.p_follow=0.5", "pipeline.templates=2", "retrieval.k=10",
                 "collab.epochs=3", "rqvae.epochs=3", "rqvae.kmeans_iters=5"],
    },
    "fusion": {
        "kind": "fusion",
        "bench": {"n_users": 600, "n_items": 2000},
        "tiny": {"n_users": 60, "n_items": 300},
    },
}

END_TO_END = ("run_ref", "setup_s", "peak_rss_mb", "artifact_mb",
              "hit_at_10", "ndcg_at_10", "valid_ratio")


def unit_of(name: str) -> str:
    if name == "run_ref":
        return "ref"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "_ms_" in name:
        return "ms"
    if name.endswith(("_ratio", "_at_10")):
        return "ratio"
    return "count"


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a git tree."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def make_spec(workload: str, size: str, seed: int, trace_path: str | None) -> dict:
    wl = WORKLOADS[workload]
    overrides = ["paths.out_dir=out", f"pipeline.seed={seed}"]
    if wl["kind"] == "pipeline":
        overrides += ["paths.interactions=out/interactions.tsv",
                      "paths.semantic_emb=out/semantic.emb"] + wl[size]
        return {"kind": "pipeline", "config": str(ROOT / SYNTHETIC_CFG),
                "overrides": overrides, "trace_path": trace_path}
    return {"kind": "fusion", "config": None, "overrides": overrides,
            "fusion": wl[size], "trace_path": trace_path}


def run_child(rdir: Path, spec: dict, env: dict, deadline: float) -> tuple[float, dict]:
    """Start the child, time it to READY, wait for its report. Returns (setup_s, report)."""
    (rdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with (rdir / "stderr.txt").open("w", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "spec.json"],
                                cwd=rdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        killer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    lines = (first + rest).splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    if first.strip() != "READY" or proc.returncode != 0 or "run_s" not in report:
        stderr_tail = (rdir / "stderr.txt").read_text(encoding="utf-8")[-2000:]
        report = {"error": report.get("error") or f"exit {proc.returncode}: {stderr_tail}"}
    return setup_s, report


def one_repeat(index: int, traced: bool, args, env: dict, work: Path,
               reference: dict | None, hard_deadline: float) -> dict:
    rdir = work / f"r{index}"
    rdir.mkdir()
    trace_path = str(rdir / "trace.json") if traced else None
    spec = make_spec(args.workload, args.size, args.seed, trace_path)
    setup_s, report = run_child(rdir, spec, env, hard_deadline)
    rep = {"repeat": index, "traced": traced, "setup_s": setup_s, "problems": []}
    out = rdir / "out"
    if "error" in report:
        rep["problems"].append(report["error"].strip().splitlines()[-1])
        shutil.rmtree(rdir)
        return rep
    rep.update({key: report[key] for key in ("run_s", "run_ref", "refs", "cpu_s",
                                             "peak_rss_mb", "stage_s", "python", "numpy")})
    rep["digests"] = checks.digests(out)
    written = checks.sizes(out)
    rep["artifact_mb"] = sum(size for name, size in written.items()
                             if name not in set(report["setup_files"])) / 1e6
    full = checks.parse_metrics((out / "metrics.csv").read_text(encoding="utf-8"))
    rep["hit_at_10"], rep["ndcg_at_10"] = full["hit,10"], full["ndcg,10"]
    if reference is None:
        mode_metrics = {m: checks.parse_metrics(t) for m, t in report["mode_metrics"].items()}
        users, failed, problems = checks.check_outputs(
            out, k=report["k"], templates=report["templates"], alpha=report["alpha"],
            tau=report["tau"], seed=args.seed, sample=ORACLE_SAMPLE,
            mode_metrics=mode_metrics or None)
        rep["users"], rep["failed_users"] = users, users if problems else len(failed)
        rep["problems"] += problems
        rep["counters"] = checks.artifact_counters(out)
        rep["setup_info"] = report["setup_info"]
    else:
        rep["users"], rep["failed_users"] = reference["users"], reference["failed_users"]
        rep["counters"] = reference["counters"]
        changed = sorted(set(rep["digests"]) ^ set(reference["digests"])
                         | {n for n in rep["digests"]
                            if reference["digests"].get(n) != rep["digests"][n]})
        if changed:
            rep["problems"].append(f"not byte-identical to repeat "
                                   f"{reference['repeat']}: {changed[:5]}")
    if traced:
        trace = json.loads(Path(trace_path).read_text(encoding="utf-8"))
        rep["layer"] = summarize(trace)
        shutil.copyfile(trace_path, work / "trace.json")
    shutil.rmtree(rdir)
    return rep


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/rqrec/pipeline.py", SYNTHETIC_CFG) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from a full rqrec checkout", file=sys.stderr)
        return 2

    start = perf_counter()
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    work = WORK_DIR / f"{args.workload}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()

    reps: list[dict] = []
    reference = None
    durations: dict[bool, list[float]] = {False: [], True: []}
    min_repeats = 2 if args.trace else 1
    while True:
        index = len(reps)
        traced = bool(args.trace) and index % 2 == 0
        if index >= min_repeats:
            past = durations[traced] or durations[not traced]
            if perf_counter() + median(past) > deadline:
                break
        if perf_counter() > hard_deadline - 5:
            break
        t = perf_counter()
        rep = one_repeat(index, traced, args, env, work, reference, hard_deadline)
        durations[traced].append(perf_counter() - t)
        if reference is None and "run_s" in rep:
            reference = rep
        reps.append(rep)
        print(json.dumps({k: v for k, v in rep.items() if k not in ("digests", "layer")}),
              flush=True)

    nominal = reference["users"] if reference else 1
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        users = rep.get("users", nominal)
        attempted += users
        failed += users if rep["problems"] else rep["failed_users"]
        problems += rep["problems"]
    plain = [r for r in reps if "run_s" in r and not r["traced"]]
    traced_reps = [r for r in reps if "run_s" in r and r["traced"]]
    if args.trace == 0:
        metrics = {name: median([r[name] for r in plain])
                   for name in END_TO_END if name != "valid_ratio"}
        metrics["setup_s"] = median([r["setup_s"] for r in reps])
        metrics["valid_ratio"] = 1.0 - failed / attempted
    else:
        layer_names = list(traced_reps[0]["layer"]) if traced_reps else []
        metrics = {}
        for name in layer_names:
            values = [r["layer"][name] for r in traced_reps]
            if name in COUNT_METRICS:
                if len(set(values)) > 1:
                    problems.append(f"{name} differs between traced repeats: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = median(values)
        metrics["pipeline.run_s"] = median([r["run_s"] for r in plain])
        metrics["pipeline.cpu_s"] = median([r["cpu_s"] for r in plain])
        metrics.update(reference["counters"] if reference else {})
        untraced = median([r["run_ref"] for r in plain])
        metrics["trace.overhead_ratio"] = (
            median([r["run_ref"] for r in traced_reps]) / untraced if untraced else 0.0)
    if problems and failed == 0:
        failed = attempted
    env_record = {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(), "numpy": reference["numpy"] if reference else None,
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "repeats": len(reps), "traced_repeats": len(traced_reps),
        "fusion_inputs": reference.get("setup_info") if reference else None,
    }
    print(json.dumps({"env": env_record}))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
