"""Self-test of the benchmark at the tiny size of every workload (about a minute).

Usage: python3 perfbench/selftest.py

Checks that each workload, untraced and traced, exits 0 and prints a last line
with exactly the metrics BENCHMARK.json names, that the fusion oracle rejects a
corrupted fused list, and that the benchmark refuses to run, without printing
a result, from a directory holding only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
from run import ROOT, WORK_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "11", "--seconds", "1", "--trace", str(trace),
                           "--size", "tiny"], capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = last_json(proc.stdout)
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(declared))}")
    return errors


def check_oracle_rejects_corruption() -> list[str]:
    lists = [[["a", "b", "c"], ["b", "a", "d"]], [["c", "a", "e"]]]
    scores = checks.oracle_scores(lists, alpha=0.8, tau=10.0)
    ranked = sorted(scores, key=lambda i: (-scores[i][0], -scores[i][1], i))
    good = [(i, scores[i][0]) for i in ranked[:3]]
    swapped = [good[1], good[0], good[2]]
    wrong_score = [(good[0][0], good[0][1] + 1e-6)] + good[1:]
    errors = []
    if not checks.fused_list_agrees(good, scores, 3):
        errors.append("oracle rejects a correct fused list")
    for name, bad in (("swapped", swapped), ("rescored", wrong_score), ("short", good[:2])):
        if checks.fused_list_agrees(bad, scores, 3):
            errors.append(f"oracle accepts a {name} fused list")
    return errors


def check_refuses_bare_directory() -> list[str]:
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, str(Path(bare) / HERE.name / "run.py"),
                               "--workload", "fusion", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from run.py", file=sys.stderr)
        return 1
    errors = check_oracle_rejects_corruption() + check_refuses_bare_directory()
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            errors += check_result(workload, trace, spec)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
