"""Record the benchmark of one checkout as BENCH_<label>.json.

    python3 tools/bench_record.py --label LABEL

Run from the root of a checkout.  For each workload that BENCHMARK.json
declares, it runs the unchanged `perfbench/run.py` once per seed of SEEDS
with tracing off and once with tracing on, for the `run_seconds` that
BENCHMARK.json fixes, one process at a time.  It then times one run of the
Tier-1 suite and writes BENCH_<label>.json in the current directory: per
workload and metric the median and quartiles over the seeds, the counts of
correct runs and of failed operations, and the Tier-1 wall time, the CPU
count, the numpy and Python versions, the git commit and the command that
reproduces the file.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SEEDS = (1001, 1002, 1003, 1004, 1005)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def summarize(results: list) -> dict:
    """Median and quartiles of each metric over the result lines of
    `perfbench/run.py` (one parsed JSON object per run), with the counts
    of runs, correct runs and attempted and failed operations."""
    if not results:
        raise ValueError("no runs to summarize")
    names = results[0]["metrics"]
    metrics = {}
    for name, first in names.items():
        values = [res["metrics"][name]["value"] for res in results]
        q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0]).tolist()
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3}
    return {"runs": len(results),
            "correct_runs": sum(bool(res["correct"]) for res in results),
            "attempted": sum(res["attempted"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "metrics": metrics}


def _bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        ["src"] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    start = time.monotonic()
    proc = subprocess.run(TIER1, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "result": lines[-1] if lines else "",
            "exit_code": proc.returncode}


def _git(*args: str) -> str:
    proc = subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {trace: [] for trace in (0, 1)}
        for seed in SEEDS:
            for trace in (0, 1):
                runs[trace].append(_bench(workload, seed, seconds, trace))
                print(f"{workload} seed {seed} trace {trace} done", file=sys.stderr)
        workloads[workload] = {"end_to_end": summarize(runs[0]), "per_layer": summarize(runs[1])}
    record = {
        "label": args.label,
        "command": f"python3 tools/bench_record.py --label {args.label}",
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "tier1": _tier1(),
        "workloads": workloads,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
