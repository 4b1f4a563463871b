"""Record the benchmark of one checkout as BENCH_<label>.json, or compare two revisions.

    python3 tools/bench_record.py --label LABEL
    python3 tools/bench_record.py --pair REV_A REV_B [--trace 0|1]

Run from the root of a checkout.  With --label, for each workload that
BENCHMARK.json declares, it runs the unchanged `perfbench/run.py` once per
seed of SEEDS with tracing off and once with tracing on, for the
`run_seconds` that BENCHMARK.json fixes, one process at a time.  It then
times one run of the Tier-1 suite and writes BENCH_<label>.json in the
current directory: per workload and metric the median and quartiles over
the seeds, the counts of correct runs and of failed operations, and the
Tier-1 wall time, the CPU count, the numpy and Python versions, the git
commit and the command that reproduces the file.

With --pair, it checks REV_A (the parent) and REV_B (the change) out into
two git worktrees under a temporary directory, which it removes afterwards,
and runs each workload in PAIRS pairs: one run of each side's `perfbench/run.py`
per pair, seed PAIR_SEED + i for pair i, with the side that goes first
switching from pair to pair, so that both sides see the machine's slow
phases alike.  It writes BENCH_<a>_vs_<b>.json (a and b the short commits;
`_traced` appended with --trace 1): per workload and metric, each side's
median and quartiles, the median and quartiles of the per-pair ratio B/A,
and the number of pairs that B won, by the metric's `better` direction in
BENCHMARK.json.  Each end-to-end metric also gets a no-regression verdict
against its `bound` there, a share of the parent's median: `within_bound`
when B's median is no worse than A's by more than the bound, and
`unresolved` when A's quartile spread is wider than the bound and not
every run of B beats every run of A.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SEEDS = (1001, 1002, 1003, 1004, 1005)
PAIR_SEED = 2001
PAIRS = 10
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
        metrics[name] = {"unit": first["unit"], **_quartiles(values)}
    return {"runs": len(results),
            "correct_runs": sum(bool(res["correct"]) for res in results),
            "attempted": sum(res["attempted"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "metrics": metrics}


def _quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def paired_summary(parent: list, change: list, better: dict, bounds: dict = None) -> dict:
    """Per metric of the result lines of `perfbench/run.py` run in pairs
    (parent[i] and change[i] one pair), each side's median and quartiles,
    those of the per-pair ratio change/parent, and the pairs the change won:
    those where its value is strictly lower, or higher for a metric whose
    `better` is "higher"; plus each side's counts of runs, correct runs and
    attempted and failed operations.  The ratio leaves out the pairs whose
    parent value is 0 (a per-layer metric of a layer the workload does not
    run), and is None when no pair is left.

    A metric with a bound in `bounds` (a share of the parent's median) also
    gets the no-regression verdict: `within_bound` when the change's median
    is no worse than the parent's by more than the bound, and `unresolved`
    when the parent's quartile spread is wider than the bound and not every
    change run beats every parent run."""
    if not parent or len(parent) != len(change):
        raise ValueError("need as many change runs as parent runs, at least one")
    metrics = {}
    for name, first in parent[0]["metrics"].items():
        a = np.array([res["metrics"][name]["value"] for res in parent], dtype=float)
        b = np.array([res["metrics"][name]["value"] for res in change], dtype=float)
        ratio = b[a != 0] / a[a != 0]
        higher = better.get(name, "lower") == "higher"
        won = b > a if higher else b < a
        metrics[name] = {"unit": first["unit"], "parent": _quartiles(a), "change": _quartiles(b),
                         "ratio": _quartiles(ratio) if ratio.size else None,
                         "change_won": int(won.sum()), "pairs": len(a)}
        if bounds and name in bounds:
            bound, pa, ch = bounds[name], metrics[name]["parent"], metrics[name]["change"]
            allowed = bound * abs(pa["median"])
            worse = pa["median"] - ch["median"] if higher else ch["median"] - pa["median"]
            beats_all = b.min() > a.max() if higher else b.max() < a.min()
            metrics[name].update(bound=bound, within_bound=bool(worse <= allowed),
                                 unresolved=bool(pa["q3"] - pa["q1"] > allowed and not beats_all))
    counts = {side: {"runs": len(runs),
                     "correct_runs": sum(bool(res["correct"]) for res in runs),
                     "attempted": sum(res["attempted"] for res in runs),
                     "failed": sum(res["failed"] for res in runs)}
              for side, runs in (("parent", parent), ("change", change))}
    return {**counts, "metrics": metrics}


def _bench(workload: str, seed: int, seconds: float, trace: int, cwd=None) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=cwd)
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


def _environment() -> dict:
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version()}


def _pair(spec: dict, rev_a: str, rev_b: str, trace: int) -> Path:
    a, b = (_git("rev-parse", "--short", rev) for rev in (rev_a, rev_b))
    if not (a and b):
        raise SystemExit(f"unknown revision: {rev_a if not a else rev_b}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pair_"))
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so that `finally` removes the trees
    try:
        for tree, rev in zip(trees.values(), (a, b)):
            subprocess.run(["git", "worktree", "add", "--detach", str(tree), rev], check=True,
                           stdout=subprocess.DEVNULL)
        workloads = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {side: [] for side in trees}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(_bench(workload, PAIR_SEED + i, spec["run_seconds"], trace,
                                             cwd=trees[side]))
                print(f"{workload} pair {i + 1} of {PAIRS} done", file=sys.stderr)
            workloads[workload] = paired_summary(runs["parent"], runs["change"], better, bounds)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"])
    suffix = "_traced" if trace else ""
    record = {
        "parent": _git("rev-parse", a), "change": _git("rev-parse", b),
        "command": f"python3 tools/bench_record.py --pair {a} {b} --trace {trace}",
        **_environment(),
        "pairs": PAIRS, "seeds": [PAIR_SEED + i for i in range(PAIRS)],
        "run_seconds": spec["run_seconds"], "trace": trace,
        "workloads": workloads,
    }
    out = Path(f"BENCH_{a}_vs_{b}{suffix}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label")
    mode.add_argument("--pair", nargs=2, metavar=("REV_A", "REV_B"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.pair:
        print(_pair(spec, *args.pair, args.trace))
        return 0
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
        **_environment(),
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
