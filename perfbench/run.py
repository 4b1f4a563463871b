"""Benchmark of pseudoplap: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload {ladder,sweep,lemmas} --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh worker process
that imports pseudoplap from ./src, with PSEUDOPLAP_THREADS=1 and numpy's
thread pools at 1.  With --trace 0 the result holds the end-to-end metrics
(setup_s is the median over the worker and SETUP_SAMPLES set-up-only
processes); with --trace 1 it holds the per-layer metrics of a traced run.
The last line of standard output is the result; see perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("ladder", "sweep", "lemmas")
SETUP_SAMPLES = 2
DEADLINE_S = 170.0
PINNED = {"PSEUDOPLAP_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _worker(args, env, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "pseudoplap" / "__init__.py").is_file():
        print(f"no pseudoplap sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    deadline = start + DEADLINE_S
    try:
        # half the set-up samples before the measured worker and half after it,
        # so that they do not all fall into one phase of the machine's load
        setup = lambda: _worker(args, env, deadline, setup_only=True)["setup_s"]  # noqa: E731
        before = [] if args.trace else [setup() for _ in range(SETUP_SAMPLES // 2)]
        res = _worker(args, env, deadline)
        after = [] if args.trace else [setup() for _ in range(SETUP_SAMPLES - len(before))]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for problem in res["problems"]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    if args.trace:
        metrics = res["per_layer"]
    else:
        values = dict(res, setup_s=statistics.median(before + [res["setup_s"]] + after))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
