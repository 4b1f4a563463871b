"""One workload in one fresh process; prints one JSON line for run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Set-up runs from the first line of this file (imports, config parsing, the
inputs and reference data of the checks) to the first timed call.  Then whole
rounds run until S seconds have passed; each round's wall and CPU time spans
its first CLI call to the end of its last check.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pseudoplap  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = Path("perfbench") / "out"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    if src not in Path(pseudoplap.__file__).resolve().parents:
        print(f"pseudoplap imported from {pseudoplap.__file__}, not from {src}", file=sys.stderr)
        return 2
    root = OUT / args.workload
    ops = workloads.setup(args.workload, args.seed, root)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    walls, cpus = [], []
    total = workloads.RoundResult()
    start = time.perf_counter()
    while True:
        c0, w0 = _cpu_s(), time.perf_counter()
        res = workloads.run_round(ops, args.seed, tracer)
        walls.append(time.perf_counter() - w0)
        cpus.append(_cpu_s() - c0)
        total.attempted += res.attempted
        total.failed += res.failed
        total.problems += res.problems
        if time.perf_counter() - start >= args.seconds:
            break
    rounds = len(walls)
    out = {"rounds": rounds, "attempted": total.attempted, "failed": total.failed,
           "problems": sorted(set(total.problems))}
    wall = statistics.median(walls)

    if tracer is None:
        out.update(setup_s=setup_s, wall_s=wall, cpu_s=statistics.median(cpus),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        (root / "untraced.json").write_text(json.dumps({"seed": args.seed, "wall_s": wall}))
    else:
        tracer.uninstall()
        layers = tracing.layer_report(tracer, rounds)
        calls = len(tracer.spans) / rounds
        overhead = calls * tracing.wrapper_cost_s()
        metrics = tracing.layer_metrics(tracer, rounds, layers)
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.overhead_share"] = (overhead / wall, "ratio")
        metrics.update(tracing.kernel_metrics(args.seed))
        out["problems"] += workloads.jacobi_agreement(tracer.jacobi_seen)
        out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                  "round_wall_s": walls, "spans_per_round": calls,
                  "overhead_estimate_s": overhead, "layers": layers,
                  "metrics": out["per_layer"]}
        untraced = root / "untraced.json"
        if untraced.exists():
            ref = json.loads(untraced.read_text())
            report["untraced_wall_s"] = ref["wall_s"]
            report["untraced_seed"] = ref["seed"]
            report["measured_overhead_share"] = wall / ref["wall_s"] - 1.0
        (root / "trace.json").write_text(json.dumps(report, indent=1))
        with open(root / "spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s[:tracing.INFO]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
