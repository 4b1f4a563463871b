"""Spans around the public calls into each pseudoplap layer, kept in memory.

The tracer replaces a function in every pseudoplap module that binds it,
because `from .solver import solve_dirichlet` and the like copy the name:
wrapping only the defining module would miss the calls the CLI, `jets` and
`claims` make.  A span records layer, name, start, end, parent span, the
workload case running and whether the call returned.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import time

import numpy as np

# (layer, module, function); hooks below add counts for some of them
TARGETS = (
    ("cli", "pseudoplap.cli", "main"),
    ("config", "pseudoplap.config", "parse_config"),
    ("solver", "pseudoplap.solver", "solve_dirichlet"),
    ("regularity", "pseudoplap.regularity", "lipschitz_seminorm"),
    ("regularity", "pseudoplap.regularity", "holder_seminorm"),
    ("regularity", "pseudoplap.regularity", "estimate_constant"),
    ("eig", "pseudoplap.eig", "jacobi_eigh"),
    ("eig", "pseudoplap.eig", "spectral_norm"),
    ("jets", "pseudoplap.jets", "min_eig_bound_check"),
    ("jets", "pseudoplap.jets", "build_jet_matrices"),
    ("jets", "pseudoplap.jets", "feasible_pair_sample"),
    ("jets", "pseudoplap.jets", "pair_conclusions_check"),
    ("claims", "pseudoplap.claims", "regime_params"),
    ("claims", "pseudoplap.claims", "zt_check"),
    ("claims", "pseudoplap.claims", "claims_scale_sweep"),
    ("claims", "pseudoplap.claims", "evaluate_claims_sweep"),
    ("barrier", "pseudoplap.barrier", "min_barrier_M"),
    ("barrier", "pseudoplap.barrier", "verify_supersolution"),
    ("barrier", "pseudoplap.barrier", "supersolution_tolerance"),
    ("barrier", "pseudoplap.barrier", "linf_bound_check"),
    ("operators", "pseudoplap.operators", "apply_divergence"),
    ("operators", "pseudoplap.operators", "apply_nondivergence"),
    ("io", "pseudoplap.grid", "write_field"),
    ("io", "pseudoplap.reporting", "write_csv"),
    ("io", "pseudoplap.reporting", "svg_line_plot"),
)

LADDER_CASES = ("1d-n257", "1d-n513", "2d-n65-const", "2d-n65-gauss", "3d-n33-const")
SOLVE_CASES = LADDER_CASES + ("sweep",)
KERNEL_GRIDS = (("1d-n257", 1, 257), ("2d-n65", 2, 65), ("3d-n33", 3, 33))
JACOBI_SIZES = (2, 3, 4, 5, 6)
SCAN_NODES = (65, 129)

# span fields
LAYER, NAME, START, END, PARENT, CASE, OK, INFO = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.case = ""
        self.jacobi_seen = []  # (matrix, eigenvalues) of every jacobi_eigh call
        self._stack = []
        self._patched = []

    def wrap(self, layer: str, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.case, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[OK] = True
            if hook is not None:
                span[INFO] = hook(args, out)
            return out

        return traced

    def install(self):
        """Wrap every target in each pseudoplap module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pseudoplap" or key.startswith("pseudoplap.")]
        hooks = {"solve_dirichlet": lambda args, out: out[1].iterations,
                 "jacobi_eigh": self._record_jacobi,
                 "write_field": _file_size, "write_csv": _file_size,
                 "svg_line_plot": _file_size}
        for layer, module, attr in TARGETS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self.wrap(layer, f"{module.rsplit('.', 1)[1]}.{attr}", orig,
                                hooks.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def _record_jacobi(self, args, out):
        self.jacobi_seen.append((np.array(args[0], dtype=float), out[0]))


def _file_size(args, out):
    return os.path.getsize(args[0])


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Per-call cost of a span around a no-op, net of the bare call."""
    noop = lambda: None  # noqa: E731
    traced = Tracer().wrap("calibration", "noop", noop)
    best = []
    for fn in (noop, traced):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - t0) / calls)
        best.append(min(samples))
    return max(best[1] - best[0], 0.0)


def layer_report(tracer: Tracer, rounds: int) -> dict:
    """Per-layer calls, total and self seconds per round."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    layers: dict = {}
    for s, child in zip(spans, covered):
        entry = layers.setdefault(s[LAYER], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += s[END] - s[START] - child
        if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != s[LAYER]:
            entry["total_s"] += s[END] - s[START]  # outermost span of the layer only
    return {k: {"calls": v["calls"] / rounds, "total_s": v["total_s"] / rounds,
                "self_s": v["self_s"] / rounds} for k, v in layers.items()}


def layer_metrics(tracer: Tracer, rounds: int, layers: dict) -> dict:
    """The per-layer metrics of the traced rounds, each per round."""
    spans = tracer.spans
    dur = lambda s: s[END] - s[START]  # noqa: E731
    named = {}
    for s in spans:
        named.setdefault(s[NAME], []).append(s)
    under_cli = lambda s: s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "cli"  # noqa: E731

    m = {}
    for case in SOLVE_CASES:
        solves = [s for s in named.get("solver.solve_dirichlet", []) if s[CASE] == case]
        iters = sum(s[INFO] for s in solves if s[OK])
        secs = sum(map(dur, solves))
        m[f"solver.iterations.{case}"] = (iters / rounds, "count")
        m[f"solver.solve_s.{case}"] = (secs / rounds, "s")
        m[f"solver.us_per_iter.{case}"] = (1e6 * secs / iters if iters else 0.0, "us")

    scans = named.get("regularity.lipschitz_seminorm", []) + \
        named.get("regularity.holder_seminorm", [])
    m["regularity.scan_s"] = (sum(map(dur, scans)) / rounds, "s")
    m["regularity.scan_calls"] = (len(scans) / rounds, "count")

    jac = named.get("eig.jacobi_eigh", [])
    m["eig.jacobi_calls"] = (len(jac) / rounds, "count")
    m["eig.jacobi_s"] = (sum(map(dur, jac)) / rounds, "s")

    min_eig = named.get("jets.min_eig_bound_check", [])
    accepted = sum(s[OK] for s in min_eig)
    m["jets.min_eig_us_per_sample"] = (
        1e6 * sum(map(dur, min_eig)) / accepted if accepted else 0.0, "us")
    # the pair sampler's attempts are the jets calls the CLI makes itself; the
    # claims sweep makes the same calls one level down
    pair = [s for key in ("jets.build_jet_matrices", "jets.feasible_pair_sample",
                          "jets.pair_conclusions_check")
            for s in named.get(key, []) if under_cli(s)]
    attempts = sum(1 for s in pair if s[NAME] == "jets.build_jet_matrices")
    pairs_ok = sum(1 for s in pair if s[NAME] == "jets.pair_conclusions_check" and s[OK])
    m["jets.pair_us_per_sample"] = (
        1e6 * sum(map(dur, pair)) / pairs_ok if pairs_ok else 0.0, "us")
    m["jets.pair_accept_ratio"] = (pairs_ok / attempts if attempts else 0.0, "ratio")

    zt = named.get("claims.zt_check", [])
    m["claims.zt_us_per_sample"] = (1e6 * sum(map(dur, zt)) / len(zt) if zt else 0.0, "us")
    sweeps = named.get("claims.claims_scale_sweep", []) + \
        named.get("claims.evaluate_claims_sweep", [])
    m["claims.sweep_s"] = (sum(map(dur, sweeps)) / rounds, "s")

    m["barrier.supersolution_s"] = (
        sum(map(dur, named.get("barrier.verify_supersolution", []))) / rounds, "s")

    writes = [s for s in spans if s[LAYER] == "io" and under_cli(s)]
    m["io.write_s"] = (sum(map(dur, writes)) / rounds, "s")
    m["io.bytes"] = (sum(s[INFO] or 0 for s in writes) / rounds, "bytes")

    m["cli.self_s"] = (layers.get("cli", {}).get("self_s", 0.0), "s")
    return m


def _per_call_s(fn, batches: int = 7, min_batch_s: float = 0.02) -> float:
    """Median over batches of the seconds per call, batch size doubled to min_batch_s."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def kernel_metrics(seed: int) -> dict:
    """Per-call cost of the public kernels on fixed inputs, untraced."""
    from pseudoplap.eig import jacobi_eigh
    from pseudoplap.grid import GridSpec, ScalarField, nonexterior_mask
    from pseudoplap.manufactured import constant_field, zero_boundary
    from pseudoplap.regularity import lipschitz_seminorm
    from pseudoplap.solver import EnergyProblem, energy, energy_gradient

    def field(grid, fn):
        axis = grid.axis_coords()
        x = np.meshgrid(*([axis] * grid.dimension), indexing="ij")
        return ScalarField(grid, np.where(nonexterior_mask(grid), fn(*x), np.nan))

    m = {}
    for label, dim, nodes in KERNEL_GRIDS:
        grid = GridSpec(dim, nodes, "ball")
        prob = EnergyProblem(grid, 3.0, constant_field(grid, 1.0), zero_boundary)
        u = field(grid, lambda *x: -0.25 * (1.0 - sum(c * c for c in x)))
        m[f"solver.energy_us.{label}"] = (1e6 * _per_call_s(lambda: energy(u, prob)), "us")
        m[f"solver.gradient_us.{label}"] = (
            1e6 * _per_call_s(lambda: energy_gradient(u, prob)), "us")

    rng = np.random.default_rng(seed)
    for k in JACOBI_SIZES:
        mats = itertools.cycle([0.5 * (a + a.T) for a in rng.standard_normal((16, k, k))])
        m[f"eig.jacobi_us.{k}"] = (1e6 * _per_call_s(lambda: jacobi_eigh(next(mats))), "us")

    for nodes in SCAN_NODES:
        grid = GridSpec(2, nodes, "ball")
        u = field(grid, lambda x, y: np.sin(2.0 * x) * np.cos(y) + 0.3 * x * y)
        m[f"regularity.scan_ms.n{nodes}"] = (
            1e3 * _per_call_s(lambda: lipschitz_seminorm(u, 0.5), batches=3,
                              min_batch_s=0.0), "ms")
    return m
