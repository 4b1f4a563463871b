"""The benchmark's workloads: inputs made from a seed, one round of CLI calls,
and the correctness checks on what each round wrote.

A workload is a list of operations, each one `pseudoplap.cli.main` call on a
config file the set-up writes.  Every check in the call's `summary.csv` counts
as one attempted operation; a check the CLI reports as failed counts as failed.
The benchmark's own checks (closed forms, recomputed residuals, symmetry,
homogeneity, documented floors) decide whether the round was correct; they
speak only of the solves whose checks did not fail.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pseudoplap import cli
from pseudoplap.config import parse_config
from pseudoplap.manufactured import closed_form_1d

P = 3.0
EPS = float(np.finfo(float).eps)
# claims_lipschitz_large_p: with the pinned selectors tau + (p-4) eps = 5/16,
# so |ratio1| must drift by at least 10^(15/16) across separations 1e-1..1e-4
# (argument in the docstring of tests/test_acceptance.py).
LIPSCHITZ_LARGE_P_FLOOR = 10.0 ** (15.0 / 16.0)


@dataclass(frozen=True)
class Case:
    """One ladder solve: f = amp (constant) or a centred Gaussian, zero boundary."""

    name: str
    dimension: int
    nodes: int
    f: str
    grad_tol: float
    amp: float = 1.0
    sigma: float = 0.3

    def config(self) -> str:
        return (f"[problem]\np = {P!r}\ndimension = {self.dimension}\n"
                f"nodes = {self.nodes}\nshape = ball\nf = {self.f}\n"
                f"f_value = {self.amp!r}\nf_sigma = {self.sigma!r}\nboundary = zero\n\n"
                f"[solver]\ngrad_tol = {self.grad_tol!r}\nmax_iters = 200000\n")


LADDER = (
    Case("1d-n257", 1, 257, "constant", 1e-8),
    Case("1d-n513", 1, 513, "constant", 1e-8),
    Case("2d-n65-const", 2, 65, "constant", 1e-8),
    Case("2d-n65-gauss", 2, 65, "gaussian", 1e-6),
    Case("3d-n33-const", 3, 33, "constant", 1e-6),
)

# The content of configs/regularity_2d.ini, kept here so the workload stays fixed.
SWEEP_CONFIG = """\
[problem]
p = 3.0
dimension = 2
nodes = 65
shape = ball

[solver]
grad_tol = 1e-8

[regularity]
radius = 0.5
gammas = 0.5
scaling_lambdas = 0.1, 10
"""

# Every sample count, barrier grid and claims scale at the CLI's defaults.
LEMMAS_CONFIG = "[lemmas]\n"


@dataclass
class Op:
    """One CLI call and the check of what it wrote."""

    label: str
    subcommand: str
    config: Path
    out: Path
    verify: object  # (Op, summary rows) -> (failed, problems)
    case: Case | None = None
    reference: dict = field(default_factory=dict)


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------- set-up


def _grid_points(dimension: int, nodes: int) -> np.ndarray:
    """Node coordinates, shape node_shape + (dimension,)."""
    axis = np.linspace(-1.0, 1.0, nodes)
    return np.stack(np.meshgrid(*([axis] * dimension), indexing="ij"), axis=-1)


def _ball_masks(dimension: int, nodes: int):
    """(closed ball, interior): interior = open ball with all 2N axis
    neighbours in the closed ball."""
    x = _grid_points(dimension, nodes)
    r2 = np.zeros(x.shape[:-1])
    for ax in range(dimension):
        r2 = r2 + x[..., ax] ** 2
    closed = r2 <= 1.0
    interior = r2 < 1.0
    for ax in range(dimension):
        for step in (1, -1):
            shifted = np.zeros_like(closed)
            src = [slice(None)] * dimension
            dst = [slice(None)] * dimension
            if step == 1:
                src[ax], dst[ax] = slice(1, None), slice(None, -1)
            else:
                src[ax], dst[ax] = slice(None, -1), slice(1, None)
            shifted[tuple(dst)] = closed[tuple(src)]
            interior &= shifted
    return closed, interior, r2


def _write_config(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    parse_config(path)  # a config the CLI would reject fails here, in set-up
    return path


def setup(workload: str, seed: int, root: Path) -> list:
    """Write the workload's configs and build the reference data its checks use."""
    rng = np.random.default_rng(seed)
    if workload == "ladder":
        ops = []
        for case in LADDER:
            if case.f == "gaussian":
                case = Case(case.name, case.dimension, case.nodes, case.f, case.grad_tol,
                            amp=float(rng.uniform(0.95, 1.05)),
                            sigma=float(0.3 * rng.uniform(0.95, 1.05)))
            closed, interior, r2 = _ball_masks(case.dimension, case.nodes)
            if case.f == "constant":
                f = np.full(r2.shape, case.amp)
            else:
                f = case.amp * np.exp(-r2 / (2.0 * case.sigma**2))
            op_dir = root / case.name
            ops.append(Op(case.name, "solve", _write_config(op_dir / "case.ini", case.config()),
                          op_dir, _verify_solve, case,
                          dict(closed=closed, interior=interior, f=f)))
        return ops
    if workload == "sweep":
        return [Op("sweep", "measure-regularity",
                   _write_config(root / "sweep" / "regularity.ini", SWEEP_CONFIG),
                   root / "sweep", _verify_sweep)]
    if workload == "lemmas":
        return [Op("lemmas", "verify-lemmas",
                   _write_config(root / "lemmas" / "lemmas.ini", LEMMAS_CONFIG),
                   root / "lemmas", _verify_lemmas)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- one round


def run_round(ops: list, seed: int, tracer=None) -> RoundResult:
    """Call the CLI once per operation, then check what each call wrote."""
    result = RoundResult()
    for op in ops:
        if tracer is not None:
            tracer.case = op.label
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([op.subcommand, "--config", str(op.config),
                             "--seed", str(seed), "--out", str(op.out)])
        if code not in (0, 1):
            raise RuntimeError(f"{op.label}: pseudoplap exited {code}: {sink.getvalue()}")
        summary = _read_report(op.out / "summary.csv")
        failed, problems = op.verify(op, summary)
        result.attempted += len(summary)
        result.failed += failed
        result.problems += [f"{op.label}: {msg}" for msg in problems]
    if tracer is not None:
        tracer.case = ""
    return result


def _read_report(path: Path) -> list:
    """Rows of a report CSV as dicts; the first line is the tool/config-hash comment."""
    with open(path, newline="") as fh:
        fh.readline()
        return list(csv.DictReader(fh))


def _passed(row: dict) -> bool:
    # the barrier check's verdict is a numpy bool, which the CLI writes as "True"
    return row["pass"].lower() == "true"


# ---------------------------------------------------------------- checks


def _divergence(u: np.ndarray, h: float, p: float):
    """sum_i [phi(D_i^+ u) - phi(D_i^- u)] / h, phi(t) = |t|^(p-2) t; and max |phi|."""
    out = np.zeros_like(u)
    flux_max = 0.0
    for ax in range(u.ndim):
        d = np.diff(u, axis=ax) / h
        flux = np.abs(d) ** (p - 2.0) * d
        flux_max = max(flux_max, float(np.nanmax(np.abs(flux))))
        core = [slice(None)] * u.ndim
        core[ax] = slice(1, -1)
        out[tuple(core)] += np.diff(flux, axis=ax) / h
    return out, flux_max


def _verify_solve(op: Op, summary: list):
    failed = sum(not _passed(row) for row in summary)
    if failed:
        return failed, []  # the checks below speak only of solves that did not fail
    case, ref = op.case, op.reference
    closed, interior = ref["closed"], ref["interior"]
    n, dim = case.nodes, case.dimension
    h = 2.0 / (n - 1)
    problems = []

    data = np.loadtxt(op.out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    idx = np.rint((data[:, :-1] + 1.0) / h).astype(int)
    u = np.full(closed.shape, np.nan)
    u[tuple(idx.T)] = data[:, -1]
    if len(data) != int(closed.sum()) or not np.isfinite(u[closed]).all():
        return 0, [f"solution.csv holds {len(data)} nodes, the closed ball {int(closed.sum())}"]

    res, flux_max = _divergence(u, h, P)
    resid = float(np.abs(res[interior] - (P - 1.0) * ref["f"][interior]).max())
    slack = 64.0 * dim * EPS * flux_max / h
    if not resid <= case.grad_tol + slack:
        problems.append(f"recomputed residual {resid:.3e} > grad_tol {case.grad_tol:.1e}")

    if dim == 1:
        exact, _ = closed_form_1d(P, case.amp)
        err = float(np.abs(u - exact(np.linspace(-1.0, 1.0, n))).max())
        if not err <= 5.0 * h:
            problems.append(f"1D error vs closed form {err:.3e} > 5h = {5 * h:.3e}")

    u_sup = float(np.abs(u[closed]).max())
    # f >= 0 with zero boundary data: u <= 0 by the comparison principle
    if not float(u[closed].max()) <= 0.0:
        problems.append(f"max u = {float(u[closed].max()):.3e} > 0 for f >= 0")
    for ax in range(dim):
        asym = float(np.abs(u - np.flip(u, axis=ax))[closed].max())
        if not asym <= 1e-12 * u_sup:
            problems.append(f"reflection along axis {ax} moves u by {asym:.3e}")

    # barrier bound |u| <= M/2, M = (f_sup 2^(2p) N^(p/2-1))^(1/(p-1))
    f_sup = float(np.abs(ref["f"][interior]).max())
    bound = 0.5 * (f_sup * 2.0 ** (2.0 * P) * dim ** (P / 2.0 - 1.0)) ** (1.0 / (P - 1.0))
    if not u_sup <= bound + 10.0 * case.grad_tol:
        problems.append(f"sup|u| = {u_sup:.6g} exceeds the barrier bound {bound:.6g}")
    reported = float(_read_report(op.out / "solve_report.csv")[0]["linf_bound"])
    if not abs(reported - bound) <= 2e-6 * bound:
        problems.append(f"reported barrier bound {reported:.9g} != {bound:.9g}")
    return 0, problems


def _verify_sweep(op: Op, summary: list):
    failed = sum(not _passed(row) for row in summary)
    problems = []
    # u solves f = c  =>  sign(c) |c|^(1/(p-1)) u_1 solves it for every c (degree p-1
    # homogeneity and oddness), and the quotient is invariant under that scaling.
    records = {r["f_label"]: float(r["ratio"]) for r in _read_report(op.out / "records.csv")}
    consts = [records[k] for k in ("const_1", "const_neg", "const_4", "separable")]
    spread = max(consts) / min(consts) - 1.0
    if not spread <= 1e-6:
        problems.append(f"constant-f presets' ratios differ by {spread:.3e}")
    drift = float(_read_report(op.out / "regularity_summary.csv")[0]["scaling_drift"])
    if not drift <= 1e-6:
        problems.append(f"scaling drift {drift:.3e} > 1e-6")
    return failed, problems


def _verify_lemmas(op: Op, summary: list):
    failed = 0
    problems = []
    for row in summary:
        if row["check"] != "claims_lipschitz_large_p":
            failed += not _passed(row)
            continue
        detail = dict(kv.split("=") for kv in row["detail"].split())
        drift1 = float(detail["drift1"])
        if _passed(row) or not (drift1 >= LIPSCHITZ_LARGE_P_FLOOR
                                and detail["sign_ok"] == "True"
                                and detail["ratio2_cap_ok"] == "True"
                                and float(detail["drift3"]) < 4.0):
            problems.append(f"claims_lipschitz_large_p: {row['detail']} contradicts the "
                            f"documented floor drift1 >= {LIPSCHITZ_LARGE_P_FLOOR:.3f}")
    # the barrier strength the CLI used is the near-minimal closed form at f_sup = 1
    for row in _read_report(op.out / "barrier_checks.csv"):
        p, dim = float(row["p"]), int(row["N"])
        m = (2.0 ** (2.0 * p) * dim ** (p / 2.0 - 1.0)) ** (1.0 / (p - 1.0))
        if not abs(float(row["M"]) - m) <= 2e-6 * m:
            problems.append(f"barrier M {row['M']} at p={p:g} N={dim} != {m:.9g}")
    counts = {name: len(_read_report(op.out / name)) for name in
              ("min_eig_samples.csv", "pair_samples.csv", "zt_samples.csv")}
    if counts != {"min_eig_samples.csv": 2000, "pair_samples.csv": 500,
                  "zt_samples.csv": 10_000}:
        problems.append(f"sample counts {counts} are not the CLI defaults")
    return failed, problems


def jacobi_agreement(seen: list) -> list:
    """jacobi_eigh eigenvalues against numpy.linalg.eigvalsh on every matrix seen."""
    worst = 0.0
    for a, w in seen:
        ref = np.linalg.eigvalsh(0.5 * (a + a.T))
        scale = max(float(np.linalg.norm(a)), math.ulp(1.0))
        worst = max(worst, float(np.abs(np.asarray(w) - ref).max()) / scale)
    if worst <= 1e-10:
        return []
    return [f"jacobi_eigh differs from eigvalsh by {worst:.3e} (relative to |A|_F)"]
