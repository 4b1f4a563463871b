"""Batch experiment runner.

    pseudoplap <subcommand> --config <path> [--seed <u64>] [--out <dir>]

Subcommands: solve, verify-lemmas, measure-regularity, convergence-study.
Exit codes: 0 success, 1 declared check failed, 2 config error (including a
section or key that the subcommand does not read), 3 runtime error.  Outputs
are CSVs plus optional SVG line plots; reruns with the same seed are
byte-identical.  Report CSVs open with a `# tool=... config_hash=...` line;
the field CSV `solution.csv` opens with its header `x1,...,xN,value`.  The
experiments themselves live in the library (`lemmas`,
`regularity.preset_sweep`), which the acceptance suite calls too; this
module checks the config and writes what they return.  Each
`run_<subcommand>(cfg)` reads and checks every value, then returns its work
as `work(seed, outdir, chash) -> checks`; `main` calls `cfg.reject_unread()`
in between, so nothing runs and no output directory exists before the whole
config has passed.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .barrier import linf_bound_check
from .claims import DEFAULT_REGIME_P, REGIMES, check_sweep_cap, regime_params
from .config import ConfigError, RawConfig, parse_config
from .grid import GridSpec, ScalarField, nonexterior_mask, write_field
from .lemmas import barrier_rows, claims_rows, comparison_rows, min_eig_rows, pair_rows
from .lemmas import uncovered_pairs, zt_rows
from .manufactured import check_sigma, make_boundary, make_f_field, separable_reference
from .operators import check_exponent
from .regularity import estimate_constant, preset_sweep, records_to_csv, scaling_factors
from .regularity import scan_exponents, scan_nodes
from .reporting import config_hash, svg_line_plot, write_csv
from .solver import EnergyProblem, SolveConfig, solve_dirichlet

def _grid_spec(cfg: RawConfig, dim: int, n: int, shape: str, nodes_key: tuple) -> GridSpec:
    """GridSpec(dim, n, shape), a bad value reported at the key it came from:
    [problem] dimension or shape, or the (section, key) `nodes_key` for n."""
    try:
        return GridSpec(dim, n, shape)
    except ValueError as exc:
        field = str(exc).split()[0]  # GridSpec names the offending field first
        section, key = nodes_key if field == "nodes_per_axis" else ("problem", field)
        cfg.fail(section, key, str(exc))


def _checked(cfg: RawConfig, section: str, key: str, check: Callable, *args, **kwargs):
    """check(*args, **kwargs), a ValueError it raises reported at [section] key."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        cfg.fail(section, key, str(exc))


def _build_grid(cfg: RawConfig) -> GridSpec:
    return _grid_spec(cfg, cfg.get_int("problem", "dimension", 2),
                      cfg.get_int("problem", "nodes", 65), cfg.get("problem", "shape", "ball"),
                      ("problem", "nodes"))


def _read_p(cfg: RawConfig, section="problem", key="p", default=3.0):
    """[section] key, one p or, with a list default, a nonempty list of them, each
    checked by check_exponent, whose ValueError `_checked` reports at the key."""
    get = cfg.get_list if isinstance(default, list) else cfg.get_float
    return get(section, key, default,
               valid=lambda p: _checked(cfg, section, key, check_exponent, p) is None)


def _build_problem(cfg: RawConfig, grid: GridSpec) -> EnergyProblem:
    """A closed-form preset's one rule, c > 0, fails at its value's key; f or
    boundary data that is not finite on some node fails at `f` or `boundary`."""
    p = _read_p(cfg)
    preset = cfg.get("problem", "f", "constant")
    value = cfg.get_float("problem", "f_value", 1.0, valid=np.isfinite,
                          rule="f_value must be finite")
    sigma = cfg.get_float("problem", "f_sigma", 0.3, valid=lambda sigma: _checked(
        cfg, "problem", "f_sigma", check_sigma, sigma) is None)
    f = _checked(cfg, "problem", "f_value" if preset == "separable" else "f", make_f_field,
                 grid, preset, value=value, p=p, sigma=sigma)
    bpreset = cfg.get("problem", "boundary", "zero")
    trace = bpreset == "separable_trace"
    bvalue = cfg.get_float("problem", "boundary_value", 1.0 if trace else 0.0,  # trace: c = 1
                           valid=np.isfinite, rule="boundary_value must be finite")
    boundary = _checked(cfg, "problem", "boundary_value" if trace else "boundary", make_boundary,
                        bpreset, value=bvalue, p=p)
    prob = _checked(cfg, "problem", "f", EnergyProblem, grid, p, f, boundary)
    _checked(cfg, "problem", "boundary", prob.boundary_values)
    return prob


def _solver_config(cfg: RawConfig) -> SolveConfig:
    try:
        return SolveConfig(grad_tol=cfg.get_float("solver", "grad_tol", SolveConfig.grad_tol),
                           max_iters=cfg.get_int("solver", "max_iters", SolveConfig.max_iters))
    except ValueError as exc:  # SolveConfig names the offending field first
        cfg.fail("solver", str(exc).split()[0], str(exc))


def run_solve(cfg: RawConfig) -> Callable:
    grid = _build_grid(cfg)
    prob = _build_problem(cfg, grid)
    solver_cfg = _solver_config(cfg)

    def work(seed: int, outdir: Path, chash: str) -> list:
        u, rep = solve_dirichlet(prob, solver_cfg)
        write_field(outdir / "solution.csv", u)
        bound, ok_bound = linf_bound_check(u, prob, solver_tol=10 * solver_cfg.grad_tol)
        write_csv(outdir / "solve_report.csv",
                  ["converged", "reason", "iterations", "inner_iterations", "final_energy",
                   "final_grad_sup", "sup_norm", "linf_bound", "mirror_axes", "float64_reruns"],
                  [[rep.converged, rep.reason, rep.iterations, rep.inner_iterations,
                    rep.final_energy, rep.final_grad_sup, u.sup_norm(), bound,
                    " ".join(map(str, rep.mirror_axes)) or "none", rep.float64_reruns]], chash)
        return [("solver_converged", rep.converged,
                 f"{rep.reason}: residual {rep.final_grad_sup:.3e}"),
                ("linf_bound", ok_bound, f"sup|u| = {u.sup_norm():.6g} <= {bound:.6g}")]
    return work


def run_verify_lemmas(cfg: RawConfig) -> Callable:
    run = {family: cfg.get_bool("lemmas", f"run_{family}", family != "comparison")
           for family in ("barrier", "min_eig", "pair", "zt", "comparison", "claims")}
    if not any(run.values()):
        cfg.fail("lemmas", None, "every run_* is false, so nothing would be checked")
    barrier_nodes = cfg.get_int("lemmas", "barrier_nodes", 129)
    barrier_ps = _read_p(cfg, "lemmas", "barrier_p_list", [2.5, 3.0, 4.0, 5.0, 6.0])
    barrier_ns = cfg.get_list("lemmas", "barrier_N_list", [1, 2, 3], conv=int,
                              valid=lambda n: n in (1, 2, 3), rule="every N must be 1, 2 or 3")
    for n in barrier_ns:
        _grid_spec(cfg, n, barrier_nodes, "ball", ("lemmas", "barrier_nodes"))
    counts = {key: cfg.get_int("lemmas", key, default, valid=lambda c: c >= least,
                               rule=f"{key} must be >= {least}")
              for key, default, least in (("min_eig_samples", 1000, 1), ("zt_samples", 10_000, 1),
                                          ("pair_samples", 500, len(REGIMES)),  # a pair per regime
                                          ("comparison_pairs", 5, 1))}
    comparison_nodes = cfg.get_int("lemmas", "comparison_nodes", 33)
    _grid_spec(cfg, 2, comparison_nodes, "ball", ("lemmas", "comparison_nodes"))
    comparison_p = _read_p(cfg, "lemmas", "comparison_p", 3.0)
    scales = cfg.get_list("lemmas", "claims_scales", [1e-1, 1e-2, 1e-3, 1e-4],
                          valid=lambda s: 0.0 < s < 1.0, rule="every scale must be in (0, 1)")
    if len(set(scales)) < 2:
        cfg.fail("lemmas", "claims_scales",
                 f"the drift check needs at least two distinct scales, got {scales}")
    claims_N = cfg.get_int("lemmas", "claims_N", 2)
    params = [_checked(cfg, "lemmas", "claims_N", regime_params, regime, DEFAULT_REGIME_P[regime],
                       claims_N) for regime in REGIMES]
    claims_M = cfg.get_float("lemmas", "claims_M", 10.0, valid=lambda m: m > 1.0,
                             rule="claims_M must be > 1")
    for regime_p in params:  # the sweep's doubled points must fit the Lipschitz cap
        _checked(cfg, "lemmas", "claims_M", check_sweep_cap, regime_p, claims_M, scales)
    plots = cfg.get_bool("output", "plots", False)

    def work(seed: int, outdir: Path, chash: str) -> list:
        root = np.random.SeedSequence(seed)
        rngs = [np.random.default_rng(s) for s in root.spawn(4)]
        checks = []

        if run["barrier"]:
            rows, ok = barrier_rows(barrier_nodes, barrier_ps, barrier_ns)
            write_csv(outdir / "barrier_checks.csv",
                      ["p", "N", "nodes", "M", "violation", "tolerance", "pass"], rows, chash)
            margins = [(viol - tol, p, N) for p, N, _, _, viol, tol, _ in rows]
            # max drops a NaN margin that is not first, so a non-finite one is named first
            bad = [m for m in margins if not np.isfinite(m[0])]
            margin, at_p, at_n = bad[0] if bad else max(margins)
            checks.append(("barrier_supersolution", ok,
                           f"{len(rows)} (p, N) cases, worst margin {margin:.3e} "
                           f"at p={at_p:g} N={at_n}"))

        if run["min_eig"]:
            rows, worst = min_eig_rows(rngs[0], counts["min_eig_samples"])
            write_csv(outdir / "min_eig_samples.csv",
                      ["branch", "p", "N", "gamma", "s", "rayleigh", "bound", "slack",
                       "rel_slack"], rows, chash)
            checks.append(("min_eig_bound", worst >= -1e-9, f"worst rel slack {worst:.3e}"))

        if run["pair"]:
            rows, worst = pair_rows(rngs[1], counts["pair_samples"])
            write_csv(outdir / "pair_samples.csv",
                      ["regime", "p", "N", "M", "s", "slack_all", "slack_small",
                       "slack_large", "slack_norm", "rel_slack"], rows, chash)
            uncovered = ",".join(uncovered_pairs(rows)) or "none"
            checks.append(("pair_conclusions", worst >= -1e-9,
                           f"worst rel slack {worst:.3e} uncovered={uncovered}"))

        if run["zt"]:
            rows, worst = zt_rows(rngs[2], counts["zt_samples"])
            write_csv(outdir / "zt_samples.csv",
                      ["p", "N", "theta", "slack", "rel_slack"], rows, chash)
            checks.append(("zt_inequality", worst >= -1e-12, f"worst rel slack {worst:.3e}"))

        if run["comparison"]:
            pairs = counts["comparison_pairs"]
            rows, ok, _ = comparison_rows(np.random.default_rng(root.spawn(1)[0]),
                                          comparison_nodes, comparison_p, pairs)
            write_csv(outdir / "comparison_checks.csv",
                      ["trial", "premise", "conclusion", "operator_gap", "boundary_gap",
                       "interior_gap", "conclusion_tol"], rows, chash)
            checks.append(("comparison_principle", ok, f"{pairs} solved pairs"))

        if run["claims"]:
            rows = []
            series = {}
            for regime in REGIMES:  # one stream, drawn from in REGIMES order
                regime_rows, verdict, params = claims_rows(rngs[3], regime, claims_N, claims_M,
                                                           scales)
                rows += regime_rows
                swept = sorted(verdict["ratio1_by_scale"], reverse=True)
                series[regime] = (swept, [verdict["ratio1_by_scale"][s] for s in swept])
                checks.append((f"claims_{regime}", verdict["ok"], verdict["detail"]))
                checks.append((f"exponents_{regime}", params.exponents_ordered(),
                               f"tau1={params.tau1:.3g} tau2={params.tau2:.3g} "
                               f"tau_hat={params.tau_hat:.3g}"))
            write_csv(outdir / "claims_ratios.csv",
                      ["regime", "p", "N", "M", "s", "ratio1", "ratio2", "ratio3",
                       "in_delta", "eq_n_epsilon_ok"], rows, chash)
            if plots:
                svg_line_plot(outdir / "claims_ratio1.svg", series, "|xbar - ybar|", "|ratio1|",
                              "claim ratio magnitude vs scale")
        return checks
    return work


def run_measure_regularity(cfg: RawConfig) -> Callable:
    grid = _build_grid(cfg)
    p = _read_p(cfg)
    r = cfg.get_float("regularity", "radius", 0.5)
    _checked(cfg, "regularity", "radius", scan_nodes, grid, r)
    gammas = cfg.get_list("regularity", "gammas", [0.5])  # may be empty: a Lipschitz-only run
    _checked(cfg, "regularity", "gammas", scan_exponents, gammas)
    lambdas = cfg.get_list("regularity", "scaling_lambdas", [0.1, 10.0])
    if not lambdas:
        cfg.fail("regularity", "scaling_lambdas", "the list is empty")
    _checked(cfg, "regularity", "scaling_lambdas", scaling_factors, p, lambdas)
    solver_cfg = _solver_config(cfg)

    def work(seed: int, outdir: Path, chash: str) -> list:
        records, scale_rows, converged = preset_sweep(grid, p, r, gammas, lambdas, solver_cfg,
                                                      np.random.default_rng(seed))
        records_to_csv(outdir / "records.csv", records, chash)
        c_emp = estimate_constant(records)
        if scale_rows[0][1]:
            drift = max(row[2] for row in scale_rows)
            scaling = ("scaling_invariance", drift <= 1e-6, f"max rel drift {drift:.3e}")
        else:
            drift = np.nan
            scaling = ("scaling_invariance", False, "base ratio is 0: relative drift undefined")
        write_csv(outdir / "scaling_invariance.csv",
                  ["lambda", "ratio", "rel_drift"], scale_rows, chash)
        write_csv(outdir / "regularity_summary.csv",
                  ["p", "N", "r", "empirical_C", "scaling_drift"],
                  [[p, grid.dimension, r, c_emp, drift]], chash)
        return [("all_solves_converged", all(converged),
                 f"{sum(converged)} of {len(converged)} solves converged "
                 f"({len(records)} presets + {len(lambdas)} scaling)"),
                ("empirical_C_finite", bool(np.isfinite(c_emp)), f"C = {c_emp:.6g}"),
                scaling]
    return work


def run_convergence_study(cfg: RawConfig) -> Callable:
    p = _read_p(cfg)
    dim = cfg.get_int("problem", "dimension", 1)
    nodes_list = cfg.get_list("convergence", "nodes_list", [33, 65, 129], conv=int)
    if len(nodes_list) < 2 or any(a >= b for a, b in zip(nodes_list, nodes_list[1:])):
        cfg.fail("convergence", "nodes_list",
                 f"needs at least two strictly increasing node counts, got {nodes_list}")
    min_order = cfg.get_float("convergence", "min_order", 0.8,
                              valid=lambda m: np.isfinite(m) and m > 0.0,
                              rule="min_order must be finite and > 0")
    solver_cfg = _solver_config(cfg)
    grids = [_grid_spec(cfg, dim, n, "ball" if dim == 1 else "cube",
                        ("convergence", "nodes_list")) for n in nodes_list]
    plots = cfg.get_bool("output", "plots", False)

    def work(seed: int, outdir: Path, chash: str) -> list:
        rows = []
        errs = []
        exact, f_const = separable_reference(p, dim)  # exact is its own boundary data
        for grid in grids:
            f = make_f_field(grid, "constant", value=f_const)
            u, rep = solve_dirichlet(EnergyProblem(grid, p, f, exact), solver_cfg)
            mask = nonexterior_mask(grid)
            vals = ScalarField.from_function(grid, exact).values[mask]
            err = float(np.abs(u.values[mask] - vals).max())
            errs.append(err)
            rows.append([grid.nodes_per_axis, grid.spacing, err, rep.converged, rep.iterations])
        orders = [float(np.log2(errs[i] / errs[i + 1])
                        / np.log2((nodes_list[i + 1] - 1) / (nodes_list[i] - 1)))
                  for i in range(len(errs) - 1)]
        write_csv(outdir / "convergence.csv",
                  ["nodes", "h", "linf_error", "converged", "iterations"], rows, chash)
        write_csv(outdir / "observed_orders.csv", ["level", "order"],
                  [[i, o] for i, o in enumerate(orders)], chash)
        if plots:
            hs = [row[1] for row in rows]
            svg_line_plot(outdir / "error_vs_h.svg", {"linf_error": (hs, errs)},
                          "h", "L-inf error", "error vs spacing")
        decreasing = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        order_ok = all(o >= min_order for o in orders)
        return [("errors_decreasing", decreasing, f"errors {['%.3e' % e for e in errs]}"),
                ("observed_order", order_ok,
                 f"orders {['%.2f' % o for o in orders]} >= {min_order}")]
    return work


_RUNNERS = {
    "solve": run_solve,
    "verify-lemmas": run_verify_lemmas,
    "measure-regularity": run_measure_regularity,
    "convergence-study": run_convergence_study,
}

# built once: a parser, its actions and formatters hold reference cycles,
# which one parser per call would leave to the garbage collector
_PARSER = argparse.ArgumentParser(prog="pseudoplap", description=__doc__)
_PARSER.add_argument("subcommand", choices=sorted(_RUNNERS))
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--out", default=".")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        _PARSER.error(f"argument --seed: expected a u64, got {args.seed}")
    try:
        cfg = parse_config(args.config)
        work = _RUNNERS[args.subcommand](cfg)
        cfg.reject_unread()
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        chash = config_hash(cfg.text)
        checks = work(args.seed, outdir, chash)
        write_csv(outdir / "summary.csv", ["check", "pass", "detail"],
                  [[name, ok, detail] for name, ok, detail in checks], chash)
        failed = [name for name, ok, _ in checks if not ok]
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if failed:
            print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
