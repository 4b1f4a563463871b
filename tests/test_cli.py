import argparse
import ast
import csv
import dataclasses
import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import barrier_reference
import field_writer_reference
import jacobi_reference
import min_eig_reference
import pair_scan_reference
from pseudoplap import cli, jets, regularity, solver
from pseudoplap.cli import main
from pseudoplap.config import ConfigError, parse_config
from pseudoplap.grid import ScalarField, nonexterior_mask
from pseudoplap.solver import SolveReport

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

LEMMAS_MICRO = """
[lemmas]
run_barrier = true
barrier_nodes = 33
barrier_p_list = 3
barrier_N_list = 1, 2
run_min_eig = true
min_eig_samples = 40
run_pair = true
pair_samples = 16
run_zt = true
zt_samples = 200
run_claims = false
"""

# every [lemmas] key, each family on
LEMMAS_ALL = LEMMAS_MICRO.replace("run_claims = false", """run_claims = true
claims_scales = 0.1, 0.01
claims_N = 2
claims_M = 10.0
run_comparison = true
comparison_pairs = 1
comparison_nodes = 17
comparison_p = 3.0""")

# every family off but the claims sweep, which is on by default
LEMMAS_ALL_BUT_CLAIMS_OFF = "[lemmas]\nrun_barrier = false\nrun_min_eig = false\n" \
    "run_pair = false\nrun_zt = false\n"

SOLVE_TINY = """
[problem]
p = 3.0
dimension = 1
nodes = 33
f = constant
f_value = 1.0
boundary = zero

[solver]
grad_tol = 1e-7
"""

# a 2D n = 33 copy of configs/regularity_2d.ini
REGULARITY_33 = """
[problem]
p = 3.0
dimension = 2
nodes = 33
shape = ball

[solver]
grad_tol = 1e-8
max_iters = {max_iters}

[regularity]
radius = 0.5
gammas = 0.5
scaling_lambdas = {lambdas}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(out):
    """summary.csv as {check: (pass, detail)}; every row must hold exactly 3 fields."""
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    assert all(len(row) == 3 for row in rows), rows
    return {name: (ok, detail) for name, ok, detail in rows}


def test_parse_config_happy(tmp_path):
    cfg = parse_config(write(tmp_path, "a.ini", "[s]\nkey = 3.5\nflag = true\n"))
    assert cfg.get_float("s", "key") == 3.5
    assert cfg.get_bool("s", "flag") is True
    assert cfg.get_int("s", "missing", 7) == 7


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match=":1"):
        parse_config(write(tmp_path, "b.ini", "key = 1\n"))
    with pytest.raises(ConfigError, match=":3"):
        parse_config(write(tmp_path, "c.ini", "[s]\nk = 1\nk = 2\n"))
    with pytest.raises(ConfigError, match=":2"):
        parse_config(write(tmp_path, "d.ini", "[s]\nnot a pair\n"))
    cfg = parse_config(write(tmp_path, "e.ini", "[s]\nk = zzz\n"))
    with pytest.raises(ConfigError, match="expected a number"):
        cfg.get_float("s", "k")


def test_main_config_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.ini", "[problem]\nnodes = seventeen\n")
    code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_missing_config_exit_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2


def test_solver_config_error_names_line(tmp_path, capsys):
    path = write(tmp_path, "neg.ini", SOLVE_TINY.replace("grad_tol = 1e-7", "grad_tol = -1"))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:11: [solver] grad_tol: grad_tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["grad_tl = 1e-14", "armijo_c = 1e-4",
                                  "backtrack_factor = 0.5"])
def test_unknown_config_key_exit_2(tmp_path, capsys, line):
    # a misspelled key, and the line-search knobs that are module constants now
    path = write(tmp_path, "typo.ini", SOLVE_TINY + line + "\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    key = line.split()[0]
    assert f"{path}:12: [solver] {key}: unknown key; known: grad_tol, max_iters" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the subcommand each shipped config is written for
SHIPPED = {"convergence_1d.ini": "convergence-study", "regularity_2d.ini": "measure-regularity",
           "solve_1d.ini": "solve", "verify_lemmas_small.ini": "verify-lemmas"}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_shipped_configs_use_known_keys(name):
    cfg = parse_config(CONFIGS / name)
    cli._RUNNERS[SHIPPED[name]](cfg)  # reads and checks every value; the work is not run
    cfg.reject_unread()


def test_getter_after_reject_unread_raises(tmp_path):
    cfg = parse_config(write(tmp_path, "a.ini", "[s]\nkey = 3.5\n"))
    assert cfg.get_float("s", "key") == 3.5
    cfg.reject_unread()
    with pytest.raises(RuntimeError, match="after reject_unread"):
        cfg.get_float("s", "key")
    with pytest.raises(RuntimeError, match="after reject_unread"):
        cfg.get_bool("s", "other", False)


def test_unknown_config_section_exit_2(tmp_path, capsys):
    path = write(tmp_path, "typo.ini", SOLVE_TINY + "\n[solvr]\nmax_iters = 1\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:13: unknown section [solvr]; known: problem, solver" \
        in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any solve or lemma sampler runs."""
    for module in (cli, regularity):
        monkeypatch.setattr(module, "solve_dirichlet", lambda *a: pytest.fail("solve ran"))
    for sampler in ("barrier_rows", "min_eig_rows", "pair_rows", "zt_rows", "comparison_rows",
                    "claims_rows"):
        monkeypatch.setattr(cli, sampler, lambda *a, name=sampler: pytest.fail(f"{name} ran"))


REGULARITY_TINY = REGULARITY_33.format(max_iters=50, lambdas=10)
CONVERGENCE_TINY = "[problem]\np = 3.0\ndimension = 1\n[convergence]\nnodes_list = 33, 65\n" \
    "min_order = 0.8\n"
# every [problem] key of solve
SOLVE_ALL = SOLVE_TINY.replace("boundary = zero",
                               "f_sigma = 0.3\nboundary = zero\nboundary_value = 0.0")
SOLVE_2D = SOLVE_ALL.replace("dimension = 1", "dimension = 2")


@pytest.mark.parametrize("subcommand, text, added, lineno, message", [
    # keys that another subcommand reads and this one would ignore
    ("measure-regularity", REGULARITY_TINY, "f = gaussian", 5, "[problem] f: unknown key"),
    ("measure-regularity", REGULARITY_TINY, "f_value = 7", 5, "[problem] f_value: unknown key"),
    ("measure-regularity", REGULARITY_TINY, "boundary = affine", 5,
     "[problem] boundary: unknown key"),
    ("convergence-study", CONVERGENCE_TINY, "nodes = 999", 3, "[problem] nodes: unknown key"),
    ("convergence-study", CONVERGENCE_TINY, "shape = cube", 3, "[problem] shape: unknown key"),
    ("convergence-study", CONVERGENCE_TINY, "f = gaussian", 3, "[problem] f: unknown key"),
    # sections that another subcommand reads
    ("verify-lemmas", "[lemmas]\nrun_barrier = false\n", "[solver]\ngrad_tol = 1e-8", 3,
     "unknown section [solver]; known: lemmas, output"),
    ("solve", SOLVE_TINY.strip() + "\n", "[output]\nplots = true", 11,
     "unknown section [output]; known: problem, solver"),
], ids=["reg-f", "reg-f_value", "reg-boundary", "conv-nodes", "conv-shape", "conv-f",
        "lemmas-solver", "solve-output"])
def test_key_of_another_subcommand_exit_2(tmp_path, no_work, capsys, subcommand, text, added,
                                          lineno, message):
    lines = text.splitlines()
    lines.insert(lineno - 1, added)  # the added key or section header lands on lineno
    path = write(tmp_path, "other.ini", "\n".join(lines) + "\n")
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:{lineno}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, text, old, new, message", [
    ("measure-regularity", REGULARITY_TINY, "p = 3.0", "p = 2.0",
     "[problem] p: p must be > 2, got 2.0"),
    ("convergence-study", CONVERGENCE_TINY, "p = 3.0", "p = 1.5",
     "[problem] p: p must be > 2, got 1.5"),
    ("convergence-study", CONVERGENCE_TINY, "nodes_list = 33, 65", "nodes_list = 33, 64",
     "[convergence] nodes_list: nodes_per_axis must be odd and >= 9, got 64"),
    ("convergence-study", CONVERGENCE_TINY, "nodes_list = 33, 65", "nodes_list = 33",
     "[convergence] nodes_list: needs at least two strictly increasing node counts, got [33]"),
    ("convergence-study", CONVERGENCE_TINY, "nodes_list = 33, 65", "nodes_list =",
     "[convergence] nodes_list: needs at least two strictly increasing node counts, got []"),
    ("convergence-study", CONVERGENCE_TINY, "nodes_list = 33, 65", "nodes_list = 65, 33",
     "[convergence] nodes_list: needs at least two strictly increasing node counts, "
     "got [65, 33]"),
    ("convergence-study", CONVERGENCE_TINY, "min_order = 0.8", "min_order = -5",
     "[convergence] min_order: min_order must be finite and > 0, got -5.0"),
    ("convergence-study", CONVERGENCE_TINY, "min_order = 0.8", "min_order = nan",
     "[convergence] min_order: min_order must be finite and > 0, got nan"),
    ("solve", SOLVE_TINY, "dimension = 1", "dimension = 4",
     "[problem] dimension: dimension must be 1, 2 or 3, got 4"),
    ("solve", SOLVE_ALL, "f_value = 1.0", "f_value = nan",
     "[problem] f_value: f_value must be finite, got nan"),
    ("solve", SOLVE_ALL, "boundary_value = 0.0", "boundary_value = inf",
     "[problem] boundary_value: boundary_value must be finite, got inf"),
    ("solve", SOLVE_ALL.replace("f = constant", "f = gaussian"), "f_sigma = 0.3", "f_sigma = 0",
     "[problem] f_sigma: sigma must be > 0 with 2 sigma^2 a finite normal float, got 0.0"),
    ("verify-lemmas", LEMMAS_ALL, "claims_N = 2", "claims_N = 4",
     "[lemmas] claims_N: N must be 1, 2 or 3, got 4"),
    ("verify-lemmas", LEMMAS_ALL.replace("claims_M = 10.0", "claims_M = 0.5"), "claims_N = 2",
     "claims_N = 4", "[lemmas] claims_N: N must be 1, 2 or 3, got 4"),
    ("verify-lemmas", LEMMAS_ALL, "claims_M = 10.0", "claims_M = 0.5",
     "[lemmas] claims_M: claims_M must be > 1, got 0.5"),
    ("verify-lemmas", LEMMAS_ALL, "claims_M = 10.0", "claims_M = 1000",
     "[lemmas] claims_M: lipschitz_small_p at |xbar-ybar| = 0.1: |ybar - x0| = 0.0789 "
     "exceeds the doubled-maximum cap (C_EMP |xbar-ybar|^gamma / M)^(1/2) = 0.0422"),
    ("verify-lemmas", LEMMAS_ALL, "claims_scales = 0.1, 0.01", "claims_scales = 0.1, 0",
     "[lemmas] claims_scales: every scale must be in (0, 1), got 0.0"),
    ("verify-lemmas", LEMMAS_ALL, "claims_scales = 0.1, 0.01", "claims_scales = 2",
     "[lemmas] claims_scales: every scale must be in (0, 1), got 2.0"),
    # one scale, or one repeated, leaves the drift check nothing to compare
    ("verify-lemmas", LEMMAS_ALL, "claims_scales = 0.1, 0.01", "claims_scales = 0.001, 0.001",
     "[lemmas] claims_scales: the drift check needs at least two distinct scales, "
     "got [0.001, 0.001]"),
    ("verify-lemmas", LEMMAS_ALL, "claims_scales = 0.1, 0.01", "claims_scales = 0.01",
     "[lemmas] claims_scales: the drift check needs at least two distinct scales, got [0.01]"),
    ("verify-lemmas", LEMMAS_ALL, "barrier_nodes = 33", "barrier_nodes = 10",
     "[lemmas] barrier_nodes: nodes_per_axis must be odd and >= 9, got 10"),
    ("verify-lemmas", LEMMAS_ALL, "barrier_p_list = 3", "barrier_p_list = 1.5",
     "[lemmas] barrier_p_list: p must be > 2, got 1.5"),
    ("verify-lemmas", LEMMAS_ALL, "barrier_N_list = 1, 2", "barrier_N_list = 4",
     "[lemmas] barrier_N_list: every N must be 1, 2 or 3, got 4"),
    ("verify-lemmas", LEMMAS_ALL, "barrier_N_list = 1, 2", "barrier_N_list =",
     "[lemmas] barrier_N_list: the list is empty"),
    ("verify-lemmas", LEMMAS_ALL, "min_eig_samples = 40", "min_eig_samples = -3",
     "[lemmas] min_eig_samples: min_eig_samples must be >= 1, got -3"),
    ("verify-lemmas", LEMMAS_ALL, "zt_samples = 200", "zt_samples = 0",
     "[lemmas] zt_samples: zt_samples must be >= 1, got 0"),
    ("verify-lemmas", LEMMAS_ALL, "comparison_pairs = 1", "comparison_pairs = 0",
     "[lemmas] comparison_pairs: comparison_pairs must be >= 1, got 0"),
    ("verify-lemmas", LEMMAS_ALL, "pair_samples = 16", "pair_samples = 3",
     "[lemmas] pair_samples: pair_samples must be >= 4, got 3"),
    ("verify-lemmas", LEMMAS_ALL_BUT_CLAIMS_OFF, "[lemmas]", "[lemmas]\nrun_claims = false",
     "[lemmas]: every run_* is false, so nothing would be checked"),
    ("convergence-study", CONVERGENCE_TINY + "[output]\nplots = true\n", "plots = true",
     "plots = maybe", "[output] plots: expected a boolean, got 'maybe'"),
    ("measure-regularity", REGULARITY_TINY, "scaling_lambdas = 10", "scaling_lambdas =",
     "[regularity] scaling_lambdas: the list is empty"),
    ("solve", SOLVE_ALL.replace("f = constant", "f = separable"), "f_value = 1.0",
     "f_value = -1", "[problem] f_value: c must be positive, got -1.0"),
    ("solve", SOLVE_ALL.replace("boundary = zero", "boundary = separable_trace"),
     "boundary_value = 0.0", "boundary_value = -1",
     "[problem] boundary_value: c must be positive, got -1.0"),
    # non-finite values that pass "> 0" or "> 2" and would fail, or pass, only later
    ("solve", SOLVE_TINY, "grad_tol = 1e-7", "grad_tol = inf",
     "[solver] grad_tol: grad_tol must be positive and finite"),
    ("solve", SOLVE_TINY, "p = 3.0", "p = inf", "[problem] p: p must be finite, got inf"),
    ("verify-lemmas", LEMMAS_ALL, "barrier_p_list = 3", "barrier_p_list = 3, inf",
     "[lemmas] barrier_p_list: p must be finite, got inf"),
    ("verify-lemmas", LEMMAS_ALL, "comparison_p = 3.0", "comparison_p = inf",
     "[lemmas] comparison_p: p must be finite, got inf"),
    # finite values whose f or boundary data would not be finite on some node
    ("solve", SOLVE_2D.replace("f = constant", "f = gaussian"), "f_sigma = 0.3",
     "f_sigma = 1e-170",
     "[problem] f_sigma: sigma must be > 0 with 2 sigma^2 a finite normal float, got 1e-170"),
    ("solve", SOLVE_2D.replace("f = constant", "f = separable"), "f_value = 1.0",
     "f_value = 1e308",
     "[problem] f_value: c = 1e+308 is too large: ((p-1) c)^(1/(p-1)) overflows"),
    ("solve", SOLVE_2D.replace("nodes = 33", "nodes = 33\nshape = cube").replace(
        "boundary = zero", "boundary = separable_trace"), "boundary_value = 0.0",
     "boundary_value = 1e308",
     "[problem] boundary_value: c = 1e+308 is too large: ((p-1) c)^(1/(p-1)) overflows"),
], ids=["reg-p", "conv-p", "conv-even-nodes", "conv-one-node-count", "conv-no-node-count",
        "conv-decreasing-nodes", "conv-negative-order", "conv-nan-order", "solve-dimension",
        "solve-nan-f", "solve-inf-boundary", "solve-zero-sigma", "lemmas-claims-N",
        "lemmas-claims-N-before-M",
        "lemmas-claims-M", "lemmas-claims-M-cap", "lemmas-zero-scale", "lemmas-scale-2",
        "lemmas-repeated-scale", "lemmas-one-scale",
        "lemmas-even-nodes",
        "lemmas-barrier-p", "lemmas-barrier-N", "lemmas-empty-N-list", "lemmas-min-eig-samples",
        "lemmas-zt-samples", "lemmas-comparison-pairs", "lemmas-pair-samples",
        "lemmas-nothing-to-check", "conv-plots",
        "reg-empty-lambdas", "solve-separable-f-value", "solve-trace-boundary-value",
        "solve-inf-grad-tol", "solve-inf-p", "lemmas-inf-barrier-p", "lemmas-inf-comparison-p",
        "solve-gaussian-sigma-underflow", "solve-separable-f-overflow",
        "solve-trace-boundary-overflow"])
def test_bad_config_value_exit_2(tmp_path, no_work, capsys, subcommand, text, old, new, message):
    # every value is checked before the first solve, lemma sampler or output
    lineno = text.splitlines().index(old) + 1
    path = write(tmp_path, "bad.ini", text.replace(old, new))
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:{lineno}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_separable_trace_without_boundary_value_keeps_c_1(tmp_path):
    absent = SOLVE_TINY.replace("boundary = zero", "boundary = separable_trace")
    one = absent.replace("separable_trace", "separable_trace\nboundary_value = 1")
    for name, text in (("absent", absent), ("one", one)):
        assert main(["solve", "--config", write(tmp_path, f"{name}.ini", text),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "absent" / "solution.csv").read_bytes() \
        == (tmp_path / "one" / "solution.csv").read_bytes()


# a small run of each subcommand that writes every CSV the subcommand can write,
# with the number of those CSVs
EVERY_CSV = {
    "solve": (SOLVE_TINY, 3),
    "verify-lemmas": (LEMMAS_ALL, 7),
    "measure-regularity": (REGULARITY_TINY, 4),
    "convergence-study": (CONVERGENCE_TINY.replace("33, 65", "17, 33"), 3),
}


@pytest.mark.parametrize("subcommand", sorted(EVERY_CSV))
def test_boolean_cells_spelled_true_false(tmp_path, subcommand):
    out = tmp_path / "out"
    text, count = EVERY_CSV[subcommand]
    assert main([subcommand, "--config", write(tmp_path, "run.ini", text), "--out", str(out)]) \
        in (0, 1)
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == count
    for csv_path in csvs:
        with open(csv_path, newline="") as fh:
            fh.readline()  # tool/config-hash comment
            header, *rows = list(csv.reader(fh))
        for k, column in enumerate(header):
            cells = {row[k] for row in rows} - {""}
            if cells & {"true", "false", "True", "False"}:
                assert cells <= {"true", "false"}, (csv_path.name, column, cells)


def test_solve_roundtrip_and_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "solve.ini", SOLVE_TINY)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--seed", "3", "--out", str(out)]) == 0
    header, *lines = (out / "solution.csv").read_text().splitlines()
    assert header == "x1,value" and len(lines) == 33  # every node of the 1D n = 33 grid
    assert "PASS solver_converged: converged: residual" in capsys.readouterr().out
    with open(out / "solve_report.csv", newline="") as fh:
        report = list(csv.DictReader(fh.readlines()[1:]))[0]
    assert report["reason"] == "converged" and int(report["inner_iterations"]) > 0
    assert report["mirror_axes"] == "0"  # f = 1 and zero data on n = 2^5 + 1: the half line


@pytest.mark.parametrize("subcommand, text", [
    ("solve", SOLVE_2D.replace("f_value = 1.0", "f_value = 1e300")),
    ("measure-regularity", REGULARITY_33.format(max_iters=1000, lambdas="1e150")),
    ("measure-regularity", REGULARITY_33.format(max_iters=1000, lambdas="1e-150")),
], ids=["solve-f-1e300", "reg-lambda-1e150", "reg-lambda-1e-150"])
def test_overflowing_solve_fails_fast(tmp_path, monkeypatch, subcommand, text):
    # data that overflow the first Newton step (f = 1e300, or f and grad_tol
    # scaled by lambda^(p-1) = 1e300 or 1e-300) must end in a failure,
    # within seconds: no Newton step, float32 or float64, may run CG to its
    # cap of one iteration per interior node
    capped = []
    real = solver._Workspace._pcg

    def pcg(ws, cg, rtol, floor):
        k, curv = real(ws, cg, rtol, floor)
        capped.append(k >= ws.n_interior)
        return k, curv

    monkeypatch.setattr(solver._Workspace, "_pcg", pcg)
    path = write(tmp_path, "big.ini", text)
    start = time.perf_counter()
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) in (1, 3)
    assert capped and not any(capped)
    assert time.perf_counter() - start < 20.0


def test_solve_constant_boundary_without_source_is_that_constant(tmp_path):
    # f = 0 with constant data c: u = c is the solution, and the start, so
    # the solve stops before any Newton step; the boundary mean missed c by
    # an ulp inside the 2D and 3D balls
    for dim, nodes, c, count in ((1, 33, 0.6, 33), (2, 33, 0.6, 797), (3, 17, 0.1, 2109)):
        text = SOLVE_TINY.replace("f_value = 1.0", "f_value = 0.0").replace(
            "boundary = zero", f"boundary = constant\nboundary_value = {c}").replace(
            "dimension = 1\nnodes = 33", f"dimension = {dim}\nnodes = {nodes}")
        out = tmp_path / f"out{dim}"
        path = write(tmp_path, f"solve{dim}.ini", text)
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        values = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, -1]
        assert len(values) == count and (values == c).all(), (dim, nodes)
        with open(out / "solve_report.csv", newline="") as fh:
            report = list(csv.DictReader(fh.readlines()[1:]))[0]
        assert report["reason"] == "converged" and report["iterations"] == "0"


def test_main_leaves_no_argparse_garbage(tmp_path):
    # one parser serves every call: a parser built per call left its
    # actions, groups and help formatters in reference cycles, 17 argparse
    # objects a call that only the garbage collector frees
    def argparse_objects():
        return sum(type(obj).__module__ == "argparse" for obj in gc.get_objects())

    path = write(tmp_path, "solve.ini", SOLVE_TINY)
    gc.collect()
    before = argparse_objects()
    gc.disable()
    try:
        for _ in range(3):
            assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert argparse_objects() == before
        assert isinstance(cli._PARSER, argparse.ArgumentParser)
    finally:
        gc.enable()


@pytest.mark.parametrize("subcommand", sorted(EVERY_CSV))
def test_seed_not_u64_exit_2(tmp_path, no_work, capsys, subcommand):
    # rejected with the arguments, before the config is read or any output made
    path = write(tmp_path, "run.ini", EVERY_CSV[subcommand][0])
    for seed in ("-1", str(2**64)):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--config", path, "--seed", seed, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument --seed: expected a u64, got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_lemmas_micro_passes_and_is_deterministic(tmp_path):
    path = write(tmp_path, "lem.ini", LEMMAS_MICRO)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify-lemmas", "--config", path, "--seed", "9", "--out", str(out_a)]) == 0
    assert main(["verify-lemmas", "--config", path, "--seed", "9", "--out", str(out_b)]) == 0
    for name in ("barrier_checks.csv", "min_eig_samples.csv", "pair_samples.csv",
                 "zt_samples.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # the barrier detail names the worst violation - tolerance and its (p, N)
    assert read_summary(out_a)["barrier_supersolution"][1] \
        == "2 (p, N) cases, worst margin -1.612e+01 at p=3 N=1"
    # a different seed changes the sampled rows
    out_c = tmp_path / "c"
    assert main(["verify-lemmas", "--config", path, "--seed", "10", "--out", str(out_c)]) == 0
    assert (out_a / "min_eig_samples.csv").read_bytes() \
        != (out_c / "min_eig_samples.csv").read_bytes()
    # at claims_N = 1 some first pair draws fail, so the claims stack takes
    # several rounds of draws
    path = write(tmp_path, "claims.ini", "[lemmas]\nrun_barrier = false\nrun_min_eig = false\n"
                                         "run_pair = false\nrun_zt = false\nclaims_N = 1\n")
    outs = [tmp_path / "claims_a", tmp_path / "claims_b"]
    for out in outs:
        assert main(["verify-lemmas", "--config", path, "--seed", "1", "--out", str(out)]) == 1
    for name in ("claims_ratios.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_verify_lemmas_barrier_detail_names_nan_case(tmp_path, monkeypatch):
    # a NaN margin compares false both ways, so max alone keeps it only when
    # it comes first; the failed check must name it wherever it is
    nan_rows = [[2.5, 1, 33, 1.0, -6.8, 0.1, True], [3.0, 3, 33, 1.0, np.nan, 0.1, False],
                [6.0, 2, 33, 1.0, -1.0, 0.0, True]]
    monkeypatch.setattr(cli, "barrier_rows", lambda *a: (nan_rows, False))
    path = write(tmp_path, "barrier.ini", "[lemmas]\nrun_min_eig = false\nrun_pair = false\n"
                                          "run_zt = false\nrun_claims = false\n")
    assert main(["verify-lemmas", "--config", path, "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert read_summary(tmp_path / "out")["barrier_supersolution"] \
        == ("false", "3 (p, N) cases, worst margin nan at p=3 N=3")


def test_verify_lemmas_names_uncovered_pair_cases(tmp_path):
    # at seed 1 and the default 500 pairs, no 1D lipschitz_large_p draw
    # passes eq_n_epsilon; the summary says so and the check still passes
    path = write(tmp_path, "pair.ini", "[lemmas]\nrun_barrier = false\nrun_min_eig = false\n"
                                       "run_zt = false\nrun_claims = false\n")
    assert main(["verify-lemmas", "--config", path, "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 0
    ok, detail = read_summary(tmp_path / "out")["pair_conclusions"]
    assert ok == "true" and detail.endswith(" uncovered=lipschitz_large_p:N1")


@pytest.mark.parametrize("family, sampler, check, gate", [
    ("min_eig", "min_eig_rows", "min_eig_bound", 1e-9),
    ("pair", "pair_rows", "pair_conclusions", 1e-9),
    ("zt", "zt_rows", "zt_inequality", 1e-12)])
def test_verify_lemmas_gates_decide_at_their_thresholds(tmp_path, monkeypatch, family, sampler,
                                                        check, gate):
    # each sampled gate passes a worst relative slack of exactly -gate and
    # fails one a millionth of it beyond
    runs = "".join(f"run_{other} = {str(other == family).lower()}\n"
                   for other in ("barrier", "min_eig", "pair", "zt", "claims"))
    path = write(tmp_path, "gate.ini", "[lemmas]\n" + runs)
    for worst, code in ((-gate, 0), (-gate * (1.0 + 1e-6), 1)):
        monkeypatch.setattr(cli, sampler, lambda rng, samples, worst=worst: ([], worst))
        out = tmp_path / f"out{code}"
        assert main(["verify-lemmas", "--config", path, "--seed", "1", "--out", str(out)]) == code
        ok, detail = read_summary(out)[check]
        assert ok == ("true" if code == 0 else "false")
        assert detail.startswith(f"worst rel slack {worst:.3e}")


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_verify_lemmas_csvs_match_reference_kernel(tmp_path, monkeypatch):
    # the reference run takes every eigenvalue of the jets and the claims with
    # the reference Jacobi kernel, one matrix at a time: it must give the
    # same exit code, files and summary.csv, and the same draws; the cells
    # derived from eigenvalues may differ only by rounding, 1e-12 in each
    # rel_slack (three orders below the -1e-9 gate) and relatively in each
    # ratio.  The other slack columns enter the verdicts through rel_slack.
    config = str(CONFIGS / "verify_lemmas_small.ini")
    args = ["verify-lemmas", "--config", config, "--seed", "42", "--out"]
    code = main(args + [str(tmp_path / "shipped")])
    calls = []

    def reference_stack(a):
        calls.append(len(a))
        return np.array([jacobi_reference.jacobi_eigh(m)[0] for m in a]).reshape(a.shape[:2])

    monkeypatch.setattr(jets, "jacobi_eigvals", reference_stack)  # claims' spectra too
    assert main(args + [str(tmp_path / "reference")]) == code
    assert calls
    shipped = sorted(p.name for p in (tmp_path / "shipped").glob("*.csv"))
    assert shipped == sorted(p.name for p in (tmp_path / "reference").glob("*.csv"))
    assert {"min_eig_samples.csv", "pair_samples.csv", "claims_ratios.csv"} <= set(shipped)
    assert (tmp_path / "shipped" / "summary.csv").read_bytes() \
        == (tmp_path / "reference" / "summary.csv").read_bytes()
    for name in shipped:
        (header, *ours), (ref_header, *refs) = (_csv_rows(tmp_path / side / name)
                                                for side in ("shipped", "reference"))
        assert header == ref_header and len(ours) == len(refs), name
        for row, ref in zip(ours, refs):
            for column, cell, ref_cell in zip(header, row, ref):
                if cell == ref_cell or column.startswith("slack"):
                    continue
                assert column == "rel_slack" or column.startswith("ratio"), (name, column, row)
                scale = 1.0 if column == "rel_slack" else abs(float(ref_cell))
                assert abs(float(cell) - float(ref_cell)) <= 1e-12 * scale, (name, column, row)


def test_verify_lemmas_csvs_match_reference_samplers(tmp_path, monkeypatch):
    # the stacked eigenvalue-bound sampler and the one-call-per-N barrier check
    # must leave every row unchanged
    config = str(CONFIGS / "verify_lemmas_small.ini")
    args = ["verify-lemmas", "--config", config, "--seed", "42", "--out"]
    code = main(args + [str(tmp_path / "shipped")])
    monkeypatch.setattr(cli, "min_eig_rows", min_eig_reference.min_eig_rows)
    monkeypatch.setattr(cli, "barrier_rows", barrier_reference.barrier_rows)
    assert main(args + [str(tmp_path / "reference")]) == code
    shipped = sorted(p.name for p in (tmp_path / "shipped").glob("*.csv"))
    assert shipped == sorted(p.name for p in (tmp_path / "reference").glob("*.csv"))
    assert {"min_eig_samples.csv", "barrier_checks.csv"} <= set(shipped)
    for name in shipped:
        assert (tmp_path / "shipped" / name).read_bytes() \
            == (tmp_path / "reference" / name).read_bytes(), name


def test_verify_lemmas_claims_failure_exit_1(tmp_path, capsys):
    # the Lipschitz large-p regime cannot keep the ratio1 drift under 4 on
    # absolute scales 1e-1..1e-4 (see the decisions ledger); exit code 1
    cfg = """
[lemmas]
run_barrier = false
run_min_eig = false
run_pair = false
run_zt = false
run_claims = true
claims_scales = 0.1, 0.01, 0.001, 0.0001
"""
    path = write(tmp_path, "claims.ini", cfg)
    code = main(["verify-lemmas", "--config", path, "--seed", "4", "--out",
                 str(tmp_path / "out")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL claims_lipschitz_large_p" in out
    assert "PASS claims_holder_small_p" in out
    assert "PASS claims_holder_large_p" in out
    assert "PASS claims_lipschitz_small_p" in out


def test_convergence_study_small(tmp_path, capsys):
    cfg = """
[problem]
p = 3.0
dimension = 1

[solver]
grad_tol = 1e-8

[convergence]
nodes_list = 17, 33
min_order = 0.8

[output]
plots = true
"""
    path = write(tmp_path, "conv.ini", cfg)
    out = tmp_path / "out"
    assert main(["convergence-study", "--config", path, "--out", str(out)]) == 0
    assert (out / "convergence.csv").exists()
    assert (out / "error_vs_h.svg").read_text().startswith("<svg")
    assert read_summary(out)["errors_decreasing"][1].startswith("errors ['")


def _regularity_summary(tmp_path, max_iters, lambdas):
    path = write(tmp_path, "reg.ini", REGULARITY_33.format(max_iters=max_iters, lambdas=lambdas))
    out = tmp_path / "out"
    code = main(["measure-regularity", "--config", path, "--seed", "0", "--out", str(out)])
    return code, read_summary(out)


def _replace_one_solve(monkeypatch, which, solve):
    """Let `solve` stand in for the regularity sweep's solve_dirichlet on its
    `which`-th call (0-based)."""
    real = regularity.solve_dirichlet
    calls = []

    def patched(prob, cfg):
        calls.append(prob)
        return (solve if len(calls) - 1 == which else real)(prob, cfg)

    monkeypatch.setattr(regularity, "solve_dirichlet", patched)


def test_regularity_reports_unconverged_scaling_solve(tmp_path, monkeypatch):
    # the ten presets are solved first; the scaling solve (call 10) gets one Newton step
    real = regularity.solve_dirichlet
    _replace_one_solve(monkeypatch, 10,
                       lambda prob, cfg: real(prob, dataclasses.replace(cfg, max_iters=1)))
    code, summary = _regularity_summary(tmp_path, 4000, "0.0001")
    assert code == 1
    assert summary["all_solves_converged"] == (
        "false", "10 of 11 solves converged (10 presets + 1 scaling)")


def _flat_unconverged_solve(prob, cfg):
    """A solve stopped before u moved off its flat initial guess."""
    u = ScalarField(prob.grid, np.where(nonexterior_mask(prob.grid), 0.0, np.nan))
    return u, SolveReport(converged=False, reason="max_iters", iterations=cfg.max_iters,
                          inner_iterations=0, backtracks=0, final_energy=0.0,
                          final_grad_sup=float("inf"), float64_reruns=0,
                          mirror_axes=())


def test_regularity_zero_base_ratio_fails_check(tmp_path, monkeypatch):
    # the first preset's solve leaves u flat inside the radius
    _replace_one_solve(monkeypatch, 0, _flat_unconverged_solve)
    code, summary = _regularity_summary(tmp_path, 5, "0.1, 10")
    assert code == 1
    assert summary["scaling_invariance"] == ("false", "base ratio is 0: relative drift undefined")
    assert summary["all_solves_converged"][0] == "false"


def test_measure_regularity_csvs_match_reference_scan(tmp_path, monkeypatch):
    # the one stacked pair scan must leave every measured seminorm unchanged
    path = write(tmp_path, "reg.ini", REGULARITY_33.format(max_iters=1000, lambdas="0.1, 10"))
    args = ["measure-regularity", "--config", path, "--seed", "0", "--out"]
    assert main(args + [str(tmp_path / "shipped")]) == 0
    calls = []

    def reference(axes, vals, exponents):
        calls.append((len(vals), list(exponents)))
        return np.array([[pair_scan_reference.pair_scan_values(axes.T, v, e) for e in exponents]
                         for v in vals])

    monkeypatch.setattr(regularity, "_pair_scan", reference)
    assert main(args + [str(tmp_path / "reference")]) == 0
    assert calls == [(12, [1.0, 0.5])]  # ten presets and two scaling solutions, one scan
    shipped = sorted(p.name for p in (tmp_path / "shipped").glob("*.csv"))
    assert shipped == sorted(p.name for p in (tmp_path / "reference").glob("*.csv"))
    assert "records.csv" in shipped
    for name in shipped:
        assert (tmp_path / "shipped" / name).read_bytes() \
            == (tmp_path / "reference" / name).read_bytes(), name


@pytest.mark.parametrize("dim, nodes", [(2, 17), (3, 9)])
def test_solve_csvs_match_reference_writer(tmp_path, monkeypatch, dim, nodes):
    # the block writer must leave solution.csv, and every other CSV, byte-identical
    text = SOLVE_TINY.replace("dimension = 1", f"dimension = {dim}")
    path = write(tmp_path, "solve.ini", text.replace("nodes = 33", f"nodes = {nodes}"))
    args = ["solve", "--config", path, "--seed", "0", "--out"]
    assert main(args + [str(tmp_path / "shipped")]) == 0
    calls = []

    def reference(out, field):
        calls.append(out)
        field_writer_reference.write_field(out, field)

    monkeypatch.setattr(cli, "write_field", reference)
    assert main(args + [str(tmp_path / "reference")]) == 0
    assert [p.name for p in calls] == ["solution.csv"]
    shipped = sorted(p.name for p in (tmp_path / "shipped").glob("*.csv"))
    assert shipped == sorted(p.name for p in (tmp_path / "reference").glob("*.csv"))
    assert "solution.csv" in shipped
    for name in shipped:
        assert (tmp_path / "shipped" / name).read_bytes() \
            == (tmp_path / "reference" / name).read_bytes(), name


def _bad_regularity_key_exits_2(tmp_path, monkeypatch, capsys, key, bad, message):
    """A bad [regularity] value exits 2 with its file:line, before any solve runs."""
    lines = REGULARITY_33.format(max_iters=1000, lambdas="0.1, 10").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {bad}"
    path = write(tmp_path, "reg.ini", "\n".join(lines) + "\n")
    monkeypatch.setattr(regularity, "solve_dirichlet", None)  # a solve would exit 3
    assert main(["measure-regularity", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}:{lineno}: [regularity] {key}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", ["0.99", "0.9375", "0", "-0.5", "nan"])
def test_regularity_radius_outside_interior_exit_2(tmp_path, monkeypatch, capsys, bad):
    # at n = 33, 1 - 2h = 0.875
    _bad_regularity_key_exits_2(tmp_path, monkeypatch, capsys, "radius", bad,
                                "radius must be in (0, 1 - 2h) = (0, 0.875)")


@pytest.mark.parametrize("key, bad, message", [
    ("radius", "0.05", "fewer than 2 nodes inside radius 0.05"),  # h = 1/16: the centre only
    ("scaling_lambdas", "0.1, 1e200",
     "every lambda^(p-1) must be finite and > 0, got 1e+200 at p = 3.0"),  # overflows
], ids=["radius-one-node", "lambda-power-overflow"])
def test_regularity_value_fails_its_regularity_check_exit_2(tmp_path, monkeypatch, capsys, key,
                                                            bad, message):
    _bad_regularity_key_exits_2(tmp_path, monkeypatch, capsys, key, bad, message)


@pytest.mark.parametrize("bad", ["1.5", "0.5, 1", "0", "nan"])
def test_regularity_gamma_outside_unit_interval_exit_2(tmp_path, monkeypatch, capsys, bad):
    _bad_regularity_key_exits_2(tmp_path, monkeypatch, capsys, "gammas", bad,
                                "every gamma must be in (0, 1)")


@pytest.mark.parametrize("bad, columns", [
    ("0.5, 0.5000001", "['holder_0.5', 'holder_0.5']"),  # two columns of one name
    ("0.25, 0.5, 0.5", "['holder_0.25', 'holder_0.5', 'holder_0.5']"),  # one column dropped
], ids=["near-equal", "repeated"])
def test_regularity_gammas_of_one_column_exit_2(tmp_path, monkeypatch, capsys, bad, columns):
    _bad_regularity_key_exits_2(tmp_path, monkeypatch, capsys, "gammas", bad,
                                f"two gammas share a records.csv column: {columns}")


@pytest.mark.parametrize("bad", ["-1", "0.1, 0", "inf", "nan"])
def test_regularity_lambda_not_positive_finite_exit_2(tmp_path, monkeypatch, capsys, bad):
    # lambda = -1 at p = 3 would re-solve the base problem and pass with drift 0
    _bad_regularity_key_exits_2(tmp_path, monkeypatch, capsys, "scaling_lambdas", bad,
                                "every lambda must be finite and > 0")


def test_console_entry_point_runs():
    # the child imports the package this process imported, also when pytest
    # put src/ on sys.path without PYTHONPATH
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "pseudoplap.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verify-lemmas" in proc.stdout


def test_package_imports_numpy_and_the_standard_library_only():
    package = Path(cli.__file__).resolve().parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] != "numpy"
                        and m.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
