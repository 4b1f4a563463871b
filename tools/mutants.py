"""Apply one-line mutants to a copy of the repository and run Tier-1 against each.

    python3 tools/mutants.py [--only NAME ...] [--list]

`--list` names the mutants, once each one's old text is found exactly once.

Run from anywhere; it copies the checkout that holds this file (without
.git and build outputs) into a temporary directory, which it removes
afterwards.  It first runs the Tier-1 suite on the unmutated copy and
deselects the tests that fail there (the documented failure), so that a
mutant is KILLED only by a test that passes on the unmutated code.  Then,
one mutant at a time, it replaces the mutant's old text, which must occur
exactly once in its file, by the new text, runs Tier-1 with `-x`, restores
the file, and prints KILLED with the first failing test, or SURVIVED, with
the written reason when the mutant is marked equivalent.

The exit status is 1 when a mutant that is not marked equivalent survives,
2 when a mutant's old text is not found exactly once, and 0 otherwise.
Each run takes about as long as Tier-1 (about 25 s on a shared 2-CPU
machine); survivors take the whole suite.  Standard library only.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str = ""  # why the mutant cannot change a verdict, if it cannot


MUTANTS = (
    # verdicts of the lemma checks and of the regularity sweep
    Mutant("estimate_constant_min", "src/pseudoplap/regularity.py",
           "return max(rec.ratio for rec in records)", "return min(rec.ratio for rec in records)"),
    Mutant("min_eig_gate_1e-3", "src/pseudoplap/cli.py",
           '("min_eig_bound", worst >= -1e-9,', '("min_eig_bound", worst >= -1e-3,'),
    Mutant("pair_gate_1e-3", "src/pseudoplap/cli.py",
           '("pair_conclusions", worst >= -1e-9,', '("pair_conclusions", worst >= -1e-3,'),
    Mutant("zt_gate_1e-3", "src/pseudoplap/cli.py",
           '("zt_inequality", worst >= -1e-12,', '("zt_inequality", worst >= -1e-3,'),
    Mutant("ratio2_cap_slack_1e-3", "src/pseudoplap/claims.py",
           "r.ratio2_cap + 1e-9 * abs(r.ratio2_cap)", "r.ratio2_cap + 1e-3 * abs(r.ratio2_cap)"),
    Mutant("pair_norm_cap_7", "src/pseudoplap/jets.py",
           "ok &= norms <= 6.0 * sub.jets.M", "ok &= norms <= 7.0 * sub.jets.M"),
    Mutant("feasibility_tol_1e-4", "src/pseudoplap/jets.py",
           "_FEAS_TOL = 1e-10", "_FEAS_TOL = 1e-4"),
    Mutant("pair_scan_skips_last_block", "src/pseudoplap/regularity.py",
           "for lo in range(0, K, rows):", "for lo in range(0, K, rows)[:-1]:"),
    # the input checks of eig's LAPACK call
    Mutant("eig_no_finite_check", "src/pseudoplap/eig.py",
           "if not np.isfinite(A).all():", "if False:"),
    Mutant("eig_no_symmetry_check", "src/pseudoplap/eig.py",
           "if not (asym <= 1e-12 * np.maximum(1.0, amax)).all():", "if False:"),
    Mutant("eig_no_norm_check", "src/pseudoplap/eig.py",
           "if not np.isfinite(row_dots(flat, flat)).all():", "if False:"),
    # the solver's certificates
    Mutant("float32_no_r_s_check", "src/pseudoplap/solver.py",
           "s_hs if 0.0 < s_hs < math.inf and 0.0 < r_s < math.inf else None",
           "s_hs if 0.0 < s_hs < math.inf else None"),
    Mutant("float32_no_range_rerun", "src/pseudoplap/solver.py",
           "if not reg * scale * a >= _FLOAT32_TINY:", "if False:"),
    Mutant("exact_1d_no_s_hs_check", "src/pseudoplap/solver.py",
           "if not 0.0 < s_hs < math.inf:", "if False:"),
    # the mirror box's counts in the energy, and H's zeros on the off links
    Mutant("box_energy_no_counts", "src/pseudoplap/solver.py",
           "w *= self.mult[s:]", "pass"),
    Mutant("hessian_off_links_kept", "src/pseudoplap/solver.py",
           "np.copyto(c, 0.0, where=off)", "pass"),
    Mutant("armijo_slack_8e4_eps", "src/pseudoplap/solver.py",
           "slack = 8.0 * _EPS * max(", "slack = 8e4 * _EPS * max("),
    Mutant("stall_test_or", "src/pseudoplap/solver.py",
           "if J_u - J_z <= slack and not sup_z < sup_r:",
           "if J_u - J_z <= slack or not sup_z < sup_r:"),
    Mutant("constant_start_dropped", "src/pseudoplap/solver.py",
           "else bvals[0] if (bvals == bvals[0]).all() else bvals.mean()", "else bvals.mean()"),
    Mutant("cg_floor_2_grad_tol", "src/pseudoplap/solver.py",
           "cg_floor=0.5 * cfg.grad_tol", "cg_floor=2.0 * cfg.grad_tol",
           equivalent="the stop rule sup|r| <= grad_tol is tested on the float64 residual "
                      "whatever CG's floor, so the floor changes only CG and Newton counts"),
    Mutant("armijo_c_0", "src/pseudoplap/solver.py", "ARMIJO_C = 1e-4", "ARMIJO_C = 0.0",
           equivalent="J_z <= J_u + slack still certifies descent to rounding, and full "
                      "Newton steps pass with either c near the solution, so only counts move"),
)


def _copy(dest: Path) -> Path:
    """The checkout without .git and build outputs, copied to dest/repo."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    "out", "*.egg-info", "build")
    return Path(shutil.copytree(ROOT, dest / "repo", ignore=ignore))


def _tier1(repo: Path, extra: list) -> tuple:
    """(passed, failing test ids in order) of one Tier-1 run in repo; a run
    that times out counts as failing, with the id "timeout"."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(TIER1 + extra, cwd=repo, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, ["timeout"]
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    if proc.returncode and not failed:
        failed = [f"exit {proc.returncode}"]
    return proc.returncode == 0, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args()
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.only and len(chosen) != len(set(args.only)):
        ap.error(f"unknown mutant in {args.only}; --list names them")
    for m in chosen:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            print(f"{m.name}: its old text occurs {count} times in {m.path}", file=sys.stderr)
            return 2
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.path}: {m.old!r} -> {m.new!r}")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        repo = _copy(Path(tmp))
        _, baseline = _tier1(repo, [])
        print(f"baseline failures, deselected: {', '.join(baseline) or 'none'}", flush=True)
        deselect = [arg for test in baseline for arg in ("--deselect", test)]
        survivors = 0
        for m in chosen:
            path = repo / m.path
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            try:
                passed, failed = _tier1(repo, ["-x"] + deselect)
            finally:
                path.write_text(text)
            if not passed:
                print(f"KILLED   {m.name}: {failed[0]}", flush=True)
            elif m.equivalent:
                print(f"SURVIVED {m.name} (equivalent because {m.equivalent})", flush=True)
            else:
                survivors += 1
                print(f"SURVIVED {m.name}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
