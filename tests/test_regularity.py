import tracemalloc

import numpy as np
import pytest

import pair_scan_reference as reference
from pseudoplap import regularity
from pseudoplap.grid import GridSpec, ScalarField, interior_mask
from pseudoplap.manufactured import closed_form_1d, constant_field, sweep_presets
from pseudoplap.manufactured import zero_boundary
from pseudoplap.regularity import (
    ExperimentRecord,
    estimate_constant,
    holder_seminorm,
    lipschitz_seminorm,
    preset_sweep,
    records_to_csv,
    seminorms,
)
from pseudoplap.solver import EnergyProblem, SolveConfig, solve_dirichlet


def test_lipschitz_on_affine():
    g = GridSpec(2, 33)
    grad = np.array([0.8, -0.3])
    u = ScalarField.from_function(g, lambda pts: pts @ grad)
    semi = lipschitz_seminorm(u, 0.5)
    assert max(abs(grad)) - 1e-12 <= semi <= np.linalg.norm(grad) + 1e-12


def test_seminorms_vanish_on_constants():
    g = GridSpec(2, 33)
    u = ScalarField.from_function(g, lambda pts: np.full(len(pts), 4.2))
    assert lipschitz_seminorm(u, 0.5) == 0.0
    assert holder_seminorm(u, 0.5, 0.5) == 0.0


def test_lipschitz_closed_form_derivative():
    g = GridSpec(1, 257)
    u_fn, du_fn = closed_form_1d(3.0, 1.0)
    u = ScalarField.from_function(g, lambda pts: u_fn(pts[:, 0]))
    semi = lipschitz_seminorm(u, 0.5)
    assert abs(semi - 1.0) <= 5.0 * g.spacing  # max |u'| on [-1/2, 1/2] = sqrt(2 * 0.5)


def test_holder_monotone_in_gamma():
    g = GridSpec(2, 33)
    rng = np.random.default_rng(0)
    u = ScalarField.from_function(g, lambda pts: np.sin(3 * pts[:, 0]) + pts[:, 1] ** 2)
    vals = [holder_seminorm(u, 0.4, gam) for gam in (0.3, 0.6, 0.9)]
    assert vals[0] <= vals[1] <= vals[2]  # pair distances stay below 1 for r = 0.4


def test_per_pair_quotient_identity():
    g = GridSpec(2, 17)
    rng = np.random.default_rng(1)
    u = ScalarField.from_function(g, lambda pts: rng.standard_normal(len(pts)))
    index, axes = regularity.scan_nodes(g, 0.4)
    pts, vals = axes.T, u.values[index]
    gamma = 0.6
    for i in range(0, len(pts), 7):
        for j in range(i + 1, len(pts), 11):
            d = np.linalg.norm(pts[i] - pts[j])
            lip_q = abs(vals[i] - vals[j]) / d
            hol_q = abs(vals[i] - vals[j]) / d**gamma
            assert lip_q == pytest.approx(hol_q * d ** (gamma - 1.0), rel=1e-12)


def test_seminorm_monotone_in_radius():
    g = GridSpec(2, 33)
    u = ScalarField.from_function(g, lambda pts: np.cos(2 * pts[:, 0]) * pts[:, 1])
    assert lipschitz_seminorm(u, 0.25) <= lipschitz_seminorm(u, 0.5) + 1e-15
    assert holder_seminorm(u, 0.25, 0.5) <= holder_seminorm(u, 0.5, 0.5) + 1e-15


def test_pair_scan_input_validation():
    g = GridSpec(2, 33)
    u = ScalarField.from_function(g, lambda pts: np.zeros(len(pts)))
    with pytest.raises(ValueError, match="1 - 2h"):
        lipschitz_seminorm(u, 0.99)
    with pytest.raises(ValueError):
        holder_seminorm(u, 0.5, 1.5)


def test_scan_nodes_1d():
    g = GridSpec(1, 17)
    index, axes = regularity.scan_nodes(g, 0.5)
    assert index[0].tolist() == list(range(4, 13))  # lexicographic
    assert np.allclose(axes, [np.linspace(-0.5, 0.5, 9)])


@pytest.mark.parametrize("dim, nodes, shape", [(1, 17, "ball"), (2, 17, "ball"),
                                               (2, 17, "cube"), (3, 17, "cube")])
def test_scan_nodes_monotone_in_r(dim, nodes, shape):
    # up to one ulp below 1 - 2h, each ball holds the smaller ones, and every
    # node it selects is interior
    g = GridSpec(dim, nodes, shape)
    r_max = np.nextafter(1.0 - 2.0 * g.spacing, 0.0)
    balls = [set(zip(*regularity.scan_nodes(g, r)[0])) for r in (0.3, 0.5, r_max)]
    assert balls[0] <= balls[1] <= balls[2]
    assert interior_mask(g)[regularity.scan_nodes(g, r_max)[0]].all()


def test_scan_nodes_disk_count():
    g = GridSpec(2, 65)
    count = regularity.scan_nodes(g, 0.5)[1].shape[1]
    expected = np.pi * 0.25 / g.spacing**2
    assert abs(count - expected) / expected < 0.05


def test_scan_nodes_rejects_bad_radius():
    g = GridSpec(2, 17)
    for r in (0.0, -0.1, 1.0 - 2.0 * g.spacing, 1.0, 1.5):
        with pytest.raises(ValueError, match="radius must be in"):
            regularity.scan_nodes(g, r)


def assert_matches_reference(fields, r, gammas):
    """One stacked scan of the fields, and every one-field entry point on each
    of them, equal the full K x K reference scan bit for bit."""
    exponents = [1.0, *gammas]
    ref = [[reference.pair_scan(u, r, e) for e in exponents] for u in fields]
    index, axes = regularity.scan_nodes(fields[0].grid, r)
    stack = np.array([u.values[index] for u in fields])
    assert regularity._pair_scan(axes, stack, exponents).tolist() == ref
    for u, (lip_ref, *holder_ref) in zip(fields, ref):
        lip, holder = seminorms(u, r, gammas)
        assert [lip, *(holder[g] for g in gammas)] == [lip_ref, *holder_ref]
        assert lipschitz_seminorm(u, r) == lip_ref
        assert [holder_seminorm(u, r, g) for g in gammas] == holder_ref


def test_seminorms_match_reference_on_sweep_presets():
    g = GridSpec(2, 33)
    solutions = [solve_dirichlet(EnergyProblem(g, 3.0, f, zero_boundary), SolveConfig())[0]
                 for _, f in sweep_presets(g, np.random.default_rng(0))]
    assert_matches_reference(solutions, 0.5, [0.5])


def block_rows_cases(K):
    """Rows per block: more than K, exactly K, a count K is no multiple of, and 1."""
    return [K + 3, K, next(b for b in (7, 5, 3) if K % b), 1]


def mixed_stack(g, seed):
    """Three random fields, a smooth one and a constant one, in that order."""
    rng = np.random.default_rng(seed)
    fields = [ScalarField.from_function(g, lambda pts: rng.standard_normal(len(pts)))
              for _ in range(3)]
    fields.append(ScalarField.from_function(g, lambda pts: np.cos(2 * pts[:, 0]) + pts[:, -1]))
    fields.append(ScalarField.from_function(g, lambda pts: np.full(len(pts), -1.5)))
    return fields


# n - 1 = 24 is no power of 2, so the 3D distances depend on the order of the sum
@pytest.mark.parametrize("dim, nodes, r", [(1, 129, 0.6), (2, 33, 0.2), (2, 33, 0.5),
                                           (3, 17, 0.6), (3, 25, 0.4)])
def test_seminorms_match_reference_on_random_fields(monkeypatch, dim, nodes, r):
    g = GridSpec(dim, nodes)
    K = regularity.scan_nodes(g, r)[1].shape[1]
    fields = mixed_stack(g, dim)
    assert_matches_reference(fields, r, [0.1, 0.5, 0.9])
    for rows in block_rows_cases(K):
        monkeypatch.setattr(regularity, "_BLOCK_ELEMENTS", rows * K)
        assert_matches_reference(fields, r, [0.1, 0.5, 0.9])


def test_stacked_scan_computes_each_block_distances_once(monkeypatch):
    # the distances depend only on the grid and r: a 12-field stack, as a
    # sweep scans, computes them once per row block, not once per field
    g = GridSpec(2, 33)
    index, axes = regularity.scan_nodes(g, 0.5)
    K = axes.shape[1]
    stack = np.random.default_rng(5).standard_normal((12, K))
    real, calls = regularity._distances, []

    def counted(axes, lo, hi):
        calls.append((lo, hi))
        return real(axes, lo, hi)

    monkeypatch.setattr(regularity, "_distances", counted)
    for rows in [regularity._BLOCK_ELEMENTS // K, *block_rows_cases(K)]:
        monkeypatch.setattr(regularity, "_BLOCK_ELEMENTS", rows * K)
        calls.clear()
        assert regularity._pair_scan(axes, stack, [1.0, 0.5]).shape == (12, 2)
        assert calls == [(lo, min(lo + rows, K)) for lo in range(0, K, rows)]


def test_stacked_scan_memory_is_the_one_field_scan_and_its_values():
    # a field adds no block temporary: at 2D n = 65 a block is 256 KB, and a
    # 12-field stack peaks above one field only by its (12, K) values and slack
    g = GridSpec(2, 65)
    index, axes = regularity.scan_nodes(g, 0.5)
    stack = np.random.default_rng(3).standard_normal((12, axes.shape[1]))

    def peak(vals):
        tracemalloc.start()
        try:
            regularity._pair_scan(axes, vals, [1.0, 0.5])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(stack[:1].copy())
    assert peak(stack) <= one + stack.nbytes + 16 * 1024


def test_block_distances_keep_axis_order():
    # one flipped rounding rarely moves a max, so pin the distances themselves;
    # n - 1 = 24 makes about 1 in 10 of them depend on the order of the sum
    g = GridSpec(3, 25)
    axes = regularity.scan_nodes(g, 0.6)[1]
    pts = axes.T
    for lo, hi in ((0, 50), (200, 263), (len(pts) - 7, len(pts))):
        full = np.sqrt(((pts[lo:hi, None, :] - pts[None, lo:, :]) ** 2).sum(-1))
        assert np.array_equal(regularity._distances(axes, lo, hi), full)


def test_seminorms_max_pair_in_last_row_block(monkeypatch):
    # one spike on the last scanned node: the max pair joins it to its neighbour
    # at distance h, and both lie in the last row block
    g = GridSpec(2, 33)
    r = 0.5
    index, axes = regularity.scan_nodes(g, r)
    K = axes.shape[1]
    u = ScalarField.from_function(g, lambda pts: np.zeros(len(pts)))
    u.values[tuple(i[-1] for i in index)] = 1.0
    for rows in [None, *block_rows_cases(K)[:3]]:
        if rows is not None:
            monkeypatch.setattr(regularity, "_BLOCK_ELEMENTS", rows * K)
        assert lipschitz_seminorm(u, r) == 1.0 / g.spacing
        assert_matches_reference([u, ScalarField(g, -u.values)], r, [0.3, 0.7])


def test_seminorms_reject_gamma_before_scanning(monkeypatch):
    g = GridSpec(2, 17)
    u = ScalarField.from_function(g, lambda pts: pts[:, 0])
    monkeypatch.setattr(regularity, "_pair_scan", None)  # a scan would raise TypeError
    monkeypatch.setattr(regularity, "solve_dirichlet", None)  # and so would a solve
    for bad in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="gamma must be in"):
            seminorms(u, 0.4, [0.5, bad])
        with pytest.raises(ValueError, match="gamma must be in"):
            preset_sweep(g, 3.0, 0.4, [0.5, bad], [10.0], SolveConfig(),
                         np.random.default_rng(0))
    # two gammas of one records.csv column fail before the first solve, not at write time
    with pytest.raises(ValueError, match="share a records.csv column"):
        preset_sweep(g, 3.0, 0.4, [0.5, 0.5000001], [10.0], SolveConfig(),
                     np.random.default_rng(0))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan, 1e200, 1e-200])
def test_preset_sweep_rejects_lambda_before_solving(monkeypatch, bad):
    # at p = 3, 1e200 ** (p - 1) overflows and 1e-200 ** (p - 1) underflows to 0
    monkeypatch.setattr(regularity, "solve_dirichlet", None)  # a solve would raise TypeError
    with pytest.raises(ValueError, match=r"every lambda(\^\(p-1\))? must be finite and > 0"):
        preset_sweep(GridSpec(2, 17), 3.0, 0.4, [0.5], [10.0, bad], SolveConfig(),
                     np.random.default_rng(0))


def test_estimate_constant_single_and_mixed():
    rec = ExperimentRecord(3.0, 2, 0.5, "a", u_sup=1.0, f_sup=1.0, lip_seminorm=2.0)
    assert estimate_constant([rec]) == pytest.approx(rec.ratio)
    other = ExperimentRecord(4.0, 2, 0.5, "b", u_sup=1.0, f_sup=1.0, lip_seminorm=2.0)
    with pytest.raises(ValueError, match="mix"):
        estimate_constant([rec, other])
    with pytest.raises(ValueError):
        estimate_constant([])


def test_estimate_constant_takes_the_largest_ratio():
    # distinct ratios 2/3, 2 and 1: the constant is the largest, wherever it is
    recs = [ExperimentRecord(3.0, 2, 0.5, label, u_sup=1.0, f_sup=4.0, lip_seminorm=lip)
            for label, lip in (("a", 2.0), ("b", 6.0), ("c", 3.0))]
    assert [rec.ratio for rec in recs] == [2.0 / 3.0, 2.0, 1.0]
    assert estimate_constant(recs) == 2.0
    assert estimate_constant(recs[::-1]) == 2.0


def test_scaled_records_share_ratio():
    g = GridSpec(2, 33)
    p, r = 3.0, 0.5
    f = constant_field(g, 1.0)
    cfg = SolveConfig(grad_tol=1e-8)
    u, _ = solve_dirichlet(EnergyProblem(g, p, f, zero_boundary), cfg)
    recs = []
    for lam in (1.0, 0.5, 4.0):
        f_l = ScalarField(g, lam ** (p - 1.0) * f.values)
        cfg_l = SolveConfig(grad_tol=1e-8 * lam ** (p - 1.0))
        u_l, _ = solve_dirichlet(EnergyProblem(g, p, f_l, zero_boundary), cfg_l)
        recs.append(ExperimentRecord(
            p, 2, r, f"lam{lam}", u_sup=u_l.sup_norm(),
            f_sup=f_l.sup_norm("interior"),
            lip_seminorm=lipschitz_seminorm(u_l, r)))
    ratios = [rec.ratio for rec in recs]
    assert max(ratios) - min(ratios) <= 1e-8 * max(ratios)
    assert estimate_constant(recs) == pytest.approx(max(ratios))


def test_record_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        ExperimentRecord(3.0, 2, 0.5, "bad", u_sup=np.inf, f_sup=1.0, lip_seminorm=1.0)
    recs = [ExperimentRecord(3.0, 2, 0.5, "a", 1.0, 1.0, 2.0, {0.5: 1.5}),
            ExperimentRecord(3.0, 2, 0.5, "b", 2.0, 0.5, 1.0, {0.5: 0.7})]
    path = tmp_path / "records.csv"
    records_to_csv(path, recs, "deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# tool=pseudoplap-") and "deadbeef" in lines[0]
    assert lines[1] == "p,N,r,f_label,u_sup,f_sup,lip_seminorm,ratio,holder_0.5"
    assert len(lines) == 4


def test_records_to_csv_rejects_gammas_of_one_column(tmp_path):
    # 0.5 and 0.5000001 both format as holder_0.5: no CSV with a repeated column is written
    recs = [ExperimentRecord(3.0, 2, 0.5, "a", 1.0, 1.0, 2.0, {0.5: 1.5, 0.5000001: 1.4})]
    path = tmp_path / "records.csv"
    with pytest.raises(ValueError, match="share a records.csv column"):
        records_to_csv(path, recs)
    assert not path.exists()
