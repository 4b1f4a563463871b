from collections import Counter

import numpy as np
import pytest

import barrier_reference
import min_eig_reference
import pair_reference
from pseudoplap import claims, eig, jets, lemmas
from pseudoplap.lemmas import lipschitz_modulus


@pytest.mark.parametrize("tau", [0.05, 0.2, 0.45])
def test_sampled_lipschitz_modulus_keeps_prime_window_on_unit_interval(tau):
    m = lipschitz_modulus(tau)
    s = np.concatenate([np.logspace(-12, -1, 50), np.linspace(0.1, 0.999, 50)])
    wp = m.omega_prime(s)
    assert (wp >= 0.5).all() and (wp < 1.0).all()
    assert m.s0 > 1.0


@pytest.fixture
def work(monkeypatch):
    """Counters for the jets built, the block squeezes tested and the
    eigenvalue stacks.

    Every jet's matrices are built by jets._stack_matrices, and each call
    records the number of jets it stacks; each squeeze test records the
    bytes of every pair it tested, so a pair tested twice shows as a repeat;
    each jacobi_eigvals call of jets, or of eig.spectral_norms, records its
    stack's size.
    """
    counts = {"jets": [], "tested": [], "stacks": []}
    stack, squeeze, eigvals = jets._stack_matrices, jets._pair_squeeze_checks, jets.jacobi_eigvals

    def counted_stack(stacked_jets):
        counts["jets"].append(len(stacked_jets))
        return stack(stacked_jets)

    def counted_squeeze(X, st):
        counts["tested"] += [Xk.tobytes() for Xk in X]
        return squeeze(X, st)

    def counted_eigvals(a):
        counts["stacks"].append(len(a))
        return eigvals(a)

    monkeypatch.setattr(jets, "_stack_matrices", counted_stack)
    monkeypatch.setattr(jets, "_pair_squeeze_checks", counted_squeeze)
    monkeypatch.setattr(jets, "jacobi_eigvals", counted_eigvals)
    monkeypatch.setattr(eig, "jacobi_eigvals", counted_eigvals)
    return counts


def count_calls(monkeypatch, module, name):
    """Patch module.name with a wrapper that counts its calls; returns the count list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_each_pair_tested_once(work):
    assert work["tested"]
    assert len(set(work["tested"])) == len(work["tested"])


@pytest.fixture
def pair_rounds(monkeypatch):
    """The x of every jet whose pair each stacked squeeze test saw, one list per call."""
    rounds = []
    checks = jets._pair_squeeze_checks

    def counted(X, st):
        rounds.append([x.tobytes() for x in st.jets.x])
        return checks(X, st)

    monkeypatch.setattr(jets, "_pair_squeeze_checks", counted)
    return rounds


def test_pair_rows_screen_then_one_test_per_round(work, monkeypatch, pair_rounds):
    draws = count_calls(monkeypatch, lemmas, "regime_params")  # one per draw
    directions = count_calls(monkeypatch, jets, "_direction")  # one per S drawn
    stacked = work["jets"]
    rows, _ = lemmas.pair_rows(np.random.default_rng(3), 16)
    assert len(rows) == 16 < len(draws)  # some draws fail the screen
    # only the draws that pass the screen are built, each once, one stack per
    # block and N; each S drawn is tested once
    assert sum(stacked) == len(rows)
    assert len(directions) == sum(map(len, pair_rounds)) == len(work["tested"])
    assert_each_pair_tested_once(work)
    # every eigenvalue is taken on a stack: |H1| and |Htilde| and the two
    # conclusions of each jet stack, |S| and both squeeze sides of each round;
    # the claims sweep takes its eigenvalues on stacks too
    assert not {"jacobi_eigh", "spectral_norm"} & (set(vars(jets)) | set(vars(claims)))
    assert Counter(work["stacks"]) \
        == Counter(4 * stacked) + Counter(3 * [len(tested) for tested in pair_rounds])
    # a stack's first round tests every jet; each later round tests, once
    # each, the jets the round before did not accept
    seen = set()
    for k, tested in enumerate(pair_rounds):
        assert len(set(tested)) == len(tested)
        if seen.isdisjoint(tested):
            seen.update(tested)
        else:
            assert set(tested) <= set(pair_rounds[k - 1])
    assert len(seen) == len(rows)
    assert len(pair_rounds) > len(stacked)  # some pair was drawn again


def test_pair_rows_redraw_only_rejected(monkeypatch):
    # with S = 0 every pair is the unperturbed point, which passes every
    # test, and no S consumes the rng; a stub then rejects the first pair of
    # the jets with M > 25, and only those draw again
    monkeypatch.setattr(jets, "_direction", lambda rng, n: np.zeros((n, n)))
    want, _ = lemmas.pair_rows(np.random.default_rng(6), 40)
    checks = jets._pair_squeeze_checks
    rounds = []
    rejected = set()

    def stub(X, st):
        ok, margins, norm_sum = checks(X, st)
        assert ok.all()
        keys = [x.tobytes() for x in st.jets.x]
        first = np.array([M > 25.0 and key not in rejected for M, key in zip(st.jets.M, keys)])
        rejected.update(key for key, f in zip(keys, first) if f)
        rounds.append((keys, first))
        return ok & ~first, margins, norm_sum

    monkeypatch.setattr(jets, "_pair_squeeze_checks", stub)
    rows, _ = lemmas.pair_rows(np.random.default_rng(6), 40)
    assert rows == want  # the same rows, in draw order
    assert 0 < len(rejected) < len(rows)
    tests = Counter(key for keys, _ in rounds for key in keys)
    assert len(tests) == len(rows)
    assert all(n == 1 + (key in rejected) for key, n in tests.items())
    # the round after one that rejects tests exactly the rejected jets, in order
    for (keys, first), (later, _) in zip(rounds, rounds[1:]):
        if first.any():
            assert later == [key for key, f in zip(keys, first) if f]


def test_pair_rows_raise_when_no_pair_passes(monkeypatch):
    monkeypatch.setattr(jets, "_pair_squeeze_checks", lambda X, st: (
        np.zeros(len(st.jets), dtype=bool), None, np.zeros(len(st.jets))))
    with pytest.raises(RuntimeError, match="no feasible pair in 100 attempts"):
        lemmas.pair_rows(np.random.default_rng(3), 16)


@pytest.mark.parametrize("seed", [1, 5, 7002])
def test_pair_rows_match_scalar_reference(monkeypatch, seed):
    rows, worst = lemmas.pair_rows(np.random.default_rng(seed), 120)
    monkeypatch.setattr(lemmas, "feasible_pair_conclusions",
                        pair_reference.feasible_pair_conclusions)
    assert (rows, worst) == lemmas.pair_rows(np.random.default_rng(seed), 120)


def test_uncovered_pairs_at_seed_1():
    # verify-lemmas' pair stream at seed 1 and the default 500 samples: in
    # 1D no lipschitz_large_p draw passes eq_n_epsilon
    rng = np.random.default_rng(np.random.SeedSequence(1).spawn(4)[1])
    rows, _ = lemmas.pair_rows(rng, 500)
    assert lemmas.uncovered_pairs(rows) == ["lipschitz_large_p:N1"]
    assert lemmas.uncovered_pairs([]) == [f"{regime}:N{N}" for regime in claims.REGIMES
                                          for N in (1, 2, 3)]


def screen_blocks(monkeypatch):
    """Patch lemmas.min_eig_checks to record (branch, draws, accepted) of each
    block it screens."""
    blocks = []
    checks = lemmas.min_eig_checks

    def recorded(x, N, p, eps, modulus):
        ok, *terms = checks(x, N, p, eps, modulus)
        blocks.append(("small" if eps is None else "large", len(x), int(ok.sum())))
        return (ok, *terms)

    monkeypatch.setattr(lemmas, "min_eig_checks", recorded)
    return blocks


def test_min_eig_rows_one_jet_per_sample(work, monkeypatch):
    blocks = screen_blocks(monkeypatch)
    stacked = work["jets"]
    rows, _ = lemmas.min_eig_rows(np.random.default_rng(4), 20)
    assert len(rows) == 40 and {row[0] for row in rows} == {"small", "large"}
    # one H per accepted draw, in one stack per N per block, in the order of
    # the block's first accepted draw of that N; a rejected large-branch draw
    # builds no matrices
    want, start = [], 0
    for _, _, accepted in blocks:
        want += Counter(row[2] for row in rows[start:start + accepted]).values()
        start += accepted
    assert stacked == work["stacks"] == want
    assert sum(stacked) == len(rows) < sum(draws for _, draws, _ in blocks)


@pytest.mark.parametrize("seed, samples", [(4, 20), (1, 300), (7, 1)])
def test_min_eig_rows_blocks_stop_at_quota(monkeypatch, seed, samples):
    blocks = screen_blocks(monkeypatch)
    rows, _ = lemmas.min_eig_rows(np.random.default_rng(seed), samples)
    for branch in ("small", "large"):
        done = 0
        for _, draws, accepted in (block for block in blocks if block[0] == branch):
            assert draws == samples - done  # what the quota still lacks, no more
            done += accepted
        assert done == samples == sum(row[0] == branch for row in rows)
    # every small-branch draw passes; some large-branch draw was rejected
    assert [block[0] for block in blocks].count("small") == 1
    if samples > 1:
        assert [block[0] for block in blocks].count("large") > 1


@pytest.mark.parametrize("seed", [1, 4, 7, 101])
@pytest.mark.parametrize("samples", [1, 20])
def test_min_eig_rows_match_serial_reference(seed, samples):
    # with one draw per branch at least one N has no row, so no stack
    rows, worst = lemmas.min_eig_rows(np.random.default_rng(seed), samples)
    want_rows, want_worst = min_eig_reference.min_eig_rows(np.random.default_rng(seed), samples)
    assert rows == want_rows and worst == want_worst
    if samples == 1:
        assert len({row[2] for row in rows}) < 3


def test_barrier_rows_match_per_case_reference():
    p_list, n_list = (2.5, 3.0, 4.0, 5.0, 6.0), (1, 2, 3)
    assert lemmas.barrier_rows(33, p_list, n_list) \
        == barrier_reference.barrier_rows(33, p_list, n_list)


@pytest.mark.parametrize("regime, N", [("holder_large_p", 2), ("lipschitz_small_p", 2),
                                       ("lipschitz_small_p", 1)])
def test_claims_one_stack_per_regime(work, monkeypatch, pair_rounds, regime, N):
    stacked = work["jets"]
    spectra = []

    def counted(fn):
        def counted_fn(*args):
            spectra.append(args[-1].shape)  # the matrix stack, theta_spectra's second argument
            return fn(*args)
        return counted_fn

    for name in ("theta_spectra", "spectral_norms"):
        monkeypatch.setattr(claims, name, counted(getattr(claims, name)))
    rows, _, _ = lemmas.claims_rows(np.random.default_rng(5), regime, N, 10.0, [1e-2, 1e-3])
    # the sweep's ten checks are one stack of jets, built once; each pair is
    # tested once, and the claims' two spectra are taken on the whole stack
    assert len(rows) == 10 and stacked == [10]
    assert_each_pair_tested_once(work)
    assert spectra == [(10, N, N)] * 2
    assert not {"build_jet_matrices", "feasible_pair_sample"} & set(vars(claims))
    # at N = 2 every first draw is feasible; at N = 1 some jets draw again
    assert len(pair_rounds[0]) == 10
    assert (len(pair_rounds) > 1) == (N == 1)


@pytest.mark.parametrize("samples", [1, 7, 1000])
def test_zt_rows_one_stacked_check(monkeypatch, samples):
    calls = count_calls(monkeypatch, lemmas, "zt_check")
    rows, worst = lemmas.zt_rows(np.random.default_rng(samples), samples)
    assert len(rows) == samples and len(calls) == 1
    assert {row[1] for row in rows} <= {1, 2, 3}
    if samples == 1000:
        assert {row[1] for row in rows} == {1, 2, 3}
    # cells are Python floats and ints, so write_csv formats them as before
    assert all(list(map(type, row)) == [float, int, float, float, float] for row in rows)
    assert worst == min(row[-1] for row in rows) >= -1e-12


def test_zt_rows_equal_one_row_checks(monkeypatch):
    # the draws of each row, checked one row at a time by the unpadded one-sample call
    stacked, worst = lemmas.zt_rows(np.random.default_rng(3), 300)
    check = claims.zt_check

    def one_row_checks(Z, T, theta, p):
        return np.array([check(z[None, :n], t[None, :n], th, pk)[0] for z, t, th, pk, n in
                         zip(Z, T, theta.tolist(), p.tolist(), (Z != 0).sum(axis=1))])

    monkeypatch.setattr(lemmas, "zt_check", one_row_checks)
    assert repr(lemmas.zt_rows(np.random.default_rng(3), 300)) == repr((stacked, worst))
