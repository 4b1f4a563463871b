import numpy as np
import pytest

import barrier_reference
import min_eig_reference
from pseudoplap import claims, jets, lemmas
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
    """Counters for the jets built and the block squeezes tested.

    Every jet's matrices are built by jets._assemble; each feasibility test
    records the bytes of the pair it tested, so a pair tested twice shows as
    a repeat.
    """
    counts = {"jets": 0, "tested": []}
    jet, feasible = jets._assemble, jets._pair_feasible

    def counted_jet(*args, **kwargs):
        counts["jets"] += 1
        return jet(*args, **kwargs)

    def counted_feasible(X, Y, jm):
        counts["tested"].append((X.tobytes(), Y.tobytes()))
        return feasible(X, Y, jm)

    monkeypatch.setattr(jets, "_assemble", counted_jet)
    monkeypatch.setattr(jets, "_pair_feasible", counted_feasible)
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


def test_pair_rows_one_jet_per_attempt(work, monkeypatch):
    attempts = count_calls(monkeypatch, lemmas, "regime_params")  # one per attempt
    rows, _ = lemmas.pair_rows(np.random.default_rng(3), 16)
    assert len(rows) == 16
    assert work["jets"] == len(attempts)
    assert_each_pair_tested_once(work)


def test_min_eig_rows_one_jet_per_sample(work, monkeypatch):
    draws = count_calls(monkeypatch, lemmas, "min_eig_terms")  # one per draw
    stacked = []
    stack = jets._stack_matrices

    def counted_stack(rs, ps):
        stacked.append(len(rs))
        return stack(rs, ps)

    monkeypatch.setattr(jets, "_stack_matrices", counted_stack)
    rows, _ = lemmas.min_eig_rows(np.random.default_rng(4), 20)
    assert len(rows) == 40 and {row[0] for row in rows} == {"small", "large"}
    # one H per accepted draw, in one stack per N; a rejected large-branch
    # draw builds no matrices
    assert work["jets"] == 0
    assert len(stacked) == len({row[2] for row in rows})
    assert sum(stacked) == len(rows) < len(draws)


@pytest.mark.parametrize("seed", [1, 4, 7, 101])
@pytest.mark.parametrize("samples", [1, 20])
def test_min_eig_rows_match_serial_reference(monkeypatch, seed, samples):
    # with one draw per branch at least one N has no row, so no stack; with
    # 20, the 40 rows take six batches of at most 7
    monkeypatch.setattr(lemmas, "_MIN_EIG_BATCH", 7)
    rows, worst = lemmas.min_eig_rows(np.random.default_rng(seed), samples)
    want_rows, want_worst = min_eig_reference.min_eig_rows(np.random.default_rng(seed), samples)
    assert rows == want_rows and worst == want_worst
    if samples == 1:
        assert len({row[2] for row in rows}) < 3


def test_barrier_rows_match_per_case_reference():
    p_list, n_list = (2.5, 3.0, 4.0, 5.0, 6.0), (1, 2, 3)
    assert lemmas.barrier_rows(33, p_list, n_list) \
        == barrier_reference.barrier_rows(33, p_list, n_list)


@pytest.mark.parametrize("regime", ["holder_large_p", "lipschitz_small_p"])
def test_claims_one_jet_per_check(work, monkeypatch, regime):
    checks = count_calls(monkeypatch, claims, "claims_check")
    rows, _, _ = lemmas.claims_rows(np.random.default_rng(5), regime, 2, 10.0, [1e-2, 1e-3])
    assert len(rows) == len(checks) == 10
    assert work["jets"] == len(checks)
    assert_each_pair_tested_once(work)
