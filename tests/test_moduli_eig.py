import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobi_reference
from pseudoplap import claims, eig, jets, lemmas
from pseudoplap.eig import (jacobi_eigh, jacobi_eigvals, spectral_norm, spectral_norms,
                            vector_norm)
from pseudoplap.jets import jet_scalars
from pseudoplap.moduli import HolderModulus, LipschitzModulus, ModulusMix


@given(st.floats(1e-6, 1.0 - 1e-9), st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_holder_modulus_shape(s, gamma):
    m = HolderModulus(gamma)
    assert m.omega_prime(s) > 0.0
    assert m.omega_second(s) < 0.0


@given(st.floats(0.05, 0.6), st.floats(1e-4, 0.999))
@settings(max_examples=200, deadline=None)
def test_lipschitz_modulus_shape(tau, frac):
    m = LipschitzModulus(tau, 0.5 / (1.0 + tau))
    assert m.s0 > 1.0
    s = frac * min(m.s0, 1.0)
    assert m.omega_prime(s) > 0.0
    assert m.omega_second(s) < 0.0


def test_lipschitz_requires_s0_above_one():
    # s0 = 1 exactly at omega0 = 0.8; an array parameter fails on any entry
    for tau, omega0 in [(0.25, 1.5), (0.25, 0.8),
                        (np.array([0.25, 0.25]), np.array([0.79, 0.8]))]:
        with pytest.raises(ValueError, match="s0"):
            LipschitzModulus(tau, omega0)


def test_lipschitz_prime_window():
    m = LipschitzModulus(0.25, 0.5)
    delta = (0.5 / (m.omega0 * (1.0 + m.tau))) ** (1.0 / m.tau)  # delta^tau omega0 (1+tau) = 1/2
    for s in np.linspace(1e-6, delta * 0.999, 50):
        assert 0.5 <= m.omega_prime(s) < 1.0


_DOMAIN_MODULI = {
    "holder": (HolderModulus(0.5), 1),
    "lipschitz": (LipschitzModulus(0.25, 0.79), 1),  # s0 ~ 1.05
    "mix": (ModulusMix(HolderModulus(np.array([0.5, 0.5])),
                       LipschitzModulus(np.array([0.25, 0.25]), np.array([0.79, 0.79])),
                       np.array([False, True])), 2),
}


@pytest.mark.parametrize("family", list(_DOMAIN_MODULI))
def test_jet_domain_is_the_unit_ball(family):
    """jet_scalars takes 0 < |x| < 1 whatever the modulus: a Lipschitz
    modulus valid past 1 widens nothing, and |x| = 1 is rejected as such."""
    modulus, S = _DOMAIN_MODULI[family]

    def jets_at(r):
        x = np.zeros((S, 2))
        x[:, 0] = r
        return jet_scalars(x, None, 2.0, 3.0, None, modulus)

    assert (jets_at(1.0 - 1e-12).s < 1.0).all()
    with pytest.raises(ValueError, match="must be < 1"):
        jets_at(1.0)
    with pytest.raises(ValueError, match="nonzero"):
        jets_at(0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_jacobi_matches_numpy(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = jacobi_eigh(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-12 * max(1.0, np.abs(w_ref).max()))
        assert np.allclose(a @ v, v @ np.diag(w), atol=1e-10 * max(1.0, np.abs(w).max()))


def test_jacobi_extreme_scales():
    a = np.diag([1e-30, 1e30]) + np.array([[0.0, 1e-5], [1e-5, 0.0]])
    w, _ = jacobi_eigh(a)
    assert np.allclose(w, np.linalg.eigvalsh(a), rtol=1e-12)


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_symmetry_check_is_absolute():
    # a relative asymmetry of 1e-6 is far above the 1e-12 tolerance
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigh(np.array([[1.0, 1.0], [1.0 + 1e-6, 1.0]]))
    jacobi_eigh(np.array([[1.0, 1.0], [1.0 + 1e-13, 1.0]]))


def test_jacobi_rejects_norm_overflow():
    # every entry is finite, but the Frobenius norm is not: the stop target
    # would be inf, and the kernel would return w = [0, 0] unrotated
    with pytest.raises(FloatingPointError, match="norm overflows"), np.errstate(over="ignore"):
        jacobi_eigh(np.array([[0.0, 1e200], [1e200, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_jacobi_rejects_non_finite(bad):
    a = np.eye(3)
    a[1, 2] = a[2, 1] = bad
    # not a ValueError: the samplers skip a draw on ValueError, and must not skip this
    with pytest.raises(FloatingPointError, match="non-finite") as info:
        jacobi_eigh(a)
    assert not isinstance(info.value, ValueError)


# sqrt(|A|_F^2 - sum a_ii^2) cancels to 0 here: a stop test that takes the
# off-diagonal norm that way returns this matrix unrotated
CANCELLING = np.array([[0.0, 1.0, 0.0], [1.0, 1e110, 1e100], [0.0, 1e100, 1e110]])


def test_jacobi_off_diagonal_norm_does_not_cancel():
    w, V = jacobi_eigh(CANCELLING)
    norm = np.linalg.norm(CANCELLING)
    assert np.abs(w - np.linalg.eigvalsh(CANCELLING)).max() <= 1e-13 * norm
    assert np.abs(CANCELLING @ V - V * w).max() <= 1e-13 * norm


def _reference_cases():
    rng = np.random.default_rng(2024)
    for n in range(1, 7):
        for _ in range(30):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 6)
            yield a + a.T
        yield np.diag(rng.standard_normal(n))
        yield np.zeros((n, n))
    # the underflow branch, entered by |a_01| <= 1e-300 and by |a_01| < 1e-200 |a_11 - a_00|
    yield np.array([[0.0, 1e-301, 1.0], [1e-301, 1.0, 2.0], [1.0, 2.0, 3.0]])
    # and by a_01 = 0 with a_00 = a_11, where theta would be 0/0
    yield np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    yield np.array([[0.0, 1e-60, 1e145], [1e-60, 1e150, 0.0], [1e145, 0.0, 0.0]])
    # |theta_01| = 5e109 > 1e100, while a_02 keeps the sweep going: the t ~ 1/(2 theta) branch
    yield np.array([[0.0, 1.0, 1e105], [1.0, 1e110, 0.0], [1e105, 0.0, 0.0]])
    yield CANCELLING


def _within_reference(w, a):
    """w is within 1e-13 |A|_F of the reference's eigenvalues of a.  The
    reference stops once its off-diagonal norm is at most 1e-13 |A|_F, and by
    Weyl's theorem that bounds the distance of its diagonal to the spectrum;
    LAPACK's eigenvalues are within about n eps |A|_2 of it."""
    w_ref = jacobi_reference.jacobi_eigh(a)[0]
    return np.abs(w - w_ref).max() <= 1e-13 * np.linalg.norm(0.5 * (a + a.T))


def test_jacobi_eigh_matches_reference():
    for a in _reference_cases():
        w, V = jacobi_eigh(a)
        A = 0.5 * (a + a.T)
        norm = np.linalg.norm(A)
        assert _within_reference(w, a), a
        assert (np.diff(w) >= 0.0).all(), a
        assert np.abs(A @ V - V * w).max() <= 1e-13 * norm, a
        assert np.abs(V.T @ V - np.eye(len(a))).max() <= 1e-13, a


# nearly diagonal, with nearly equal diagonal entries: the reference stops
# before its first rotation
FINISHED = (np.array([[1.0, 1e-14], [1e-14, 1.0]]),
            np.array([[2.0, 1e-14, 0.0], [1e-14, 2.0, 3e-14], [0.0, 3e-14, 2.0]]))


def test_jacobi_eigvals_is_stack_independent():
    # one stack per size, mixing random, diagonal, zero, FINISHED and the
    # reference's branch cases: whole, in chunks of 7 and one matrix at a
    # time, a member's eigenvalues are the same bit for bit, and each is
    # within the reference's stop target of the reference's
    by_size = {}
    for a in (*_reference_cases(), *FINISHED):
        by_size.setdefault(len(a), []).append(a)
    assert sorted(by_size) == [1, 2, 3, 4, 5, 6]
    for stack in by_size.values():
        assert len(stack) > 7
        whole = jacobi_eigvals(np.array(stack))
        assert whole.shape == (len(stack), len(stack[0]))
        for size in (7, 1):
            chunked = np.concatenate([jacobi_eigvals(np.array(stack[i:i + size]))
                                      for i in range(0, len(stack), size)])
            assert np.array_equal(chunked, whole)
            assert np.array_equal(np.signbit(chunked), np.signbit(whole))
        for a, wk in zip(stack, whole):
            assert _within_reference(wk, a), a


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jacobi_eigvals_rejects_non_finite_member(bad):
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = stack[2, 1, 0] = bad
    with pytest.raises(FloatingPointError, match="non-finite") as info:
        jacobi_eigvals(stack)
    assert not isinstance(info.value, ValueError)


def test_jacobi_eigvals_rejects_norm_overflow():
    stack = np.stack([np.eye(2), np.array([[0.0, 1e200], [1e200, 0.0]])])
    with pytest.raises(FloatingPointError, match="norm overflows"), np.errstate(over="ignore"):
        jacobi_eigvals(stack)


def test_jacobi_eigvals_rejects_asymmetric_member():
    stack = np.stack([np.eye(2), np.array([[1.0, 1.0], [1.0 + 1e-6, 1.0]]), np.eye(2)])
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigvals(stack)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 2), (1, 0, 0), (2, 2, 2, 2)])
def test_jacobi_eigvals_rejects_non_stack(shape):
    with pytest.raises(ValueError, match="stack of square matrices"):
        jacobi_eigvals(np.zeros(shape))


@pytest.mark.parametrize("fn", [jacobi_eigh, spectral_norm])
def test_one_matrix_calls_reject_empty_matrix(fn):
    with pytest.raises(ValueError, match="expected a square matrix"):
        fn(np.zeros((0, 0)))


def test_jacobi_eigvals_empty_stack():
    w = jacobi_eigvals(np.zeros((0, 3, 3)))
    assert w.shape == (0, 3) and w.dtype == float


def test_spectral_norm():
    a = np.diag([3.0, -7.0, 2.0])
    assert spectral_norm(a) == 7.0


def test_spectral_norms_is_spectral_norm_of_each_matrix():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 3, 3))
    A = A + A.transpose(0, 2, 1)
    assert spectral_norms(A).tolist() == [spectral_norm(a) for a in A]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 36])
def test_vector_norm_is_numpy_norm_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        for _ in range(50):
            v = rng.standard_normal(n) * scale
            assert vector_norm(v).tobytes() == np.linalg.norm(v).tobytes()


def _linalg_norm_calls(module) -> list:
    """Name of the function around each np.linalg.norm call in module's source."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if isinstance(child, ast.Attribute) and child.attr == "norm" \
                    and ast.unparse(child.value) in ("np.linalg", "numpy.linalg", "linalg"):
                found.append(where)
            if isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                found.append(where)  # `from numpy.linalg import norm` would hide the call
            visit(child, inner)

    visit(ast.parse(inspect.getsource(module)), "<module>")
    return found


def test_lemma_modules_take_norms_with_vector_norm():
    # eig.vector_norm is the one norm path of the lemma modules
    calls = {module.__name__: _linalg_norm_calls(module)
             for module in (eig, jets, claims, lemmas)}
    assert calls == {"pseudoplap.eig": [], "pseudoplap.jets": [],
                     "pseudoplap.claims": [], "pseudoplap.lemmas": []}
