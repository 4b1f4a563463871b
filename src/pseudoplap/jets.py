"""Second-order test matrices for the doubling-of-variables regularity argument.

For a modulus w, the radial function g(x) = w(|x|) has Hessian

    H1(x) = (w'' - w'/|x|) (x/|x|) (x/|x|)^t + (w'/|x|) Id,

with eigenvalues w''(|x|) (radial, simple) and w'(|x|)/|x| (tangential).
With iota = 1/(4 M |H1|) the damped matrix Htilde = H1 + 2 iota H1^2 has the
same eigenvectors and admits the closed form

    Htilde = (beta w'' - alpha w'/|x|) (x/|x|)(x/|x|)^t + alpha (w'/|x|) Id,
    alpha = 1 + 2 iota w'/|x| in (1, 3/2],   beta = 1 + 2 iota w'' in [1/2, 1).

In 1D only the radial eigenvalue exists, so |H1| = |w''| and
beta = 1 - 1/(2M); alpha then multiplies no eigenvalue and may exceed 3/2.

The anisotropic weight Theta = diag(|w' x_i / |x||^{(p-2)/2}) produces
H = Theta Htilde Theta, whose smallest eigenvalue is negative at a
quantified scale: min_eig_bound_checks certifies the two-branch bound via
the Rayleigh quotient of an explicit test vector.  feasible_pair_conclusions
draws matrix pairs (X, X) squeezed by the doubling block inequality

    -6 M |H1| I_2N <= diag(X, Y) - (2M+1) I_2N <= M [[Ht, -Ht], [-Ht, Ht]]

and verifies their eigenvalue conclusions.  feasible_pairs gives each jet
of a stack the first feasible pair of its own sequence of draws; the claims
sweep draws its pairs with it too.  Every check works on stacks, one stack of
matrices per N, and takes every eigenvalue with jacobi_eigvals.  The one-jet
names min_eig_bound_check, feasible_pair_sample and pair_conclusions_check
are one-jet calls of the same code.

The squeeze of a pair with Y = X is tested at the size of X, exactly.  With
B = X - (2M+1) Id, the lower side is block-diagonal, so its least eigenvalue
is lambda_min(B) + 6M|H1|.  The orthogonal basis (v, +-v)/sqrt(2) splits the
upper side into -B and 2M Ht - B, so its least eigenvalue is
min(-lambda_max(B), lambda_min(2M Ht - B)).  The eigenvalues of B also give
|X - (2M+1) Id|, so one N x N decomposition serves the lower side, half the
upper side and the norm consequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eig import jacobi_eigvals, vector_norm
from .moduli import Modulus, check_validity

_FEAS_TOL = 1e-10  # relative tolerance of the feasibility eigen-tests


@dataclass(frozen=True)
class RadialJet:
    """The scalars of the jet at x: s = |x|, wp = w'(s), wpp = w''(s), the
    damping iota = 1/(4 M |H1|) and the factors alphaH, betaH of Htilde's
    closed form.  They decide the large branch's preconditions before any
    matrix is built.
    """

    x: np.ndarray
    M: float
    s: float
    wp: float
    wpp: float
    iota: float
    alphaH: float
    betaH: float

    @property
    def N(self) -> int:
        return len(self.x)

    def eq_n_epsilon(self, eps: float) -> bool:
        """Truth of beta w''(s)(1 - N s^{2e}) + alpha N s^{2e} w'(s)/s <= w''(s)/4.

        alphaH and betaH depend on x, M and the modulus, not on p.
        """
        s, n, wp, wpp = self.s, self.N, self.wp, self.wpp
        lhs = self.betaH * wpp * (1.0 - n * s ** (2.0 * eps)) \
            + self.alphaH * n * s ** (2.0 * eps) * wp / s
        return bool(lhs <= wpp / 4.0)


@dataclass(frozen=True)
class JetMatrices(RadialJet):
    """The matrices at x of one jet, with the scalars of its RadialJet."""

    p: float
    H1: np.ndarray
    Htilde: np.ndarray
    Theta: np.ndarray
    H: np.ndarray


def _spectral_norms(A: np.ndarray) -> np.ndarray:
    """The largest absolute eigenvalue of each symmetric matrix of the stack A."""
    return np.abs(jacobi_eigvals(A)).max(axis=1)


def _radial(x: np.ndarray, modulus: Modulus, M: float) -> RadialJet:
    x = np.asarray(x, dtype=float)
    s = float(vector_norm(x))
    check_validity(modulus, s)
    if s >= 1.0:
        raise ValueError(f"|x| = {s} must be < 1")
    wp = float(modulus.omega_prime(s))
    wpp = float(modulus.omega_second(s))
    # |H1|: in 1D only the radial eigenvalue w'' exists
    h1_norm = abs(wpp) if len(x) == 1 else max(abs(wpp), wp / s)
    iota = 1.0 / (4.0 * M * h1_norm)
    alphaH = 1.0 + 2.0 * iota * wp / s
    betaH = 1.0 + 2.0 * iota * wpp
    return RadialJet(x=x, M=M, s=s, wp=wp, wpp=wpp, iota=iota, alphaH=alphaH, betaH=betaH)


def _stack_matrices(jets, ps) -> tuple:
    """H1, Htilde and Theta, each (S, N, N), of S jets of one N at the
    exponents ps; H is Theta @ Htilde @ Theta, taken where it is read.

    Every entry sees the operations of the one-jet formulas in their order,
    and numpy's stacked `@` multiplies each matrix as its 2D `@` does, so
    matrix k is bit for bit the one jet k gives alone.  Theta's diagonal is
    raised to its power one jet at a time: `**` with a scalar exponent takes
    numpy's sqrt at p = 3 and square at p = 6, which pow with an array of
    exponents does not match bit for bit.
    """
    n = jets[0].N
    x = np.array([r.x for r in jets])
    s, wp, wpp, iota = np.array([(r.s, r.wp, r.wpp, r.iota) for r in jets]).T
    unit = x / s[:, None]
    tangential = (wp / s)[:, None, None]
    H1 = (wpp[:, None, None] - tangential) * (unit[:, :, None] * unit[:, None, :]) \
        + tangential * np.eye(n)
    Htilde = H1 + (2.0 * iota)[:, None, None] * (H1 @ H1)
    Theta = np.zeros_like(H1)
    Theta.reshape(len(jets), n * n)[:, ::n + 1] = [
        np.abs(r.wp * r.x / r.s) ** ((p - 2.0) / 2.0) for r, p in zip(jets, ps)]
    return H1, Htilde, Theta


def _assemble(r: RadialJet, p: float) -> JetMatrices:
    """H1, Htilde, Theta and H of the jet whose scalars are r."""
    H1, Htilde, Theta = (m[0] for m in _stack_matrices([r], [p]))
    H = Theta @ Htilde @ Theta
    return JetMatrices(x=r.x, M=r.M, s=r.s, wp=r.wp, wpp=r.wpp, iota=r.iota, alphaH=r.alphaH,
                       betaH=r.betaH, p=p, H1=H1, Htilde=Htilde, Theta=Theta, H=H)


def radial_jet(x, M: float, modulus: Modulus) -> RadialJet:
    """The scalars of the jet at x with the damping iota = 1/(4 M |H1|); raises
    ValueError unless M > 1 and x is nonzero and valid.  No matrix is built."""
    if not M > 1.0:
        raise ValueError(f"M must be > 1, got {M}")
    x = np.asarray(x, dtype=float)
    if vector_norm(x) == 0.0:
        raise ValueError("x must be nonzero")
    return _radial(x, modulus, M)


def build_jet_matrices(x, M: float, p: float, modulus: Modulus) -> JetMatrices:
    """Assemble H1, Htilde, Theta, H at x with the damping iota = 1/(4 M |H1|)."""
    return _assemble(radial_jet(x, M, modulus), p)


def index_set(x, eps: float) -> np.ndarray:
    """Axes i with |x_i| >= |x|^{1+eps}; nonempty whenever N |x|^{2 eps} <= 1."""
    x = np.asarray(x, dtype=float)
    s = float(vector_norm(x))
    if s == 0.0:
        raise ValueError("x must be nonzero")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return np.flatnonzero(np.abs(x) >= s ** (1.0 + eps))


def test_vector(x, p: float, idx=None) -> np.ndarray:
    """The vector sum_{i in idx} |x_i|^{(2-p)/2} x_i e_i; idx defaults to the
    axes with x_i != 0.

    Components with x_i = 0 contribute 0 (continuous extension for p < 4,
    convention at p = 4).
    """
    x = np.asarray(x, dtype=float)
    if idx is None:
        idx = x != 0.0
    w = np.zeros_like(x)
    w[idx] = np.abs(x[idx]) ** ((2.0 - p) / 2.0) * x[idx]
    return w


def _large_branch_axes(r: RadialJet, eps: float) -> np.ndarray:
    """index_set(x, eps), once the large branch's preconditions hold at r: the
    set is nonempty and the damped inequality eq_n_epsilon is true."""
    idx = index_set(r.x, eps)
    if len(idx) == 0:
        raise ValueError("index set is empty")
    if not r.eq_n_epsilon(eps):
        raise ValueError("damped-inequality precondition (eq N-epsilon) fails at this x")
    return idx


@dataclass(frozen=True)
class MinEigTerms:
    """What the eigenvalue bound at one x needs besides H: the jet's scalars r
    (damping 1/(4 |H1|)), p, the test vector w and the bound."""

    r: RadialJet
    p: float
    w: np.ndarray
    bound: float


def min_eig_terms(x, p: float, eps: float | None, modulus: Modulus) -> MinEigTerms:
    """The part of min_eig_bound_check that builds no matrix.

    eps None selects the small branch, which requires p <= 4; a given eps
    selects the large branch, which requires p >= 4.  Raises the
    ValueErrors of the check: p outside its branch, an invalid x, and on the
    large branch an empty index set or a failing damped inequality.
    """
    x = np.asarray(x, dtype=float)
    if eps is None and p > 4.0:
        raise ValueError("small branch (no eps) requires p <= 4")
    if eps is not None and p < 4.0:
        raise ValueError("large branch (eps given) requires p >= 4")
    r = _radial(x, modulus, M=1.0)  # damping 1/(4 |H1|); M plays no role in H's bound
    s, n, wp, wpp = r.s, r.N, r.wp, r.wpp
    if eps is None:
        w = test_vector(x, p)
        bound = n ** (1.0 - p / 2.0) * r.betaH * wpp * wp ** (p - 2.0)
    else:
        idx = _large_branch_axes(r, eps)  # rejects before any matrix is built
        w = test_vector(x, p, idx)  # index-restricted (p = 4 included)
        bound = (1.0 - n * s ** (2.0 * eps)) / len(idx) \
            * wp ** (p - 2.0) * s ** ((p - 4.0) * eps) * wpp / 4.0
    return MinEigTerms(r=r, p=p, w=w, bound=bound)


def min_eig_bound_check(x, p: float, eps: float | None, modulus: Modulus):
    """Certify the negative-eigenvalue bound for H(x) via the Rayleigh quotient.

    Small branch (eps None, p <= 4): lambda_min(H) <= N^{1-p/2} beta w'' (w')^{p-2}.
    Large branch (eps given, p >= 4): requires a nonempty index set and the
    damped inequality checked by JetMatrices.eq_n_epsilon; then
    lambda_min(H) <= (1 - N s^{2e}) / #I * (w')^{p-2} s^{(p-4)e} w''/4.

    Returns (rayleigh, bound, slack) with slack = bound - lambda_min(H): the
    one-jet call of min_eig_bound_checks.
    """
    return min_eig_bound_checks([min_eig_terms(x, p, eps, modulus)])[0]


def _by_n(rs) -> list:
    """The indices of the jets rs grouped by N, in order of first appearance."""
    by_n = {}
    for k, r in enumerate(rs):
        by_n.setdefault(r.N, []).append(k)
    return list(by_n.values())


def min_eig_bound_checks(terms) -> list:
    """min_eig_bound_check's (rayleigh, bound, slack) for each MinEigTerms, in
    order.

    The terms of each N share one stacked H = Theta @ Htilde @ Theta and one
    jacobi_eigvals call; the Rayleigh quotient is taken per matrix.
    """
    out = [None] * len(terms)
    for ks in _by_n([t.r for t in terms]):
        group = [terms[k] for k in ks]
        _, Htilde, Theta = _stack_matrices([t.r for t in group], [t.p for t in group])
        H = Theta @ Htilde @ Theta
        for k, t, Hk, lam_min in zip(ks, group, H, jacobi_eigvals(H)[:, 0]):
            rayleigh = float(t.w @ Hk @ t.w) / float(t.w @ t.w)
            out[k] = (rayleigh, t.bound, t.bound - float(lam_min))
    return out


_PAIR_DRAWS = 100  # draws of S per jet; the unperturbed point (S = 0) is always feasible


def _direction(rng, n: int) -> np.ndarray:
    """A random symmetric n x n matrix, the direction of one pair draw."""
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def feasible_pair_sample(jm: JetMatrices, rng) -> tuple:
    """Random (X, Y) satisfying the doubling block squeeze at jm, by construction + check.

    X = Y = (2M+1) Id - 2M |Htilde| Id + S with a random symmetric S of norm
    at most (M/4) |Htilde|; feasibility (and the norm consequence
    |X-(2M+1)Id| + |Y-(2M+1)Id| <= 6M|H1|) is verified by eigenvalue tests
    before returning, resampling on failure.  The one-jet call of
    feasible_pairs, whose rounds are then one draw each.
    """
    X = feasible_pairs([jm], [jm.p], rng)[1][0]
    return X, X.copy()


@dataclass(frozen=True)
class PairConclusions:
    lambda_all_max: float
    bound_all: float
    slack_all: float
    bound_small: float | None
    slack_small: float | None
    bound_large: float | None
    slack_large: float | None
    norm_sum: float
    bound_norm: float
    slack_norm: float

    def min_relative_slack(self) -> float:
        out = np.inf
        for slack, bound in ((self.slack_all, self.bound_all),
                             (self.slack_small, self.bound_small),
                             (self.slack_large, self.bound_large),
                             (self.slack_norm, self.bound_norm)):
            if slack is None:
                continue
            out = min(out, slack / max(1.0, abs(bound)))
        return float(out)


def _pair_large_axes(r: RadialJet, p: float, eps: float | None):
    """The large branch's axes when p >= 4, None below: raises the ValueErrors
    of the large-branch conclusion (no eps, or a failing precondition)."""
    if p < 4.0:
        return None
    if eps is None:
        raise ValueError("p >= 4 requires eps for the large-branch conclusion")
    return _large_branch_axes(r, eps)


def pair_jet(x, M: float, p: float, modulus: Modulus, eps: float | None = None) -> RadialJet:
    """The scalars of the jet at x, once they pass every test of
    pair_conclusions_check that needs no pair: M > 1, a valid x and, for
    p >= 4, eps and the large branch's preconditions.  Raises ValueError
    otherwise; no matrix is built."""
    r = radial_jet(x, M, modulus)
    _pair_large_axes(r, p, eps)
    return r


def pair_conclusions_check(X: np.ndarray, Y: np.ndarray, jm: JetMatrices,
                           eps: float | None = None) -> PairConclusions:
    """Verify the eigenvalue conclusions for a pair, after testing that it is feasible.

    Checks, with c = 2M+1 and the weighted matrices A = M^{p-2} Theta(.)Theta:
    every eigenvalue of A(X+Y) is at most 2c M^{p-2} |Theta|^2, the smallest
    eigenvalue of A(X+Y-2c Id) obeys the small-branch bound for p <= 4 and
    the large-branch bound for p >= 4 (the latter needs eps and the damped
    inequality), and |X-cId| + |Y-cId| <= 6M|H1|.

    Only pairs with Y = X are tested; another Y raises ValueError.  The
    one-jet call of _pair_squeeze_checks, then _pair_conclusions_checks.
    """
    if not np.array_equal(X, Y):
        raise ValueError("only pairs with Y = X are tested")
    st = _pair_stack([jm], [jm.p])
    X = np.asarray(X, dtype=float)[None]
    ok, details, norm_sum = _pair_squeeze_checks(X, st)
    if not ok[0]:
        margins = tuple(float(d[0]) for d in details)
        raise ValueError(f"pair does not satisfy the block squeeze (eigen margins {margins})")
    return _pair_conclusions_checks(X, st, [eps], norm_sum)[0]


def _conclusions(r: RadialJet, p: float, h1_norm: float, theta_sq: float, eps: float | None,
                 lam_max: float, lam1: float, norm_sum: float) -> PairConclusions:
    """The bounds and slacks of one pair's conclusions at the jet r: lam_max
    is the largest eigenvalue of A(X+Y), lam1 the least of A(X+Y-2c Id)."""
    M, n, s, wp, wpp = r.M, r.N, r.s, r.wp, r.wpp
    c = 2.0 * M + 1.0
    mp2 = M ** (p - 2.0)
    bound_all = 2.0 * c * mp2 * theta_sq
    slack_all = float(bound_all - lam_max)

    bound_small = slack_small = bound_large = slack_large = None
    if p <= 4.0:
        bound_small = 2.0 * M ** (p - 1.0) * n ** ((2.0 - p) / 2.0) * wp ** (p - 2.0) * wpp
        slack_small = bound_small - lam1
    idx = _pair_large_axes(r, p, eps)
    if idx is not None:
        bound_large = M ** (p - 1.0) * (1.0 - n * s ** (2.0 * eps)) / len(idx) \
            * wp ** (p - 2.0) * s ** ((p - 4.0) * eps) * wpp
        slack_large = bound_large - lam1

    bound_norm = 6.0 * M * h1_norm
    return PairConclusions(
        lambda_all_max=lam_max, bound_all=bound_all, slack_all=slack_all,
        bound_small=bound_small, slack_small=slack_small,
        bound_large=bound_large, slack_large=slack_large,
        norm_sum=norm_sum, bound_norm=bound_norm, slack_norm=float(bound_norm - norm_sum),
    )


@dataclass(frozen=True)
class PairStack:
    """S jets of one N at their exponents p, stacked for the pair tests: M,
    p, |H1| and |Htilde| are (S,), Htilde and Theta (S, N, N).  Entry k is bit
    for bit what _assemble(rs[k], p[k]) gives, and spectral_norm of its H1
    and Htilde."""

    rs: tuple
    M: np.ndarray
    p: np.ndarray
    Htilde: np.ndarray
    Theta: np.ndarray
    h1_norm: np.ndarray
    ht_norm: np.ndarray

    def take(self, ks) -> "PairStack":
        """The jets ks of the stack, in that order."""
        return PairStack(tuple(self.rs[k] for k in ks), self.M[ks], self.p[ks],
                         self.Htilde[ks], self.Theta[ks], self.h1_norm[ks], self.ht_norm[ks])

    def theta_norm_sq(self) -> list:
        """|Theta|^2 of each jet: Theta is diagonal with entries >= 0."""
        return [float(np.max(np.diag(theta)) ** 2) for theta in self.Theta]


def _pair_stack(rs, ps) -> PairStack:
    H1, Htilde, Theta = _stack_matrices(rs, ps)
    return PairStack(tuple(rs), np.array([r.M for r in rs]), np.array(ps, dtype=float),
                     Htilde, Theta, _spectral_norms(H1), _spectral_norms(Htilde))


def _pair_points(st: PairStack, S: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The pair point X = (2M+1) Id - 2M |Htilde| Id + S of every jet of st,
    S scaled to norm u (M/4) |Htilde|; a zero S stays unscaled."""
    eye = np.eye(S.shape[1])
    s_norm = _spectral_norms(S)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(s_norm > 0.0, u * (st.M / 4.0) * st.ht_norm / s_norm, 1.0)
    return (2.0 * st.M + 1.0)[:, None, None] * eye \
        - (2.0 * st.M * st.ht_norm)[:, None, None] * eye + S * scale[:, None, None]


def _pair_squeeze_checks(X: np.ndarray, st: PairStack):
    """Both sides of the block squeeze of the pair (X[k], X[k]) at every jet
    k of st, by the N x N tests of the module docstring: (ok, (lower, upper,
    scale), norm_sum) as arrays.  lower and upper are the least eigenvalues
    of the two sides' differences, and norm_sum is |X - cI| + |Y - cI| with
    c = 2M+1, taken from the same eigenvalues."""
    eye = np.eye(X.shape[1])
    B = X - (2.0 * st.M + 1.0)[:, None, None] * eye
    wb = jacobi_eigvals(B)
    b_norm = np.abs(wb).max(axis=1)
    scale = np.maximum(np.maximum(1.0, st.M * st.ht_norm), 6.0 * st.M * st.h1_norm)
    lower = wb[:, 0] + 6.0 * st.M * st.h1_norm
    upper = np.minimum(-wb[:, -1],
                       jacobi_eigvals((2.0 * st.M)[:, None, None] * st.Htilde - B)[:, 0])
    ok = (lower >= -_FEAS_TOL * scale) & (upper >= -_FEAS_TOL * scale)
    return ok, (lower, upper, scale), b_norm + b_norm


def _feasible_pair_points(st: PairStack, rng) -> tuple:
    """The first feasible X of every jet of st, with |X - cI| + |Y - cI| of
    Y = X: (X[S, N, N], norm_sum[S]).

    Each round draws, in stack order, S and its radius factor for every jet
    still pending and tests those pairs as one stack; a jet leaves with its
    first feasible pair, so each jet's pair is the first feasible one of an
    i.i.d. sequence of draws.  Raises RuntimeError when a jet has no
    feasible pair after _PAIR_DRAWS rounds.
    """
    n = st.Htilde.shape[1]
    X = np.empty_like(st.Htilde)
    norm_sum = np.empty(len(st.rs))
    pending = np.arange(len(st.rs))
    for _ in range(_PAIR_DRAWS):
        S = np.empty((len(pending), n, n))
        u = np.zeros(len(pending))
        for i in range(len(pending)):
            S[i] = _direction(rng, n)
            if S[i].any():  # |S| > 0
                u[i] = rng.uniform(0.0, 1.0)
        sub = st.take(pending)
        Xp = _pair_points(sub, S, u)
        ok, _, norms = _pair_squeeze_checks(Xp, sub)
        ok &= norms <= 6.0 * sub.M * sub.h1_norm * (1.0 + 1e-12)
        X[pending[ok]] = Xp[ok]
        norm_sum[pending[ok]] = norms[ok]
        pending = pending[~ok]
        if len(pending) == 0:
            return X, norm_sum
    raise RuntimeError(f"no feasible pair in {_PAIR_DRAWS} attempts; the unperturbed point is "
                       "always feasible, so this indicates a bug")


def _pair_conclusions_checks(X: np.ndarray, st: PairStack, eps, norm_sum) -> list:
    """The conclusions of the pairs (X[k], X[k]) at the jets of st, one
    jacobi_eigvals call per matrix set; eps[k] is jet k's."""
    c = 2.0 * st.M + 1.0
    mp2 = np.array([M ** (p - 2.0) for M, p in zip(st.M.tolist(), st.p.tolist())])
    weighted = mp2[:, None, None] * st.Theta
    sums = X + X
    lam_max = jacobi_eigvals(weighted @ sums @ st.Theta)[:, -1]
    shifted = sums - (2.0 * c)[:, None, None] * np.eye(X.shape[1])
    lam1 = jacobi_eigvals(weighted @ shifted @ st.Theta)[:, 0]
    return [_conclusions(r, p, h1, theta_sq, e, lm, l1, ns)
            for r, p, h1, theta_sq, e, lm, l1, ns in zip(
                st.rs, st.p.tolist(), st.h1_norm.tolist(), st.theta_norm_sq(), eps,
                lam_max.tolist(), lam1.tolist(), norm_sum.tolist())]


def feasible_pairs(rs, ps, rng) -> tuple:
    """The first feasible pair (X, X) of each jet of one N, in order: jet k
    has the scalars rs[k] and exponent ps[k].

    Returns (st, X[S, N, N], norm_sum[S]): the jets' PairStack, their matrices
    and norms taken with jacobi_eigvals, and |X - cI| + |Y - cI| with
    c = 2M+1.  The pairs are drawn in _feasible_pair_points' rounds.  Raises
    RuntimeError when a jet has no feasible pair in _PAIR_DRAWS draws.
    """
    st = _pair_stack(rs, ps)
    return (st, *_feasible_pair_points(st, rng))


def feasible_pair_conclusions(rs, ps, eps, rng) -> list:
    """The conclusions of one feasible pair (X, X) per jet, in order: jet k
    has the scalars rs[k] (from pair_jet), exponent ps[k] and eps[k].

    The jets of each N, in order of first appearance, share one stack:
    feasible_pairs gives each its first feasible pair, and one
    jacobi_eigvals call per matrix set takes the eigenvalues of the
    conclusions.  Raises RuntimeError when a jet has no feasible pair in
    _PAIR_DRAWS draws.
    """
    out = [None] * len(rs)
    for ks in _by_n(rs):
        st, X, norm_sum = feasible_pairs([rs[k] for k in ks], [ps[k] for k in ks], rng)
        for k, rep in zip(ks, _pair_conclusions_checks(X, st, [eps[k] for k in ks], norm_sum)):
            out[k] = rep
    return out
