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
quantified scale: min_eig_checks certifies the two-branch bound via the
Rayleigh quotient of an explicit test vector.  feasible_pair_conclusions
draws matrix pairs (X, X) squeezed by the doubling block inequality

    -6 M |H1| I_2N <= diag(X, Y) - (2M+1) I_2N <= M [[Ht, -Ht], [-Ht, Ht]]

and verifies their eigenvalue conclusions.  feasible_pairs gives each jet
of a stack the first feasible pair of its own sequence of draws; the claims
sweep draws its pairs with it too.  Every check works on stacks, one stack of
matrices per N, and takes every eigenvalue with jacobi_eigvals.  The names
build_jet_matrices, min_eig_bound_check, feasible_pair_sample and
pair_conclusions_check are one-jet calls of the same code.

A stack of jets is one Jets (jet_scalars), each jet with its own M, p and
eps.  Its scalars decide the large branch's preconditions before any matrix
is built (Jets.large_branch).  A stack may mix N: each row of x is zero past
its own N axes.  JetMatrices adds the matrices and norms of a stack of one
N, and requires M > 1.

The squeeze of a pair with Y = X is tested at the size of X, exactly.  With
B = X - (2M+1) Id, the lower side is block-diagonal, so its least eigenvalue
is lambda_min(B) + 6M|H1|.  The orthogonal basis (v, +-v)/sqrt(2) splits the
upper side into -B and 2M Ht - B, so its least eigenvalue is
min(-lambda_max(B), lambda_min(2M Ht - B)).  The eigenvalues of B also give
|X - (2M+1) Id|, so one N x N decomposition serves the lower side, half the
upper side and the norm consequence.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .eig import jacobi_eigvals, row_dots, spectral_norms
from .moduli import Modulus

_FEAS_TOL = 1e-10  # relative tolerance of the feasibility eigen-tests


@dataclass(frozen=True)
class Jets:
    """The scalars of S jets, one entry per jet: the point x[S, n], each row
    zero past its jet's N axes, N, M, the exponent p, eps (NaN where the jet
    has none), s = |x|, wp = w'(s), wpp = w''(s), the damping
    iota = 1/(4 M |H1|) and the factors alphaH, betaH of Htilde's closed
    form.  They decide the large branch's preconditions before any matrix is
    built.  jet_scalars screens a stack into them.
    """

    x: np.ndarray
    N: np.ndarray
    M: np.ndarray
    p: np.ndarray
    eps: np.ndarray
    s: np.ndarray
    wp: np.ndarray
    wpp: np.ndarray
    iota: np.ndarray
    alphaH: np.ndarray
    betaH: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    def take(self, ks) -> "Jets":
        """The jets ks, in that order."""
        return Jets(*(getattr(self, f.name)[ks] for f in fields(self)))

    def eq_n_epsilon(self) -> np.ndarray:
        """Truth of beta w''(s)(1 - N s^{2e}) + alpha N s^{2e} w'(s)/s <= w''(s)/4
        for each jet at its eps e; false where it has none.

        alphaH and betaH depend on x, M and the modulus, not on p.
        """
        s2e = self.s ** (2.0 * self.eps)
        lhs = self.betaH * self.wpp * (1.0 - self.N * s2e) \
            + self.alphaH * self.N * s2e * self.wp / self.s
        return lhs <= self.wpp / 4.0

    def large_branch(self) -> tuple:
        """The large branch's preconditions at each jet: (axes, ok), with
        axes[S, n] its index set at its eps (_index_sets) and ok true where
        p < 4, or where the set is nonempty and eq_n_epsilon holds.  Raises
        ValueError when a jet with p >= 4 has no eps."""
        large = self.p >= 4.0
        if (large & np.isnan(self.eps)).any():
            raise ValueError("p >= 4 requires eps for the large-branch conclusion")
        axes = _index_sets(self.x, self.s, self.N, self.eps)
        return axes, ~large | (axes.any(axis=1) & self.eq_n_epsilon())


@dataclass(frozen=True)
class JetMatrices:
    """S jets of one N with their matrices: the Jets (x is (S, N)), Htilde
    and Theta (S, N, N), and the spectral norms |H1| and |Htilde| (S,).
    Entry k is bit for bit what jet k alone gives.  _stack_matrices gives
    H1, and H = Theta Htilde Theta is taken where it is read."""

    jets: Jets
    Htilde: np.ndarray
    Theta: np.ndarray
    h1_norm: np.ndarray
    ht_norm: np.ndarray

    def take(self, ks) -> "JetMatrices":
        """The jets ks of the stack, in that order."""
        return JetMatrices(self.jets.take(ks), self.Htilde[ks], self.Theta[ks],
                           self.h1_norm[ks], self.ht_norm[ks])

    def theta_norm_sq(self) -> list:
        """|Theta|^2 of each jet: Theta is diagonal with entries >= 0."""
        return [float(np.max(np.diag(theta)) ** 2) for theta in self.Theta]


def jet_scalars(x, N, M, p, eps, modulus: Modulus) -> Jets:
    """The Jets of the points x[S, n] (zero past each row's N[k] axes; N None
    means every axis) with M, p and eps, each a scalar or one per jet, and
    the modulus, which holds one modulus or one per jet.  An eps of None, or
    a None entry, means no eps and is held as NaN.  s is sqrt(x.x), bit for
    bit eig.vector_norm of each row.  Raises ValueError unless every x is
    nonzero with |x| < 1, the domain on which every modulus is valid; M > 1
    is checked where the doubling matrices are built (_jet_matrices), as the
    eigenvalue bound takes M = 1.
    """
    x = np.asarray(x, dtype=float)
    N = np.full(len(x), x.shape[1]) if N is None else np.asarray(N)
    M = np.full(len(x), M, dtype=float)
    p = np.full(len(x), p, dtype=float)
    eps = np.full(len(x), np.array(eps, dtype=float))  # numpy reads None as NaN
    s = np.sqrt(row_dots(x, x))
    if not (s > 0.0).all():
        raise ValueError("x must be nonzero")
    if not (s < 1.0).all():
        raise ValueError(f"|x| = {float(s.max())} must be < 1")
    wp = modulus.omega_prime(s)
    wpp = modulus.omega_second(s)
    # |H1|: in 1D only the radial eigenvalue w'' exists
    h1_norm = np.where(N == 1, np.abs(wpp), np.maximum(np.abs(wpp), wp / s))
    iota = 1.0 / (4.0 * M * h1_norm)
    alphaH = 1.0 + 2.0 * iota * wp / s
    betaH = 1.0 + 2.0 * iota * wpp
    return Jets(x, N, M, p, eps, s, wp, wpp, iota, alphaH, betaH)


def _stack_matrices(jets: Jets) -> tuple:
    """H1, Htilde and Theta, each (S, N, N), of S jets whose x is (S, N), each
    at its p; H is Theta @ Htilde @ Theta, taken where it is read.

    Every entry sees the operations of the one-jet formulas in their order,
    and numpy's stacked `@` multiplies each matrix as its 2D `@` does, so
    matrix k is bit for bit the one jet k gives alone.  Theta's diagonal is
    raised to its power one jet at a time: `**` with a scalar exponent takes
    numpy's sqrt at p = 3 and square at p = 6, which pow with an array of
    exponents does not match bit for bit.
    """
    x, s, wp, wpp, iota = jets.x, jets.s, jets.wp, jets.wpp, jets.iota
    n = x.shape[1]
    unit = x / s[:, None]
    tangential = (wp / s)[:, None, None]
    H1 = (wpp[:, None, None] - tangential) * (unit[:, :, None] * unit[:, None, :]) \
        + tangential * np.eye(n)
    Htilde = H1 + (2.0 * iota)[:, None, None] * (H1 @ H1)
    Theta = np.zeros_like(H1)
    base = np.abs(wp[:, None] * x / s[:, None])
    Theta.reshape(len(x), n * n)[:, ::n + 1] = [
        row ** ((p - 2.0) / 2.0) for row, p in zip(base, jets.p.tolist())]
    return H1, Htilde, Theta


def _jet_matrices(jets: Jets) -> JetMatrices:
    """The JetMatrices of jets, all of one N with x of width N; every M > 1."""
    if not (jets.M > 1.0).all():
        raise ValueError(f"M must be > 1, got {float(jets.M[~(jets.M > 1.0)][0])}")
    H1, Htilde, Theta = _stack_matrices(jets)
    return JetMatrices(jets, Htilde, Theta, spectral_norms(H1), spectral_norms(Htilde))


def build_jet_matrices(x, M: float, p: float, modulus: Modulus, eps=None) -> JetMatrices:
    """The one-jet JetMatrices at x with M, p and eps (None: no eps)."""
    return _jet_matrices(jet_scalars([x], None, M, p, eps, modulus))


def _index_sets(x, s, N, eps) -> np.ndarray:
    """(S, n) masks of the axes i < N[k] with |x_i| >= s^{1+eps} of each row
    of x, at its eps (a scalar or one per row)."""
    cut = s ** (1.0 + np.asarray(eps, dtype=float))
    return (np.abs(x) >= cut[:, None]) & (np.arange(x.shape[1]) < N[:, None])


def _test_vectors(x, p, axes) -> np.ndarray:
    """Each row's sum_{i in axes} |x_i|^{(2-p)/2} x_i e_i, at its own p."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(axes, np.abs(x) ** ((2.0 - p) / 2.0)[:, None] * x, 0.0)


def _reject_large_branch(axes, ok) -> None:
    """Raise, for the first jet that Jets.large_branch's (axes, ok) rejects,
    the ValueError naming the precondition it fails; pass if none is."""
    if not ok.all():
        if not axes[np.argmin(ok)].any():
            raise ValueError("index set is empty")
        raise ValueError("damped-inequality precondition (eq N-epsilon) fails at this x")


def _by_n(jets: Jets) -> list:
    """(ks, group) of the jets of each N, in order of first appearance: ks
    their indices and group their Jets, x cut to its N axes."""
    out = []
    for n in dict.fromkeys(jets.N.tolist()):
        ks = np.flatnonzero(jets.N == n)
        group = jets.take(ks)
        out.append((ks, replace(group, x=group.x[:, :n])))
    return out


def min_eig_checks(x, N, p, eps, modulus: Modulus) -> tuple:
    """(ok, rayleigh, bound, slack) of min_eig_bound_check at the points
    x[S, n] (zero past each row's N) at the exponents p[S]: ok masks the
    accepted points, and the others are arrays over those, in order.

    eps None selects the small branch, which requires every p <= 4; eps
    given (a scalar or one per jet) selects the large branch, which
    requires every p >= 4 and rejects, before any matrix is built, each
    jet whose index set is empty or whose damped inequality fails.  The
    accepted jets of each N share one stacked H = Theta @ Htilde @ Theta,
    one stacked Rayleigh quotient w.Hw / w.w and one jacobi_eigvals call.
    Raises the ValueErrors of jet_scalars.
    """
    p = np.asarray(p, dtype=float)
    if eps is None and (p > 4.0).any():
        raise ValueError("small branch (no eps) requires p <= 4")
    if eps is not None and (p < 4.0).any():
        raise ValueError("large branch (eps given) requires p >= 4")
    jets = jet_scalars(x, N, 1.0, p, eps, modulus)  # M plays no role in H's bound
    x, N, s, wp, wpp = jets.x, jets.N, jets.s, jets.wp, jets.wpp
    if eps is None:
        axes, ok = x != 0.0, np.ones(len(p), dtype=bool)
        bound = N ** (1.0 - p / 2.0) * jets.betaH * wpp * wp ** (p - 2.0)
    else:
        eps = jets.eps
        axes, ok = jets.large_branch()
        with np.errstate(divide="ignore", invalid="ignore"):  # an empty set is rejected
            bound = (1.0 - N * s ** (2.0 * eps)) / axes.sum(axis=1) \
                * wp ** (p - 2.0) * s ** ((p - 4.0) * eps) * wpp / 4.0
    w = _test_vectors(x, p, axes)[ok]  # index-restricted on the large branch (p = 4 included)
    jets, bound = jets.take(ok), bound[ok]
    rayleigh, slack = np.empty(len(jets)), np.empty(len(jets))
    for ks, group in _by_n(jets):
        _, Htilde, Theta = _stack_matrices(group)
        H = Theta @ Htilde @ Theta
        wk = w[ks, :group.x.shape[1]]
        rayleigh[ks] = row_dots(wk, (H @ wk[:, :, None])[:, :, 0]) / row_dots(wk, wk)
        slack[ks] = bound[ks] - jacobi_eigvals(H)[:, 0]
    return ok, rayleigh, bound, slack


def min_eig_bound_check(x, p: float, eps: float | None, modulus: Modulus):
    """Certify the negative-eigenvalue bound for H(x) via the Rayleigh quotient.

    Small branch (eps None, p <= 4): lambda_min(H) <= N^{1-p/2} beta w'' (w')^{p-2}.
    Large branch (eps given, p >= 4): requires a nonempty index set and the
    damped inequality checked by Jets.eq_n_epsilon; then
    lambda_min(H) <= (1 - N s^{2e}) / #I * (w')^{p-2} s^{(p-4)e} w''/4.

    Returns (rayleigh, bound, slack) with slack = bound - lambda_min(H): the
    one-point call of min_eig_checks, which raises ValueError for a
    rejected point too.
    """
    x = np.asarray(x, dtype=float)[None]
    ok, *checks = min_eig_checks(x, None, [p], eps, modulus)
    if not ok[0]:
        _reject_large_branch(*jet_scalars(x, None, 1.0, p, eps, modulus).large_branch())
    return tuple(float(v[0]) for v in checks)


_PAIR_DRAWS = 100  # draws of S per jet; the unperturbed point (S = 0) is always feasible


def _direction(rng, n: int) -> np.ndarray:
    """A random symmetric n x n matrix, the direction of one pair draw."""
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def feasible_pair_sample(jm: JetMatrices, rng) -> np.ndarray:
    """A random X such that the pair (X, X) satisfies the doubling block
    squeeze at the one jet of jm.

    X = (2M+1) Id - 2M |Htilde| Id + S with a random symmetric S of norm at
    most (M/4) |Htilde|; feasibility (and the norm consequence
    2 |X-(2M+1)Id| <= 6M|H1|) is verified by eigenvalue tests before
    returning, resampling on failure.  The one-jet call of feasible_pairs,
    whose rounds are then one draw each.
    """
    return feasible_pairs(jm.jets, rng)[1][0]


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


def pair_conclusions_check(X: np.ndarray, jm: JetMatrices) -> PairConclusions:
    """Verify the eigenvalue conclusions for the pair (X, X) at the one jet
    of jm, after testing that it is feasible.

    Checks, with c = 2M+1 and the weighted matrices A = M^{p-2} Theta(.)Theta:
    every eigenvalue of A(X+Y) is at most 2c M^{p-2} |Theta|^2, the smallest
    eigenvalue of A(X+Y-2c Id) obeys the small-branch bound for p <= 4 and
    the large-branch bound for p >= 4 (the latter needs the jet's eps and
    the damped inequality), and |X-cId| + |Y-cId| <= 6M|H1| with Y = X.

    The one-jet call of _pair_squeeze_checks, then _pair_conclusions_checks.
    """
    X = np.asarray(X, dtype=float)[None]
    ok, details, norm_sum = _pair_squeeze_checks(X, jm)
    if not ok[0]:
        margins = tuple(float(d[0]) for d in details)
        raise ValueError(f"pair does not satisfy the block squeeze (eigen margins {margins})")
    return _pair_conclusions_checks(X, jm, norm_sum)[0]


def _conclusions(M: float, n: int, s: float, wp: float, wpp: float, p: float,
                 h1_norm: float, theta_sq: float, eps: float, count: int,
                 lam_max: float, lam1: float, norm_sum: float) -> PairConclusions:
    """The bounds and slacks of one pair's conclusions at the jet with the
    scalars M, N = n, s, w', w'', p and eps of Jets: count is the size of its
    large-branch index set (read when p >= 4), lam_max the largest
    eigenvalue of A(X+Y), lam1 the least of A(X+Y-2c Id)."""
    c = 2.0 * M + 1.0
    mp2 = M ** (p - 2.0)
    bound_all = 2.0 * c * mp2 * theta_sq
    slack_all = float(bound_all - lam_max)

    bound_small = slack_small = bound_large = slack_large = None
    if p <= 4.0:
        bound_small = 2.0 * M ** (p - 1.0) * n ** ((2.0 - p) / 2.0) * wp ** (p - 2.0) * wpp
        slack_small = bound_small - lam1
    if p >= 4.0:
        bound_large = M ** (p - 1.0) * (1.0 - n * s ** (2.0 * eps)) / count \
            * wp ** (p - 2.0) * s ** ((p - 4.0) * eps) * wpp
        slack_large = bound_large - lam1

    bound_norm = 6.0 * M * h1_norm
    return PairConclusions(
        lambda_all_max=lam_max, bound_all=bound_all, slack_all=slack_all,
        bound_small=bound_small, slack_small=slack_small,
        bound_large=bound_large, slack_large=slack_large,
        norm_sum=norm_sum, bound_norm=bound_norm, slack_norm=float(bound_norm - norm_sum),
    )


def _pair_points(jm: JetMatrices, S: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The pair point X = (2M+1) Id - 2M |Htilde| Id + S of every jet of jm,
    S scaled to norm u (M/4) |Htilde|; a zero S stays unscaled."""
    M = jm.jets.M
    eye = np.eye(S.shape[1])
    s_norm = spectral_norms(S)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(s_norm > 0.0, u * (M / 4.0) * jm.ht_norm / s_norm, 1.0)
    return (2.0 * M + 1.0)[:, None, None] * eye \
        - (2.0 * M * jm.ht_norm)[:, None, None] * eye + S * scale[:, None, None]


def _pair_squeeze_checks(X: np.ndarray, jm: JetMatrices):
    """Both sides of the block squeeze of the pair (X[k], X[k]) at every jet
    k of jm, by the N x N tests of the module docstring: (ok, (lower, upper,
    scale), norm_sum) as arrays.  lower and upper are the least eigenvalues
    of the two sides' differences, and norm_sum is |X - cI| + |Y - cI| with
    c = 2M+1, taken from the same eigenvalues."""
    M = jm.jets.M
    eye = np.eye(X.shape[1])
    B = X - (2.0 * M + 1.0)[:, None, None] * eye
    wb = jacobi_eigvals(B)
    b_norm = np.abs(wb).max(axis=1)
    scale = np.maximum(np.maximum(1.0, M * jm.ht_norm), 6.0 * M * jm.h1_norm)
    lower = wb[:, 0] + 6.0 * M * jm.h1_norm
    upper = np.minimum(-wb[:, -1],
                       jacobi_eigvals((2.0 * M)[:, None, None] * jm.Htilde - B)[:, 0])
    ok = (lower >= -_FEAS_TOL * scale) & (upper >= -_FEAS_TOL * scale)
    return ok, (lower, upper, scale), b_norm + b_norm


def _pair_conclusions_checks(X: np.ndarray, jm: JetMatrices, norm_sum) -> list:
    """The conclusions of the pairs (X[k], X[k]) at the jets of jm, one
    jacobi_eigvals call per matrix set.  Raises the ValueErrors of the
    large-branch conclusion (Jets.large_branch) first."""
    jets = jm.jets
    axes, ok = jets.large_branch()
    _reject_large_branch(axes, ok)
    c = 2.0 * jets.M + 1.0
    mp2 = np.array([M ** (p - 2.0) for M, p in zip(jets.M.tolist(), jets.p.tolist())])
    weighted = mp2[:, None, None] * jm.Theta
    sums = X + X
    lam_max = jacobi_eigvals(weighted @ sums @ jm.Theta)[:, -1]
    shifted = sums - (2.0 * c)[:, None, None] * np.eye(X.shape[1])
    lam1 = jacobi_eigvals(weighted @ shifted @ jm.Theta)[:, 0]
    return [_conclusions(*args) for args in zip(
        jets.M.tolist(), jets.N.tolist(), jets.s.tolist(), jets.wp.tolist(), jets.wpp.tolist(),
        jets.p.tolist(), jm.h1_norm.tolist(), jm.theta_norm_sq(), jets.eps.tolist(),
        axes.sum(axis=1).tolist(), lam_max.tolist(), lam1.tolist(), norm_sum.tolist())]


def feasible_pairs(jets: Jets, rng) -> tuple:
    """The first feasible pair (X, X) of each of the jets, all of one N with
    x of width N, in order: (jm, X[S, N, N], norm_sum[S]), the jets'
    JetMatrices, their pairs and |X - cI| + |Y - cI| with c = 2M+1.

    Each round draws, in stack order, S and its radius factor for every jet
    still pending and tests those pairs as one stack; a jet leaves with its
    first feasible pair, so each jet's pair is the first feasible one of an
    i.i.d. sequence of draws.  Raises the ValueError of _jet_matrices, and
    RuntimeError when a jet has no feasible pair after _PAIR_DRAWS rounds.
    """
    jm = _jet_matrices(jets)
    n = jm.Htilde.shape[1]
    X = np.empty_like(jm.Htilde)
    norm_sum = np.empty(len(jm.jets))
    pending = np.arange(len(jm.jets))
    for _ in range(_PAIR_DRAWS):
        S = np.empty((len(pending), n, n))
        u = np.zeros(len(pending))
        for i in range(len(pending)):
            S[i] = _direction(rng, n)
            if S[i].any():  # |S| > 0
                u[i] = rng.uniform(0.0, 1.0)
        sub = jm.take(pending)
        Xp = _pair_points(sub, S, u)
        ok, _, norms = _pair_squeeze_checks(Xp, sub)
        ok &= norms <= 6.0 * sub.jets.M * sub.h1_norm * (1.0 + 1e-12)
        X[pending[ok]] = Xp[ok]
        norm_sum[pending[ok]] = norms[ok]
        pending = pending[~ok]
        if len(pending) == 0:
            return jm, X, norm_sum
    raise RuntimeError(f"no feasible pair in {_PAIR_DRAWS} attempts; the unperturbed point is "
                       "always feasible, so this indicates a bug")


def feasible_pair_conclusions(jets: Jets, rng) -> list:
    """The conclusions of one feasible pair (X, X) per jet of jets, which
    may mix N and must pass Jets.large_branch, in order.

    The jets of each N, in order of first appearance, share one stack:
    feasible_pairs gives each its first feasible pair, and one
    jacobi_eigvals call per matrix set takes the eigenvalues of the
    conclusions.  Raises RuntimeError when a jet has no feasible pair in
    _PAIR_DRAWS draws.
    """
    out = [None] * len(jets)
    for ks, group in _by_n(jets):
        jm, X, norm_sum = feasible_pairs(group, rng)
        for k, rep in zip(ks, _pair_conclusions_checks(X, jm, norm_sum)):
            out[k] = rep
    return out
