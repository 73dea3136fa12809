"""Decoupling analysis of a centered Gaussian vector with covariance C.

The library bounds E prod f_i(X_i) by Q * prod ||f_i(X_i)||_p for two
different constants Q:

* ``q_old`` -- the classical constant, available once the exponent clears
  the threshold beta_bar * p(X), where p(X) is the largest variance-relative
  absolute row sum of C and beta_bar > 1 also dominates the variance ratio.

* ``q_new`` -- a sharper constant defined on a (generally disconnected)
  subset of (1, inf).  It is driven by the coefficients xi_j of a
  simultaneous diagonalization: an invertible R with R^T C R = I and
  R^T diag(gamma) R = diag(xi).  The reciprocals 1/xi_j are exactly the
  eigenvalues lambda_j of the correlation matrix
  K = diag(1/sigma) C diag(1/sigma).

Every output here comes from the eigenvalues lambda of K, computed once per
vector by the values-only solver ``matcore.sym_eigvals``: the breakpoints
1/xi_j = lambda_j, the region, and both constants, which depend on C only
through lambda because det C = prod(gamma_i) * prod(lambda_j).  No output
reads an eigenvector.  The paper's construction R = U D V from two symmetric
eigendecompositions is built on request by ``simultaneous_diagonalization``;
the tests check its defining relations, and ``correlation_eigs_oracle``
checks lambda with an independent solver.

The admissible set for ``q_new`` keeps the exponents p farther than a
relative margin from every breakpoint and with an even count of breakpoints
above p (breakpoints closer than the margin count as one, with multiplicity);
this is precisely the sign condition making det(p*diag(gamma) - C) positive,
by the exact identity

    det(p*diag(gamma) - C) = p^n * prod(gamma_i) * prod(1 - lambda_j/p),

which holds for every p > 0 and is re-checked against a pivoted-LU
determinant by ``det_identity_residual``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .errors import (
    DegenerateBeta,
    InvalidParameter,
    NonPositiveVariance,
    NotAdmissibleClassical,
    NotInRegion,
    NotPositiveDefinite,
)

# Minimal strict gap enforced for beta_bar > 1 when optimizing it.
EPS_BETA = 1e-6
# p counts as inside the region only if farther than this (times max(1, p))
# from every breakpoint; the constant diverges at breakpoints.
REGION_MARGIN_COEFF = 1e-9


@dataclass(frozen=True, eq=False)
class GaussianVector:
    """A centered Gaussian vector, represented by its covariance matrix.

    ``c`` is stored exactly symmetric and certified positive definite by its
    lower Cholesky factor ``cholesky_factor``; ``gamma`` holds the variances
    diag(C) and ``sigma`` their square roots.  Instances are immutable.  The
    eigenvalues of the correlation matrix K = diag(1/sigma) C diag(1/sigma),
    which give xi, the region and both constants, are computed once on first
    use and cached.
    """

    c: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray
    cholesky_factor: np.ndarray

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def _correlation(self) -> np.ndarray:
        """K = diag(1/sigma) C diag(1/sigma)."""
        return self.c / np.outer(self.sigma, self.sigma)

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """The eigenvalues lambda of K, ascending and all positive."""
        lam = matcore.sym_eigvals(self._correlation())
        if lam[0] <= 0.0:
            raise NotPositiveDefinite("correlation eigenvalues are not all positive")
        return lam

    @cached_property
    def _log_det_k(self) -> float:
        return float(np.sum(np.log(self._eigenvalues)))

    @cached_property
    def _region(self) -> "AdmissibleRegion":
        return admissible_region(self._eigenvalues)


def from_covariance(c) -> GaussianVector:
    """Validate a covariance matrix and wrap it as a GaussianVector.

    Raises NotSymmetric for an asymmetric input, NonPositiveVariance when a
    diagonal entry is not strictly positive, and NotPositiveDefinite when the
    Cholesky test fails.  No silent regularization is applied.
    """
    m = matcore.symmetrize(c)
    gamma = np.diag(m).copy()
    if np.any(gamma <= 0.0):
        bad = int(np.argmin(gamma))
        raise NonPositiveVariance(f"variance at index {bad} is {gamma[bad]:.6e}")
    low = matcore.cholesky(m)
    sigma = np.sqrt(gamma)
    for arr in (m, gamma, sigma, low):
        arr.setflags(write=False)
    return GaussianVector(c=m, gamma=gamma, sigma=sigma, cholesky_factor=low)


def decoupling_coefficient(x: GaussianVector) -> float:
    """max_i of sum_j |C_ij| / C_ii (the j-sum includes j = i).

    Always >= 1, with equality exactly when C is diagonal.
    """
    rowsums = np.sum(np.abs(x.c), axis=1) / x.gamma
    return float(np.max(rowsums))


def check_exponent(p: float) -> None:
    """The exponent hypothesis of every answer here: p finite and above 1.
    Raises InvalidParameter when it fails."""
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidParameter(f"p must be finite and exceed 1, got {p}")


def variance_ratio(x: GaussianVector) -> float:
    return float(np.max(x.gamma) / np.min(x.gamma))


def check_beta(beta: float) -> None:
    """A given beta must be at least 1, and so not NaN; raises InvalidParameter."""
    if not beta >= 1.0:
        raise InvalidParameter(f"beta must be >= 1, got {beta}")


def beta_bar(x: GaussianVector, beta: float) -> float:
    """max(variance ratio, beta); must come out strictly above 1."""
    check_beta(beta)
    bb = max(variance_ratio(x), float(beta))
    if bb <= 1.0:
        raise DegenerateBeta(
            "variance ratio and beta are both 1; the classical constant needs beta_bar > 1"
        )
    return bb


def least_beta_bar(x: GaussianVector, beta: float | None = None) -> float:
    """The least beta_bar the classical route accepts.

    For a fixed ``beta`` that is beta_bar(x, beta), which raises
    DegenerateBeta when no exponent qualifies.  For ``None`` (the optimal
    route) it is the floor max(variance ratio, 1 + EPS_BETA) below which
    ``optimal_beta_bar`` finds no valid choice.  Times p(X), it is the
    classical threshold."""
    if beta is not None:
        return beta_bar(x, beta)
    return max(variance_ratio(x), 1.0 + EPS_BETA)


def optimal_beta_bar(x: GaussianVector, p: float) -> float:
    """The beta_bar minimizing the classical constant at exponent p.

    The constant decreases in beta_bar while the hypothesis caps it at
    p / p(X), so the cap is optimal whenever it clears the floor
    ``least_beta_bar(x)``; otherwise no valid choice exists.
    """
    check_exponent(p)
    px = decoupling_coefficient(x)
    floor = least_beta_bar(x)
    cap = p / px
    while cap * px > p:  # keep p >= cap * p(X) exactly, despite rounding
        cap = math.nextafter(cap, 0.0)
    if cap < floor:
        raise NotAdmissibleClassical(
            f"p={p} is below the classical threshold {floor * px:.12g} (= {floor:.6g} * p(X))"
        )
    return cap


def classical_beta_bar(x: GaussianVector, p: float, beta: float | None) -> float:
    """The beta_bar of the classical route: ``beta_bar(x, beta)`` for a fixed
    ``beta``, ``optimal_beta_bar(x, p)`` when ``beta`` is None."""
    return beta_bar(x, beta) if beta is not None else optimal_beta_bar(x, p)


def check_classical(x: GaussianVector, p: float, beta_bar_value: float) -> None:
    """The classical hypothesis beta_bar > 1 and p >= beta_bar * p(X), shared
    by ``q_old`` and the cornerstone bound.  Raises DegenerateBeta or
    NotAdmissibleClassical when it fails."""
    if beta_bar_value <= 1.0:
        raise DegenerateBeta(f"beta_bar must exceed 1, got {beta_bar_value}")
    px = decoupling_coefficient(x)
    if p < beta_bar_value * px:
        raise NotAdmissibleClassical(
            f"p={p} is below beta_bar * p(X) = {beta_bar_value * px:.12g}"
        )


def q_old(x: GaussianVector, p: float, beta_bar_value: float) -> float:
    """Classical decoupling constant at exponent p.

    Q = (prod sigma_i)^(1/p) / [ (1 - 1/beta_bar)^((n/2)(1-1/p)) det(C)^(1/(2p)) ],
    valid under the classical hypothesis (``check_classical``).  Evaluated in
    log space as log Q = -sum(log lambda)/(2p) - (n/2)(1-1/p) log(1 - 1/beta_bar).
    """
    check_classical(x, p, beta_bar_value)
    log_gap = math.log1p(-1.0 / beta_bar_value)
    return math.exp(-x._log_det_k / (2.0 * p) - (x.n / 2.0) * (1.0 - 1.0 / p) * log_gap)


@dataclass(frozen=True, eq=False)
class SimDiag:
    """Simultaneous diagonalization of the pencil (C, diag(gamma)).

    ``r`` = U D V satisfies R^T C R = I and R^T diag(gamma) R = diag(xi),
    where U diagonalizes C (eigenvalues mu), D = diag(mu^(-1/2)), and V
    diagonalizes H = D (U^T diag(gamma) U) D.  The coefficients ``xi``
    are the per-column quadratic-form ratios
    <diag(gamma) r_j, r_j> / <C r_j, r_j>, stored ascending so that the
    breakpoints 1/xi are descending.  This is the paper's construction; no
    output of this module reads it, since 1/xi are the eigenvalues of the
    correlation matrix that ``GaussianVector`` caches.
    """

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray
    r: np.ndarray
    xi: np.ndarray


def simultaneous_diagonalization(x: GaussianVector) -> SimDiag:
    """The R = U D V construction for this vector, built on request.

    Two eigenvector-accumulating eigensolves; each call builds it anew.
    """
    spec_c = matcore.sym_eigen(x.c)
    mu = spec_c.eigenvalues
    if mu[0] <= 0.0:
        raise NotPositiveDefinite("covariance eigenvalues are not all positive")
    u = spec_c.eigenvectors
    dvec = 1.0 / np.sqrt(mu)
    w = u * dvec[np.newaxis, :]  # U D without forming D
    h = w.T @ (x.gamma[:, np.newaxis] * w)
    spec_h = matcore.sym_eigen(h)  # symmetrizes h
    v = spec_h.eigenvectors
    r = w @ v
    num = np.einsum("ij,ij->j", r, x.gamma[:, np.newaxis] * r)
    den = np.einsum("ij,ij->j", r, x.c @ r)
    xi = num / den
    order = np.argsort(xi, kind="stable")
    v = v[:, order].copy()
    r = r[:, order].copy()
    xi = xi[order].copy()
    d = np.diag(dvec)
    for arr in (u, d, v, r, xi):
        arr.setflags(write=False)
    return SimDiag(u=u, d=d, v=v, r=r, xi=xi)


def correlation_eigs_oracle(x: GaussianVector) -> np.ndarray:
    """Eigenvalues of diag(1/sigma) C diag(1/sigma), descending.

    Computed with the Jacobi solver, sharing no code with the ``sym_eigvals``
    route behind the region and the constants, so it is an independent check
    on the multiset {1/xi_j}.
    """
    out = matcore.jacobi_eigen(x._correlation())[::-1].copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) of exponents; hi may be math.inf."""

    lo: float
    hi: float
    admissible: bool


@dataclass(frozen=True, eq=False)
class AdmissibleRegion:
    """The admissible subset of (1, inf) for the region constant.

    ``breakpoints`` is the raw multiset {lambda_j} = {1/xi_j}, descending.
    ``intervals`` partition (1, inf) minus the breakpoints, in ascending
    order; an interval is admissible iff the number of breakpoints strictly
    above it is even (counting multiplicity), so the topmost interval is
    always admissible.  A breakpoint within margin(prev) of the next larger
    one, prev, ends no interval: it is one more copy of its group's top.
    ``contains`` refuses every p between the two: half their gap < margin(p).
    """

    breakpoints: tuple[float, ...]
    intervals: tuple[Interval, ...]

    def margin(self, p: float) -> float:
        return REGION_MARGIN_COEFF * max(1.0, float(p))

    def breakpoint_distance(self, p: float) -> float:
        return min(abs(float(p) - b) for b in self.breakpoints)

    def contains(self, p: float) -> bool:
        """Membership with safety margin: p must be > 1, farther than
        margin(p) from every breakpoint, and lie in an admissible interval."""
        p = float(p)
        if not math.isfinite(p) or p <= 1.0:
            return False
        if self.breakpoint_distance(p) <= self.margin(p):
            return False
        return next(iv.admissible for iv in self.intervals if p < iv.hi)

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "intervals": [
                {
                    "lo": iv.lo,
                    "hi": "inf" if math.isinf(iv.hi) else iv.hi,
                    "admissible": iv.admissible,
                }
                for iv in self.intervals
            ],
        }


def admissible_region(breakpoints) -> AdmissibleRegion:
    """Build the admissible region from the breakpoints lambda_j = 1/xi_j
    (all > 0), in any order."""
    arr = np.asarray(breakpoints, dtype=float).ravel()
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidParameter("breakpoints must be a nonempty list of positive finite reals")
    bps = np.sort(arr)[::-1].tolist()

    descending: list[Interval] = []
    upper = prev = math.inf
    above = 0  # breakpoints above the current interval, with multiplicity
    for b in bps:
        if b <= 1.0:
            break
        if not descending or prev - b > REGION_MARGIN_COEFF * prev:  # prev > 1: margin(prev)
            descending.append(Interval(lo=b, hi=upper, admissible=above % 2 == 0))
            upper = b
        above += 1
        prev = b
    descending.append(Interval(lo=1.0, hi=upper, admissible=above % 2 == 0))

    return AdmissibleRegion(
        breakpoints=tuple(bps),
        intervals=tuple(reversed(descending)),
    )


def region_of(x: GaussianVector) -> AdmissibleRegion:
    """The cached admissible region of this vector."""
    return x._region


def q_new(x: GaussianVector, p: float) -> float:
    """Region-based decoupling constant at exponent p.

    Q = (prod sigma_i)^(1/p) * det(C)^(-1/(2p))
        * (prod_j |1 - 1/(p xi_j)|)^(-(1/2)(1-1/p)),

    evaluated in log space from the correlation eigenvalues lambda = 1/xi as
    log Q = -sum(log lambda)/(2p) - (1/2)(1-1/p) sum(log|1 - lambda/p|).

    Raises NotInRegion when p is excluded or within the safety margin of a
    breakpoint (the constant diverges there).
    """
    if not x._region.contains(p):
        raise NotInRegion(f"p={p} is not in the admissible region with margin")
    lam = x._eigenvalues
    log_factor = float(np.sum(np.log(np.abs(1.0 - lam / p))))
    return math.exp(-x._log_det_k / (2.0 * p) - 0.5 * (1.0 - 1.0 / p) * log_factor)


def shifted_matrix(x: GaussianVector, p: float) -> np.ndarray:
    """p * diag(gamma) - C."""
    return np.diag(p * x.gamma) - x.c


def det_identity_residual(x: GaussianVector, p: float) -> float:
    """Relative gap between det(p*diag(gamma) - C) computed by pivoted LU and
    the closed form p^n * prod(gamma_i) * prod(1 - lambda_j/p).

    The identity holds for every p > 0, admissible or not; on well-conditioned
    inputs the residual stays below 1e-8.
    """
    if not p > 0.0:
        raise InvalidParameter(f"p must be positive, got {p}")
    lhs = matcore.lu_det(shifted_matrix(x, p))
    lam = x._eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, as lu_det may give
        rhs = float(p ** x.n * np.prod(x.gamma) * np.prod(1.0 - lam / p))
    denom = max(abs(lhs), abs(rhs))
    return 0.0 if denom == 0.0 else abs(lhs - rhs) / denom


@dataclass(frozen=True)
class DecouplingReport:
    """Aggregate of both constants and the identity self-check at one p.

    ``q_new`` is present iff ``in_region``; ``q_old`` is present iff a valid
    beta_bar exists and p >= beta_bar * p(X).  ``b_positive_definite`` records
    whether p exceeds every breakpoint lambda_j = 1/xi_j, i.e. whether the
    shifted precision matrix C^{-1} - (1/p) diag(1/gamma) is positive
    definite rather than merely of positive determinant.
    """

    p: float
    p_of_X: float
    beta_bar: float | None
    in_region: bool
    q_new: float | None
    q_old: float | None
    b_positive_definite: bool
    identity_residual: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def analyze(x: GaussianVector, p: float, beta: float | None = 1.0) -> DecouplingReport:
    """One-stop report at exponent p: region membership, both constants when
    their hypotheses hold, and the determinant-identity residual.

    Inadmissibility never raises here; the corresponding fields are None.
    The classical route takes its beta_bar from ``classical_beta_bar``;
    ``beta_bar`` is reported even when p is below its threshold.
    """
    check_exponent(p)
    in_region = x._region.contains(p)
    qn = q_new(x, p) if in_region else None

    bb = qo = None
    try:
        bb = classical_beta_bar(x, p, beta)
        qo = q_old(x, p, bb)
    except NotAdmissibleClassical:
        pass

    return DecouplingReport(
        p=float(p),
        p_of_X=decoupling_coefficient(x),
        beta_bar=bb,
        in_region=in_region,
        q_new=qn,
        q_old=qo,
        b_positive_definite=bool(p > x._eigenvalues[-1]),
        identity_residual=det_identity_residual(x, p),
    )
