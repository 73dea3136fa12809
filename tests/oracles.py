"""Oracles that no gaussdec command runs, kept beside the tests that read them.

* ``bl_ratio`` / ``bl_bound``: the Gaussian Brascamp-Lieb product-integral
  ratio with positive weights b, and the determinant bound that dominates
  its supremum over b (Lieb, Invent. Math. 102, 1990).  Acceptance
  criterion 6 and ``test_verify.TestBrascampLieb`` check one against the
  other.
* ``correlation_eigs_oracle``: the eigenvalues of a vector's correlation
  matrix K by the Jacobi solver, which shares no code with the
  ``sym_eigvals`` route behind the region and the constants.  Acceptance
  criterion 2 and ``test_decouple`` check the multiset {1/xi_j} and the
  breakpoints against it.
* ``one_factor_lhs``: E prod f_i(X_i) by one-dimensional quadrature where
  cov(X) = v v^T + diag(d), computed without sampling.
  ``test_verify.TestOneFactorOracle`` checks it against closed forms and
  mpmath, and ``mc_expectation``'s estimates against it.
"""

import math

import numpy as np

from gaussdec import matcore, verify
from gaussdec.decouple import GaussianVector
from gaussdec.errors import InvalidParameter


def bl_ratio(a, b, p: float) -> float:
    """Gaussian product-integral ratio with weights b:

    (2 pi)^((n/2)(1-1/p)) * p^(n/(2p)) * prod(b_i^(1/(2p))) / det(A + diag(b))^(1/2).

    Raises NotPositiveDefinite when A + diag(b) fails the Cholesky test.
    """
    m = matcore.symmetrize(a)
    bvec = np.asarray(b, dtype=float).ravel()
    n = m.shape[0]
    if bvec.size != n or not np.all(np.isfinite(bvec)) or np.any(bvec <= 0.0):
        raise InvalidParameter("b must be a vector of positive reals matching A")
    if not p >= 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    low = matcore.cholesky(m + np.diag(bvec))
    log_det_shifted = 2.0 * float(np.sum(np.log(np.diag(low))))
    return math.exp(
        (n / 2.0) * (1.0 - 1.0 / p) * math.log(2.0 * math.pi)
        + (n / (2.0 * p)) * math.log(p)
        + float(np.sum(np.log(bvec))) / (2.0 * p)
        - 0.5 * log_det_shifted
    )


def bl_bound(a, p: float) -> float:
    """(2 pi)^((n/2)(1-1/p)) / det(A)^((1/2)(1-1/p)): dominates bl_ratio for
    every positive weight vector b."""
    if not p >= 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    m = matcore.symmetrize(a)
    low = matcore.cholesky(m)
    log_det_a = 2.0 * float(np.sum(np.log(np.diag(low))))
    n = m.shape[0]
    return math.exp(
        (1.0 - 1.0 / p) * ((n / 2.0) * math.log(2.0 * math.pi) - 0.5 * log_det_a)
    )


def correlation_eigs_oracle(x: GaussianVector) -> np.ndarray:
    """Eigenvalues of diag(1/sigma) C diag(1/sigma), descending, by Jacobi."""
    out = matcore.jacobi_eigen(x._correlation())[::-1].copy()
    out.setflags(write=False)
    return out


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _upper_tail(x):
    """P(Z > x) for standard normal Z, elementwise."""
    return 0.5 * _erfc(np.asarray(x) / math.sqrt(2.0)).astype(float)


def _log_inner(f, mu, d: float):
    """log E f(mu + sqrt(d) Z) for standard normal Z, elementwise in mu.

    An indicator's term is a normal mass, taken as a difference of upper
    tails on the side of 0 where the interval lies, so that it keeps its
    relative precision in either tail.  For a polygauss |y|^k exp(-y^2 / s),
    the Gaussian factor folds into the normal density:

        E |Y|^k exp(-Y^2 / s) = sqrt(s / (s + 2d)) exp(-mu^2 / (s + 2d)) E |m + tau Z|^k,

    m = mu s / (s + 2d), tau^2 = d s / (s + 2d).  The absolute moment is
    the polynomial sum_j C(k, j) m^(k-j) tau^j E Z^j for even k; for odd k
    each E Z^j becomes 2 J_j(c) - E Z^j with the partial moments
    J_j(c) = E[Z^j; Z > c] at c = -m / tau, J_0 = P(Z > c), J_1 = phi(c),
    J_j = c^(j-1) phi(c) + (j - 1) J_(j-2)."""
    mu = np.asarray(mu, dtype=float)
    if isinstance(f, verify.Indicator):
        lo, hi = (f.a - mu) / math.sqrt(d), (f.b - mu) / math.sqrt(d)
        with np.errstate(invalid="ignore"):  # inf - inf where a bound is infinite
            mass = np.where(
                lo >= 0.0,
                _upper_tail(lo) - _upper_tail(hi),
                np.where(hi <= 0.0, _upper_tail(-hi) - _upper_tail(-lo),
                         1.0 - _upper_tail(-lo) - _upper_tail(hi)),
            )
        with np.errstate(divide="ignore"):
            return np.log(mass)
    k, s = f.k, f.s
    m = mu * s / (s + 2.0 * d)
    tau = math.sqrt(d * s / (s + 2.0 * d))
    moments = [float(math.prod(range(j - 1, 0, -2))) if j % 2 == 0 else 0.0 for j in range(k + 1)]
    if k % 2:
        c = -m / tau
        phi = np.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        partial = [_upper_tail(c), phi]
        for j in range(2, k + 1):
            partial.append(c ** (j - 1) * phi + (j - 1) * partial[j - 2])
        moments = [2.0 * partial[j] - moments[j] for j in range(k + 1)]
    absolute = sum(math.comb(k, j) * m ** (k - j) * tau**j * moments[j] for j in range(k + 1))
    return 0.5 * math.log(s / (s + 2.0 * d)) - mu * mu / (s + 2.0 * d) + np.log(absolute)


def one_factor_lhs(v, d, fs) -> float:
    """E prod_i f_i(X_i) for a centred Gaussian X with cov(X) = v v^T + diag(d),
    d > 0: given one standard normal W, X_i = v_i W + sqrt(d_i) Z_i with
    independent standard normal Z_i, so

        E prod_i f_i(X_i) = int phi(w) prod_i E f_i(v_i w + sqrt(d_i) Z) dw,

    a one-dimensional integral of closed forms (``_log_inner``; Dunnett and
    Sobel, Biometrika 42, 1955, for equicorrelated normal probabilities).
    It is summed by the trapezoid rule with 8001 nodes on [-40, 40], in log
    space, so that a product of small factors (a deep-tail left side) does
    not underflow; each factor must be a normal float.  Equicorrelated(n, rho)
    with rho >= 0 is v_i = sqrt(rho), d_i = 1 - rho; Scaled over it
    multiplies v_i by sigma_i and d_i by sigma_i^2; a block-diagonal
    covariance of such blocks is the product of their left sides."""
    half_width, nodes = 40.0, 8001
    w = np.linspace(-half_width, half_width, nodes)
    log_terms = -0.5 * w * w - 0.5 * math.log(2.0 * math.pi)
    for v_i, d_i, f in zip(v, d, fs, strict=True):
        log_terms = log_terms + _log_inner(f, v_i * w, float(d_i))
    top = float(np.max(log_terms))
    if top == -math.inf:
        return 0.0
    step = 2.0 * half_width / (nodes - 1)
    return math.exp(top) * step * float(np.sum(np.exp(log_terms - top)))
