"""Dense real linear algebra substrate.

Symmetric eigensolvers, Cholesky factorization and pivoted-LU determinants,
written directly against numpy arrays.  No LAPACK-backed factorization
routine is called: reductions use Householder reflections and Jacobi
rotations, which stay orthonormal to machine precision regardless of
conditioning.

Two eigensolvers that share no code are provided on purpose.  ``sym_eigvals``
(an exact power-of-two prescaling, Householder tridiagonalization with one
symmetric rank-2 update of the trailing block per reflection, then root-free
implicitly shifted QL sweeps on the squared off-diagonals, values only) is
the production path.  ``sym_eigen`` (cyclic two-sided Jacobi rotations, folded
into a basis) is its oracle and the only source of eigenvectors; only
``decouple.simultaneous_diagonalization`` and the tests call it, and
``jacobi_eigen`` returns its eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    NonConvergence,
    NotPositiveDefinite,
    NotSymmetric,
)

# Desk-scale double-precision tolerances (n up to a few hundred).
SYM_TOL = 1e-12
PIVOT_TOL = 1e-12

_EPS = float(np.finfo(float).eps)
_QL_MAX_ITER = 30
_JACOBI_MAX_SWEEPS = 50


def as_matrix(a) -> np.ndarray:
    """Copy ``a`` into a square float64 array of finite entries, each read as
    ``float`` reads it (numeric strings included).  Anything else (ragged
    rows, a non-numeric string, a dict) raises InvalidParameter; an int
    beyond the float range raises OverflowError."""
    try:
        m = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"expected a matrix of reals: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidParameter(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameter("matrix entries must be finite")
    return m


def max_abs(a) -> float:
    m = np.asarray(a)
    return float(np.max(np.abs(m))) if m.size else 0.0


def symmetrize(a) -> np.ndarray:
    """Return the exactly symmetric part (A + A^T)/2.

    Raises NotSymmetric when max|a_ij - a_ji| exceeds SYM_TOL * max|a_ij|,
    a relative test that scaling ``a`` by a constant does not change.  Both
    the test and the sum run on H = A/2, so that no finite entry overflows
    (a_ij + a_ji does above about 8.99e307); halving is exact for normal
    floats, so the result has the bits of (A + A^T)/2 wherever no entry of
    H is subnormal.

    An exactly symmetric H (the common case: a covariance read from a
    document, or a matrix this package built) skips the test, whose gap is
    0 there, and still returns H + H^T, the same bits as the tested path.
    """
    h = as_matrix(a)
    h *= 0.5
    if not (h == h.T).all():
        gap, scale = max_abs(h - h.T), max_abs(h)
        if gap > SYM_TOL * scale:
            raise NotSymmetric(
                f"asymmetry {gap / scale:.3e} relative to max|a_ij| exceeds tolerance {SYM_TOL:.1e}"
            )
    return h + h.T


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in ascending order; orthonormal eigenvectors as columns.

    Sign convention: in every eigenvector the first component of largest
    magnitude is nonnegative, which makes the decomposition deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(z: np.ndarray) -> None:
    for j in range(z.shape[1]):
        k = int(np.argmax(np.abs(z[:, j])))
        if z[k, j] < 0.0:
            z[:, j] = -z[:, j]


def _householder_tridiag(m: np.ndarray) -> tuple[list[float], list[float]]:
    """Reduce symmetric ``m`` to a tridiagonal T = Q^T m Q by reflections.

    Each reflection updates only the trailing block, by the symmetric rank-2
    update A - v w^T - w v^T (Golub and Van Loan, Matrix Computations,
    Alg. 8.3.1), and stores alpha below the diagonal.  Both terms come from
    one outer product, since w v^T is (v w^T)^T bit for bit, so the block
    stays exactly symmetric.  Q is never formed.  Returns the diagonal of T
    and its subdiagonal with a trailing 0.0 (the workspace slot QL needs),
    both as Python floats.
    """
    a = m.copy()
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k]
        x0 = float(x[0])
        norm = math.sqrt(float(np.dot(x, x)))
        alpha = -math.copysign(norm, x0)
        v = x.copy()
        v[0] = x0 - alpha
        vsq = float(np.dot(v, v))
        if vsq == 0.0:  # a zero column: nothing to annihilate
            continue
        beta = 2.0 / vsq
        a[k + 1, k] = alpha
        t = a[k + 1 :, k + 1 :]
        w = t @ v
        w *= beta
        w -= (0.5 * beta * float(w @ v)) * v
        vw = v[:, None] * w
        t -= vw + vw.T
    return np.diag(a).tolist(), np.diag(a, -1).tolist() + [0.0]


def _tridiag_ql(d: list[float], e: list[float]) -> None:
    """Root-free implicitly shifted QL on the tridiagonal (d, e).

    On exit ``d`` holds the eigenvalues (unsorted); ``e`` (length n, e[n-1]
    unused) is only read.  The sweeps run on the squared off-diagonals, the
    QL branch of LAPACK ``dsterf`` (the Pal-Walker-Kahan variant; Parlett,
    The Symmetric Eigenvalue Problem, ch. 8): a rotation needs no square
    root, only the shift does.  e_m deflates when e_m^2 <= (eps (|d_m| +
    |d_{m+1}|))^2.  No basis is touched, so the loop is scalar arithmetic
    on Python floats.
    """
    eps = _EPS
    n = len(d)
    e2 = [x * x for x in e]
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                tst = eps * (abs(d[m]) + abs(d[m + 1]))
                if e2[m] <= tst * tst:
                    break
                m += 1
            if m == l:
                break
            iterations += 1
            if iterations > _QL_MAX_ITER:
                raise NonConvergence(
                    f"eigenvalue {l} not converged after {_QL_MAX_ITER} implicit QL steps"
                )
            p = d[l]
            rte = math.sqrt(e2[l])
            sigma = (d[l + 1] - p) / (2.0 * rte)
            sigma = p - rte / (sigma + math.copysign(math.hypot(sigma, 1.0), sigma))
            c = 1.0
            s = 0.0
            gamma = d[m] - sigma
            p = gamma * gamma
            for i in range(m - 1, l - 1, -1):
                bb = e2[i]
                r = p + bb
                e2[i + 1] = s * r  # s = 0 on the first step: e_m deflated
                oldc = c
                c = p / r
                s = bb / r
                oldgam = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * oldgam
                d[i + 1] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * bb
            e2[l] = s * p
            d[l] = sigma + gamma


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, as a read-only array.

    The production eigensolver: Householder reduction to tridiagonal form,
    then root-free implicitly shifted QL steps on the squared off-diagonals,
    with no orthogonal basis formed in either stage (Parlett, The Symmetric
    Eigenvalue Problem, ch. 8); an off-diagonal entry deflates at machine
    epsilon relative to its diagonal neighbours.  The symmetrized input is
    first scaled by the power of two 2^-k that puts max|a_ij| 2^-k in
    [1/2, 1), and the eigenvalues are scaled back by 2^k.  Both scalings
    are exact for normal floats, and every step of the solver commutes with
    them, so in range the bits are those of the unscaled run; the scaling
    keeps the reduction's dot products and the QL's squares from
    overflowing or underflowing at any input scale.  Raises NotSymmetric
    when the input is not symmetric within SYM_TOL, NonConvergence if an
    eigenvalue needs more than 30 shifted steps, and OverflowError when an
    eigenvalue lies beyond the float range (the scaled value times 2^k
    would round to inf).
    """
    m = symmetrize(a)
    k = math.frexp(max_abs(m))[1]  # max|m_ij| = f 2^k with f in [1/2, 1)
    np.ldexp(m, -k, out=m)
    d, e = _householder_tridiag(m)
    _tridiag_ql(d, e)
    values = np.sort(d, kind="stable")
    top = max(-values[0], values[-1])
    if math.frexp(top)[1] + k > 1024:  # |lambda| >= 2^1024 once scaled back
        raise OverflowError(f"eigenvalue {top:.6e} * 2^{k} exceeds the float range")
    np.ldexp(values, k, out=values)
    values.setflags(write=False)
    return values


def _rotate_columns(x: np.ndarray, p: int, q: int, c: float, s: float) -> None:
    """x <- x J in place, where the rotation J mixes columns p and q only."""
    xp = x[:, p].copy()
    xq = x[:, q].copy()
    x[:, p] = c * xp - s * xq
    x[:, q] = s * xp + c * xq


def sym_eigen(a) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Each rotation J annihilates one off-diagonal pair, m <- J^T m J, and is
    folded into the basis, v <- v J, so a = v m v^T throughout.  Sweeps stop
    once the off-diagonal mass is below machine epsilon times the Frobenius
    norm.  Quadratically convergent, unconditionally orthogonal, and far
    dearer in pure Python than ``sym_eigvals``, which it checks.

    Raises NotSymmetric when the input is not symmetric within SYM_TOL, and
    NonConvergence after 50 sweeps.
    """
    m = symmetrize(a)
    n = m.shape[0]
    v = np.eye(n)
    fro = math.sqrt(float(np.sum(m * m)))
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * float(np.sum(np.tril(m, -1) ** 2)))
        if off <= _EPS * fro:
            diag = np.diag(m)
            order = np.argsort(diag, kind="stable")
            values = diag[order]
            vectors = v[:, order]
            _fix_signs(vectors)
            values.setflags(write=False)
            vectors.setflags(write=False)
            return Spectrum(eigenvalues=values, eigenvectors=vectors)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # m <- J^T m J: its columns, then its rows (the columns of m.T)
                _rotate_columns(m, p, q, c, s)
                _rotate_columns(m.T, p, q, c, s)
                _rotate_columns(v, p, q, c, s)
                m[p, q] = 0.0
                m[q, p] = 0.0
    raise NonConvergence(
        f"off-diagonal mass not annihilated after {_JACOBI_MAX_SWEEPS} Jacobi sweeps"
    )


def jacobi_eigen(a) -> np.ndarray:
    """The eigenvalues of ``sym_eigen``: ascending, read-only, by Jacobi."""
    return sym_eigen(a).eigenvalues


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = A and positive diagonal.

    A pivot at or below ``PIVOT_TOL * a_jj``, its own diagonal entry, raises
    NotPositiveDefinite; this is the positive-definiteness test used
    throughout the package, unchanged up to rounding by a diagonal scaling.
    """
    m = symmetrize(a)
    n = m.shape[0]
    low = np.zeros_like(m)
    for j in range(n):
        row = low[j, :j]
        mjj = float(m[j, j])
        pivot = mjj - float(np.dot(row, row))
        thresh = PIVOT_TOL * mjj
        if not math.isfinite(pivot) or pivot <= thresh:
            raise NotPositiveDefinite(
                f"pivot {pivot:.6e} at index {j} is at or below threshold {thresh:.6e}"
            )
        ljj = math.sqrt(pivot)
        low[j, j] = ljj
        low[j + 1 :, j] = (m[j + 1 :, j] - low[j + 1 :, :j] @ row) / ljj
    return low


def lu_det(a) -> float:
    """Signed determinant by Gaussian elimination with partial pivoting.

    Never raises: a vanishing pivot column simply yields 0.0.
    """
    m = as_matrix(a)
    n = m.shape[0]
    det = 1.0
    for k in range(n):
        piv = k + int(np.abs(m[k:, k]).argmax())
        pivot = float(m[piv, k])
        if pivot == 0.0:
            return 0.0
        if piv != k:
            m[[k, piv], :] = m[[piv, k], :]
            det = -det
        det *= pivot
        m[k + 1 :, k + 1 :] -= (m[k + 1 :, k] / pivot)[:, None] * m[k, k + 1 :]
    return det
