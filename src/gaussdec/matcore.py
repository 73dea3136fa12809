"""Dense real linear algebra substrate.

Symmetric eigensolvers, Cholesky factorization and pivoted-LU determinants,
written directly against numpy arrays.  No LAPACK-backed factorization
routine is called: orthogonal bases are built exclusively from Householder
reflections and Jacobi rotations, which stay orthonormal to machine precision
regardless of conditioning.

Two independent eigensolvers are provided on purpose.  ``sym_eigvals``
(Householder tridiagonalization followed by implicitly shifted QL sweeps,
with no basis accumulated) is the production path; ``jacobi_eigen`` (cyclic
two-sided rotations) shares no code with it and is a values-only oracle, for
``correlation_eigs_oracle`` and the test suite.  ``sym_eigen`` runs the same
reduction and QL loop while accumulating the eigenvectors, an order of
magnitude dearer in pure Python, and returns bit for bit the eigenvalues of
``sym_eigvals``; only ``decouple.simultaneous_diagonalization`` calls it.
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

    Raises NotSymmetric when the asymmetry exceeds SYM_TOL relative to
    1 + max|a_ij|.
    """
    m = as_matrix(a)
    gap = max_abs(m - m.T)
    if gap > SYM_TOL * (1.0 + max_abs(m)):
        raise NotSymmetric(
            f"asymmetry {gap:.3e} exceeds tolerance {SYM_TOL:.1e} at scale {max_abs(m):.3e}"
        )
    return (m + m.T) / 2.0


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


def _householder_tridiag(
    m: np.ndarray, accumulate: bool
) -> tuple[list[float], list[float], np.ndarray | None]:
    """Reduce symmetric ``m`` to tridiagonal T = Q^T m Q by reflections.

    Returns the diagonal of T, its subdiagonal with a trailing 0.0 (the
    workspace slot QL needs), both as Python floats, and Q when
    ``accumulate`` is set (None otherwise).  Q never feeds back into T, so
    T has the same bits either way.
    """
    a = m.copy()
    n = a.shape[0]
    q = np.eye(n) if accumulate else None
    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm = math.sqrt(float(np.dot(x, x)))
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, x[0])
        v = x.copy()
        v[0] -= alpha
        vsq = float(np.dot(v, v))
        if vsq == 0.0:
            continue
        beta = 2.0 / vsq
        a[k + 1 :, :] -= beta * np.outer(v, v @ a[k + 1 :, :])
        a[:, k + 1 :] -= beta * np.outer(a[:, k + 1 :] @ v, v)
        if q is not None:
            q[:, k + 1 :] -= beta * np.outer(q[:, k + 1 :] @ v, v)
    a = (a + a.T) / 2.0
    return np.diag(a).tolist(), np.diag(a, -1).tolist() + [0.0], q


def _tridiag_ql(d: list[float], e: list[float], zt: np.ndarray | None) -> None:
    """Implicitly shifted QL on the tridiagonal (d, e), in place.

    On exit ``d`` holds the eigenvalues (unsorted).  ``e`` must have length
    n with e[n-1] free as workspace.  When ``zt`` is given, every rotation
    is folded into its rows, which hold the basis transposed (rows are
    contiguous, so each update is one vector operation); without it no
    basis is touched and the loop is scalar arithmetic on Python floats.
    """
    eps = _EPS
    n = len(d)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            iterations += 1
            if iterations > _QL_MAX_ITER:
                raise NonConvergence(
                    f"eigenvalue {l} not converged after {_QL_MAX_ITER} implicit QL steps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if zt is not None:
                    zt[i], zt[i + 1] = c * zt[i] - s * zt[i + 1], s * zt[i] + c * zt[i + 1]
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def sym_eigen(a) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Householder reflections reduce the matrix to tridiagonal form; implicitly
    shifted QL iterations then drive the off-diagonal to zero, accumulating
    every rotation into the eigenvector basis; an off-diagonal entry deflates
    at machine epsilon relative to its diagonal neighbours.  Callers that
    need only the eigenvalues should use ``sym_eigvals``, which runs the same
    arithmetic without the basis and returns the same bits.

    Raises NotSymmetric when the input is not symmetric within SYM_TOL, and
    NonConvergence if an eigenvalue needs more than 30 shifted steps.
    """
    d, e, q = _householder_tridiag(symmetrize(a), accumulate=True)
    zt = q.T.copy()
    _tridiag_ql(d, e, zt)
    order = np.argsort(d, kind="stable")
    values = np.array(d)[order]
    vectors = zt.T[:, order].copy()
    _fix_signs(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, as a read-only array.

    The values-only path of ``sym_eigen``: the same reduction and QL steps,
    with no orthogonal basis accumulated in either stage (Parlett, The
    Symmetric Eigenvalue Problem, ch. 8), so its output equals
    ``sym_eigen(a).eigenvalues`` bit for bit at a fraction of the cost.
    Raises as ``sym_eigen`` does.
    """
    d, e, _ = _householder_tridiag(symmetrize(a), accumulate=False)
    _tridiag_ql(d, e, None)
    values = np.sort(d, kind="stable")
    values.setflags(write=False)
    return values


def _rotate_sym(m: np.ndarray, p: int, q: int, c: float, s: float) -> None:
    mp = m[:, p].copy()
    mq = m[:, q].copy()
    m[:, p] = c * mp - s * mq
    m[:, q] = s * mp + c * mq
    rp = m[p, :].copy()
    rq = m[q, :].copy()
    m[p, :] = c * rp - s * rq
    m[q, :] = s * rp + c * rq
    m[p, q] = 0.0
    m[q, p] = 0.0


def jacobi_eigen(a) -> np.ndarray:
    """Eigenvalues by cyclic Jacobi rotations, ascending, as a read-only array.

    Independent of the tridiagonal route in ``sym_eigen``; quadratically
    convergent and unconditionally orthogonal, so it makes a good oracle.
    """
    m = symmetrize(a)
    n = m.shape[0]
    fro = math.sqrt(float(np.sum(m * m)))
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * float(np.sum(np.tril(m, -1) ** 2)))
        if off <= _EPS * fro:
            values = np.sort(np.diag(m), kind="stable")
            values.setflags(write=False)
            return values
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                _rotate_sym(m, p, q, c, t * c)
    raise NonConvergence(
        f"off-diagonal mass not annihilated after {_JACOBI_MAX_SWEEPS} Jacobi sweeps"
    )


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = A and positive diagonal.

    A pivot at or below ``PIVOT_TOL * max|a_ij|`` raises NotPositiveDefinite;
    this is the positive-definiteness test used throughout the package.
    """
    m = symmetrize(a)
    n = m.shape[0]
    thresh = PIVOT_TOL * max_abs(m)
    low = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j] - float(np.dot(low[j, :j], low[j, :j]))
        if not math.isfinite(pivot) or pivot <= thresh:
            raise NotPositiveDefinite(
                f"pivot {pivot:.6e} at index {j} is at or below threshold {thresh:.6e}"
            )
        ljj = math.sqrt(pivot)
        low[j, j] = ljj
        if j + 1 < n:
            low[j + 1 :, j] = (m[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / ljj
    return low


def lu_det(a) -> float:
    """Signed determinant by Gaussian elimination with partial pivoting.

    Never raises: a vanishing pivot column simply yields 0.0.
    """
    m = as_matrix(a)
    n = m.shape[0]
    det = 1.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(m[k:, k])))
        if m[piv, k] == 0.0:
            return 0.0
        if piv != k:
            m[[k, piv], :] = m[[piv, k], :]
            det = -det
        det *= float(m[k, k])
        if k + 1 < n:
            factors = m[k + 1 :, k] / m[k, k]
            m[k + 1 :, k + 1 :] -= np.outer(factors, m[k, k + 1 :])
    return float(det)
