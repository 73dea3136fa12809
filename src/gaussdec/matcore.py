"""Dense real linear algebra substrate.

Symmetric eigensolvers, Cholesky factorization and pivoted-LU determinants,
written directly against numpy arrays.  No LAPACK-backed factorization
routine is called: orthogonal bases are built exclusively from Householder
reflections and Jacobi rotations, which stay orthonormal to machine precision
regardless of conditioning.

Two independent eigensolvers are provided on purpose.  ``sym_eigen``
(Householder tridiagonalization followed by implicitly shifted QL sweeps) is
the production path; ``jacobi_eigen`` (cyclic two-sided rotations) shares no
code with it and serves as a cross-check in the test suite.
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
    """Copy ``a`` into a square float64 array, rejecting non-finite entries."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidParameter(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameter("matrix entries must be finite")
    return m


def max_abs(a) -> float:
    m = np.asarray(a)
    return float(np.max(np.abs(m))) if m.size else 0.0


def symmetrize(a, tol: float = SYM_TOL) -> np.ndarray:
    """Return the exactly symmetric part (A + A^T)/2.

    Raises NotSymmetric when the asymmetry exceeds ``tol`` relative to
    1 + max|a_ij|.
    """
    m = as_matrix(a)
    gap = max_abs(m - m.T)
    if gap > tol * (1.0 + max_abs(m)):
        raise NotSymmetric(
            f"asymmetry {gap:.3e} exceeds tolerance {tol:.1e} at scale {max_abs(m):.3e}"
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

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def _fix_signs(z: np.ndarray) -> None:
    for j in range(z.shape[1]):
        k = int(np.argmax(np.abs(z[:, j])))
        if z[k, j] < 0.0:
            z[:, j] = -z[:, j]


def _finish_spectrum(values: np.ndarray, vectors: np.ndarray) -> Spectrum:
    order = np.argsort(values, kind="stable")
    values = values[order].copy()
    vectors = vectors[:, order].copy()
    _fix_signs(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)


def _householder_tridiag(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce symmetric ``m`` to tridiagonal T = Q^T m Q by reflections.

    Returns (diagonal of T, subdiagonal of T, Q).
    """
    a = m.copy()
    n = a.shape[0]
    q = np.eye(n)
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
        q[:, k + 1 :] -= beta * np.outer(q[:, k + 1 :] @ v, v)
    a = (a + a.T) / 2.0
    d = np.diag(a).copy()
    e = np.diag(a, -1).copy()
    return d, e, q


def _tridiag_ql(d: np.ndarray, e: np.ndarray, z: np.ndarray, eps: float) -> None:
    """Implicitly shifted QL on the tridiagonal (d, e), in place.

    Every rotation is folded into the columns of ``z``; on exit ``d`` holds
    the eigenvalues (unsorted).  ``e`` must have length n with e[n-1] free as
    workspace.
    """
    n = d.size
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
                zi = z[:, i].copy()
                zi1 = z[:, i + 1].copy()
                z[:, i + 1] = s * zi + c * zi1
                z[:, i] = c * zi - s * zi1
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def sym_eigen(a, tol: float | None = None) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Householder reflections reduce the matrix to tridiagonal form; implicitly
    shifted QL iterations then drive the off-diagonal to zero, accumulating
    every rotation into the eigenvector basis.  ``tol`` overrides the
    deflation threshold (default: machine epsilon).

    Raises NotSymmetric when the input is not symmetric within SYM_TOL, and
    NonConvergence if an eigenvalue needs more than 30 shifted steps.
    """
    m = symmetrize(a)
    n = m.shape[0]
    if n == 1:
        return _finish_spectrum(np.array([m[0, 0]]), np.eye(1))
    d, e, z = _householder_tridiag(m)
    work = np.zeros(n)
    work[: n - 1] = e
    eps = _EPS if tol is None else max(float(tol), _EPS)
    _tridiag_ql(d, work, z, eps)
    return _finish_spectrum(d, z)


def _rotate_sym(m: np.ndarray, v: np.ndarray, p: int, q: int, c: float, s: float) -> None:
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
    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


def jacobi_eigen(a, tol: float | None = None) -> Spectrum:
    """Eigendecomposition by cyclic Jacobi rotations.

    Independent of the tridiagonal route in ``sym_eigen``; quadratically
    convergent and unconditionally orthogonal, so it makes a good oracle.
    """
    m = symmetrize(a)
    n = m.shape[0]
    v = np.eye(n)
    if n == 1:
        return _finish_spectrum(np.diag(m).copy(), v)
    eps = _EPS if tol is None else max(float(tol), _EPS)
    fro = math.sqrt(float(np.sum(m * m)))
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * float(np.sum(np.tril(m, -1) ** 2)))
        if off <= eps * fro:
            return _finish_spectrum(np.diag(m).copy(), v)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                _rotate_sym(m, v, p, q, c, t * c)
    raise NonConvergence(
        f"off-diagonal mass not annihilated after {_JACOBI_MAX_SWEEPS} Jacobi sweeps"
    )


def cholesky(a, pivot_tol: float = PIVOT_TOL) -> np.ndarray:
    """Lower-triangular L with L L^T = A and positive diagonal.

    A pivot at or below ``pivot_tol * max|a_ij|`` raises NotPositiveDefinite;
    this is the positive-definiteness test used throughout the package.
    """
    m = symmetrize(a)
    n = m.shape[0]
    thresh = pivot_tol * max_abs(m)
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
