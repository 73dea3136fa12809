"""Oracles that no gaussdec command runs, kept beside the tests that read them.

* ``bl_ratio`` / ``bl_bound``: the Gaussian Brascamp-Lieb product-integral
  ratio with positive weights b, and the determinant bound that dominates
  its supremum over b (Lieb, Invent. Math. 102, 1990).  Acceptance
  criterion 6 and ``test_verify.TestBrascampLieb`` check one against the
  other.
"""

import math

import numpy as np

from gaussdec import matcore
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
