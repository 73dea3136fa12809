"""Nonsingularity certificates and determinant lower bounds.

Three classical results about diagonally dominant matrices, applied in the
package to the shifted matrix p*diag(gamma) - C:

* strict dominance in every row guarantees a nonzero determinant and the
  product lower bound |det A| >= prod_i (|a_ii| - sum_{j != i} |a_ij|);
* for an irreducible matrix (off-diagonal nonzero pattern strongly
  connected) weak dominance with at least one strict row already forces
  det A != 0 -- but no lower bound is available in that case;
* under the classical exponent condition p >= beta_bar * p(X) the shifted
  matrix is strictly dominant and det(p*diag(gamma) - C) >=
  p^n (1 - 1/beta_bar)^n prod(sigma_i^2).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

import numpy as np

from . import decouple, matcore
from .errors import DegenerateBeta, NotAdmissibleClassical, NotApplicable


@dataclass(frozen=True, eq=False)
class DominanceProfile:
    """Per-row diagonal magnitudes versus off-diagonal absolute row sums."""

    diag_abs: np.ndarray
    offdiag_rowsums: np.ndarray
    strict_rows: frozenset[int]

    @property
    def n(self) -> int:
        return self.diag_abs.size

    @property
    def strictly_dominant(self) -> bool:
        return len(self.strict_rows) == self.n

    @property
    def weakly_dominant(self) -> bool:
        return bool(np.all(self.diag_abs >= self.offdiag_rowsums))


def dominance_profile(a) -> DominanceProfile:
    """Row-dominance profile of a square matrix.

    Comparisons are exact floating-point: a tie is reported as non-strict,
    so dominance is never claimed spuriously.
    """
    m = matcore.as_matrix(a)
    diag_abs = np.abs(np.diag(m)).copy()
    offdiag = np.sum(np.abs(m), axis=1) - diag_abs
    strict = frozenset(i for i in range(m.shape[0]) if diag_abs[i] > offdiag[i])
    diag_abs.setflags(write=False)
    offdiag.setflags(write=False)
    return DominanceProfile(diag_abs=diag_abs, offdiag_rowsums=offdiag, strict_rows=strict)


def ostrowski_lower_bound(a) -> float:
    """prod_i (|a_ii| - sum_{j != i} |a_ij|) <= |det A|.

    Requires strict diagonal dominance in every row; raises NotApplicable
    otherwise.  A product past the float range is inf, as in ``lu_det``.
    """
    prof = dominance_profile(a)
    if not prof.strictly_dominant:
        raise NotApplicable("matrix is not strictly diagonally dominant")
    with np.errstate(over="ignore"):
        return float(np.prod(prof.diag_abs - prof.offdiag_rowsums))


def cornerstone_bound(x: decouple.GaussianVector, p: float, beta_bar_value: float) -> float:
    """p^n (1 - 1/beta_bar)^n prod(sigma_i^2), a lower bound for
    det(p*diag(gamma) - C) under the classical hypothesis, which
    ``decouple.check_classical`` enforces."""
    decouple.check_classical(x, p, beta_bar_value)
    n = x.n
    return float(p**n * (1.0 - 1.0 / beta_bar_value) ** n * np.prod(x.gamma))


class TausskyVerdict(enum.Enum):
    NONSINGULAR = "NonsingularByTaussky"
    NOT_APPLICABLE = "NotApplicable"


def _strongly_connected(m: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge i -> j when a_ij != 0
    (i != j): every node is reachable from node 0 both along the edges and
    against them, found by boolean frontier sweeps.  The diagonal is read
    too, but a self-loop reaches nothing new.  Exact zero test: the pattern
    is combinatorial, no tolerance applies."""
    edges = m != 0.0
    return _reaches_all(edges) and _reaches_all(edges.T)


def _reaches_all(edges: np.ndarray) -> bool:
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def taussky_test(a) -> TausskyVerdict:
    """Nonsingularity certificate for irreducible weakly dominant matrices.

    NONSINGULAR iff (a) the off-diagonal nonzero pattern is strongly
    connected and (b) |a_ii| >= sum_{j != i} |a_ij| in every row with strict
    inequality in at least one.  No determinant lower bound comes with this
    verdict.
    """
    m = matcore.as_matrix(a)
    if not _strongly_connected(m):
        return TausskyVerdict.NOT_APPLICABLE
    prof = dominance_profile(m)
    if prof.weakly_dominant and len(prof.strict_rows) >= 1:
        return TausskyVerdict.NONSINGULAR
    return TausskyVerdict.NOT_APPLICABLE


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Dominance-based diagnostics for the shifted matrix p*diag(gamma) - C.

    ``ostrowski_bound`` is present iff the matrix is strictly dominant;
    ``cornerstone_bound`` iff the classical exponent condition holds for the
    supplied beta.
    """

    strictly_dominant: bool
    ostrowski_bound: float | None
    taussky_verdict: str
    cornerstone_bound: float | None
    actual_det: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def report(x: decouple.GaussianVector, p: float, beta: float = 1.0) -> BoundsReport:
    """Evaluate all applicable bounds on p*diag(gamma) - C."""
    m = decouple.shifted_matrix(x, p)
    try:
        ostrowski: float | None = ostrowski_lower_bound(m)
    except NotApplicable:
        ostrowski = None
    try:
        corner: float | None = cornerstone_bound(x, p, decouple.beta_bar(x, beta))
    except (DegenerateBeta, NotAdmissibleClassical):
        corner = None
    return BoundsReport(
        strictly_dominant=ostrowski is not None,
        ostrowski_bound=ostrowski,
        taussky_verdict=taussky_test(m).value,
        cornerstone_bound=corner,
        actual_det=matcore.lu_det(m),
    )
