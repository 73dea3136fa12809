"""Deterministic covariance-matrix generators for tests, sweeps and examples.

Every family generates a matrix that passes ``decouple.from_covariance``;
invalid parameters raise InvalidParameter instead of producing a non-SPD
matrix.  Generation is pure: the same family instance always yields the
identical matrix, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import matcore
from .errors import InvalidParameter, NotPositiveDefinite, as_int


_RANDOM_SPD_EPS = 1e-8


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameter(message)


def _check_spd(m: np.ndarray, what: str) -> np.ndarray:
    try:
        matcore.cholesky(m)
    except NotPositiveDefinite as exc:
        raise InvalidParameter(f"{what} does not define an SPD matrix: {exc}") from exc
    return m


@dataclass(frozen=True)
class AR1:
    """C_ij = rho^|i-j| with |rho| < 1."""

    n: int
    rho: float

    def matrix(self) -> np.ndarray:
        _require(self.n >= 1, f"n must be >= 1, got {self.n}")
        _require(abs(self.rho) < 1.0, f"ar1 needs |rho| < 1, got {self.rho}")
        idx = np.arange(self.n)
        return np.power(float(self.rho), np.abs(idx[:, None] - idx[None, :]))


@dataclass(frozen=True)
class Equicorrelated:
    """Unit diagonal, rho everywhere else; needs -1/(n-1) < rho < 1."""

    n: int
    rho: float

    def matrix(self) -> np.ndarray:
        _require(self.n >= 1, f"n must be >= 1, got {self.n}")
        _require(abs(self.rho) < 1.0, f"equicorrelated needs |rho| < 1, got {self.rho}")
        if self.n > 1:
            _require(
                self.rho > -1.0 / (self.n - 1),
                f"equicorrelated needs rho > -1/(n-1) = {-1.0 / (self.n - 1):.6g}, got {self.rho}",
            )
        m = np.full((self.n, self.n), float(self.rho))
        np.fill_diagonal(m, 1.0)
        return m


@dataclass(frozen=True)
class Toeplitz:
    """Symmetric Toeplitz matrix from its first row (must come out SPD)."""

    first_row: tuple[float, ...]

    def matrix(self) -> np.ndarray:
        row = np.asarray(self.first_row, dtype=float).ravel()
        _require(
            row.size >= 1 and bool(np.all(np.isfinite(row))),
            "first_row must be finite and nonempty",
        )
        idx = np.arange(row.size)
        m = row[np.abs(idx[:, None] - idx[None, :])]
        return _check_spd(m, "toeplitz first_row")


@dataclass(frozen=True)
class RandomSPD:
    """G^T G + eps*I for standard normal G, spectrum shifted to hit the
    target condition number exactly; deterministic in ``seed``."""

    n: int
    seed: int
    cond: float = 10.0

    def matrix(self) -> np.ndarray:
        _require(self.n >= 2, f"randomspd needs n >= 2, got {self.n}")
        _require(
            self.cond > 1.0 and np.isfinite(self.cond),
            f"randomspd needs cond > 1, got {self.cond}",
        )
        rng = np.random.default_rng(self.seed)
        g = rng.standard_normal((self.n, self.n))
        base = g.T @ g
        base += _RANDOM_SPD_EPS * matcore.max_abs(base) * np.eye(self.n)
        base = (base + base.T) / 2.0
        eigs = matcore.sym_eigvals(base)
        lmin, lmax = float(eigs[0]), float(eigs[-1])
        _require(lmax > lmin, "randomspd spectrum is degenerate; try another seed")
        # Affine spectral shift: cond((A + c I)) = target exactly.
        shift = (lmax - self.cond * lmin) / (self.cond - 1.0)
        m = base + shift * np.eye(self.n)  # exactly symmetric, as base is
        return _check_spd(m, "randomspd")


@dataclass(frozen=True)
class Diagonal:
    """diag(gamma) with strictly positive entries."""

    gamma: tuple[float, ...]

    def matrix(self) -> np.ndarray:
        gamma = np.asarray(self.gamma, dtype=float).ravel()
        _require(
            gamma.size >= 1 and bool(np.all(np.isfinite(gamma))) and bool(np.all(gamma > 0.0)),
            "diagonal needs strictly positive finite variances",
        )
        return np.diag(gamma)


@dataclass(frozen=True)
class Scaled:
    """Conjugation of a base family by diag(sqrt(variances))."""

    base: "CovFamily"
    variances: tuple[float, ...]

    def matrix(self) -> np.ndarray:
        v = np.asarray(self.variances, dtype=float).ravel()
        _require(
            v.size >= 1 and bool(np.all(np.isfinite(v))) and bool(np.all(v > 0.0)),
            "scaled needs strictly positive finite variances",
        )
        base = self.base.matrix()
        _require(v.size == base.shape[0], "variances length must match the base family dimension")
        root = np.sqrt(v)
        return root[:, None] * base * root[None, :]


CovFamily = Union[AR1, Equicorrelated, Toeplitz, RandomSPD, Diagonal, Scaled]


def generate(fam: CovFamily) -> np.ndarray:
    """Generate the covariance matrix of a family descriptor."""
    return fam.matrix()


def family_from_json(doc: dict) -> CovFamily:
    """Parse a family descriptor; raises InvalidParameter on malformed input."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidParameter(f"family descriptor must be an object with a 'kind': {doc!r}")
    kind = str(doc["kind"]).lower()
    try:
        if kind == "ar1":
            return AR1(n=as_int(doc["n"], "n"), rho=float(doc["rho"]))
        if kind == "equicorrelated":
            return Equicorrelated(n=as_int(doc["n"], "n"), rho=float(doc["rho"]))
        if kind == "toeplitz":
            return Toeplitz(first_row=tuple(float(v) for v in doc["first_row"]))
        if kind == "randomspd":
            return RandomSPD(
                n=as_int(doc["n"], "n"),
                seed=as_int(doc["seed"], "seed"),
                cond=float(doc.get("cond", 10.0)),
            )
        if kind == "diagonal":
            return Diagonal(gamma=tuple(float(v) for v in doc["gamma"]))
        if kind == "scaled":
            return Scaled(
                base=family_from_json(doc["base"]),
                variances=tuple(float(v) for v in doc["variances"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed family descriptor {doc!r}: {exc}") from exc
    raise InvalidParameter(f"unknown family kind {doc['kind']!r}")
