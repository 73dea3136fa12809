"""Empirical verification of the decoupling inequality.

Pieces:

* closed-form Gaussian product-integral ratios and their determinant bound
  (``bl_ratio`` / ``bl_bound``) -- the ratio, as a function of the positive
  weights b, never exceeds the bound, since the bound dominates the supremum
  over b;
* marginal p-norms ||f(sigma Z)||_p for the three test-function families,
  by Gauss-Hermite quadrature for the smooth ones and by exact normal CDF
  differences for indicators;
* seeded, chunked Monte Carlo estimation of E prod f_i(X_i) by sampling
  x = L z with the Cholesky factor L of C;
* ``check_inequality`` tying it together: the estimate must not exceed
  Q * prod ||f_i(X_i)||_p by more than three standard errors, with Q either
  the region constant or the classical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import decouple, matcore
from .errors import InvalidParameter

INF = math.inf

# Chunk size of the Monte Carlo sampler; part of the reproducibility
# contract (see mc_expectation).
MC_CHUNK = 65536
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class Indicator:
    """1 on the open interval (a, b), 0 elsewhere; bounds may be +-inf."""

    a: float
    b: float

    def __post_init__(self):
        if math.isnan(self.a) or math.isnan(self.b) or not self.a < self.b:
            raise InvalidParameter(f"indicator needs a < b, got ({self.a}, {self.b})")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return ((x > self.a) & (x < self.b)).astype(float)


@dataclass(frozen=True)
class GaussBump:
    """exp(-x^2 / s) with s > 0."""

    s: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise InvalidParameter(f"gaussbump needs s > 0, got {self.s}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-(x * x) / self.s)


@dataclass(frozen=True)
class PolyGauss:
    """|x|^k exp(-x^2 / s) with integer k >= 0 and s > 0."""

    k: int
    s: float

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise InvalidParameter(f"polygauss needs integer k >= 0, got {self.k}")
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise InvalidParameter(f"polygauss needs s > 0, got {self.s}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x) ** self.k * np.exp(-(x * x) / self.s)


TestFunction = Indicator | GaussBump | PolyGauss


def parse_test_functions(doc) -> list[TestFunction]:
    """Build test functions from their JSON form, e.g.
    [{"kind": "indicator", "a": 0, "b": "inf"}, {"kind": "gaussbump", "s": 1.0}].
    """
    if not isinstance(doc, list) or not doc:
        raise InvalidParameter("functions document must be a nonempty JSON array")
    out: list[TestFunction] = []
    for entry in doc:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise InvalidParameter(f"malformed function entry: {entry!r}")
        kind = str(entry["kind"]).lower()
        try:
            if kind == "indicator":
                out.append(Indicator(_bound(entry["a"]), _bound(entry["b"])))
            elif kind == "gaussbump":
                out.append(GaussBump(float(entry["s"])))
            elif kind == "polygauss":
                out.append(PolyGauss(int(entry["k"]), float(entry["s"])))
            else:
                raise InvalidParameter(f"unknown function kind {kind!r}")
        except (KeyError, TypeError) as exc:
            raise InvalidParameter(f"malformed function entry: {entry!r}") from exc
    return out


def _bound(v) -> float:
    if isinstance(v, str):
        text = v.strip().lower()
        if text in ("inf", "+inf", "infinity"):
            return INF
        if text in ("-inf", "-infinity"):
            return -INF
        raise InvalidParameter(f"unrecognized bound {v!r}")
    return float(v)


def _phi(z: float) -> float:
    """Standard normal CDF; exact at +-inf."""
    if math.isinf(z):
        return 1.0 if z > 0 else 0.0
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@lru_cache(maxsize=8)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def marginal_pnorm(f: TestFunction, sigma: float, p: float, nodes: int = 64) -> float:
    """(E |f(sigma Z)|^p)^(1/p) for standard normal Z.

    Indicators use the exact CDF difference (quadrature on a discontinuous
    integrand loses accuracy).  The smooth families use Gauss-Hermite
    quadrature after absorbing their entire Gaussian part into the weight:
    with alpha = 1/2 + p sigma^2 / s the substitution z = t / sqrt(alpha)
    turns the integrand into |sigma t / sqrt(alpha)|^(k p) against exp(-t^2),
    which the rule integrates exactly whenever k*p is an even integer below
    twice the node count, and node-count-independently for k = 0.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    if not p >= 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    if nodes < 16:
        raise InvalidParameter(f"nodes must be >= 16, got {nodes}")
    if isinstance(f, Indicator):
        mass = max(0.0, _phi(f.b / sigma) - _phi(f.a / sigma))
        return mass ** (1.0 / p)
    power = f.k if isinstance(f, PolyGauss) else 0
    alpha = 0.5 + p * sigma * sigma / f.s
    scale = 1.0 / math.sqrt(alpha)
    t, w = _hermite_rule(int(nodes))
    vals = np.abs(sigma * scale * t) ** (power * p)
    moment = scale / math.sqrt(2.0 * math.pi) * float(w @ vals)
    return max(0.0, moment) ** (1.0 / p)


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
    det_shifted = float(np.prod(np.diag(low))) ** 2
    return float(
        (2.0 * math.pi) ** ((n / 2.0) * (1.0 - 1.0 / p))
        * p ** (n / (2.0 * p))
        * np.prod(bvec ** (1.0 / (2.0 * p)))
        / math.sqrt(det_shifted)
    )


def bl_bound(a, p: float) -> float:
    """(2 pi)^((n/2)(1-1/p)) / det(A)^((1/2)(1-1/p)): dominates bl_ratio for
    every positive weight vector b."""
    if not p >= 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    m = matcore.symmetrize(a)
    low = matcore.cholesky(m)
    det_a = float(np.prod(np.diag(low))) ** 2
    n = m.shape[0]
    return float(
        (2.0 * math.pi) ** ((n / 2.0) * (1.0 - 1.0 / p)) / det_a ** (0.5 * (1.0 - 1.0 / p))
    )


def mc_expectation(
    x: decouple.GaussianVector,
    fs: list[TestFunction],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean and standard error of prod_i f_i(X_i).

    Draws x = L z with L the Cholesky factor of C and z standard normal.
    Reproducibility contract: the sample space is split into chunks of
    MC_CHUNK draws (last chunk smaller); chunk i uses the i-th child of
    numpy's SeedSequence(seed) and results are merged by count-weighted sums,
    so the estimate is bit-identical for a given (seed, samples) no matter
    how the chunks are executed.
    """
    if samples < MIN_SAMPLES:
        raise InvalidParameter(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if len(fs) != x.n:
        raise InvalidParameter(f"need {x.n} test functions, got {len(fs)}")
    low = x.cholesky_factor
    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    total = 0.0
    total_sq = 0.0
    left = samples
    for child in children:
        m = min(MC_CHUNK, left)
        left -= m
        rng = np.random.default_rng(child)
        z = rng.standard_normal((m, x.n))
        xs = z @ low.T
        vals = np.ones(m)
        for j, f in enumerate(fs):
            vals *= f.evaluate(xs[:, j])
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(var / samples)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one Monte Carlo inequality check.

    ``passed`` is lhs_estimate <= rhs_bound + 3 * lhs_stderr;
    ``margin_sigmas`` is (rhs - lhs) / stderr (+-inf when stderr is 0).
    """

    lhs_estimate: float
    lhs_stderr: float
    rhs_bound: float
    margin_sigmas: float
    samples: int
    seed: int
    passed: bool

    def to_json_dict(self) -> dict:
        margin = self.margin_sigmas
        if math.isinf(margin):
            margin = "inf" if margin > 0 else "-inf"
        return {
            "lhs_estimate": self.lhs_estimate,
            "lhs_stderr": self.lhs_stderr,
            "rhs_bound": self.rhs_bound,
            "margin_sigmas": margin,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
        }


def check_inequality(
    x: decouple.GaussianVector,
    fs: list[TestFunction],
    p: float,
    samples: int = 1_000_000,
    seed: int = 0,
    constant: str = "new",
    beta: float | None = None,
    nodes: int = 64,
) -> VerificationResult:
    """End-to-end test of E prod f_i(X_i) <= Q(X, p) * prod ||f_i(X_i)||_p.

    ``constant="new"`` uses the region constant (p must be admissible with
    margin, else NotInRegion propagates).  ``constant="old"`` uses the
    classical constant with beta_bar = max(variance ratio, beta), or the
    optimal beta_bar when ``beta`` is None (NotAdmissibleClassical propagates
    when p is below the threshold).
    """
    if len(fs) != x.n:
        raise InvalidParameter(f"need {x.n} test functions, got {len(fs)}")
    if constant == "new":
        q = decouple.q_new(x, p)
    elif constant == "old":
        q = decouple.q_old(x, p, decouple.classical_beta_bar(x, p, beta))
    else:
        raise InvalidParameter(f"constant must be 'new' or 'old', got {constant!r}")
    rhs = q
    for f, sigma in zip(fs, x.sigma, strict=True):
        rhs *= marginal_pnorm(f, float(sigma), p, nodes)
    lhs, stderr = mc_expectation(x, fs, samples, seed)
    if stderr > 0.0:
        margin = (rhs - lhs) / stderr
    else:
        margin = INF if rhs >= lhs else -INF
    return VerificationResult(
        lhs_estimate=lhs,
        lhs_stderr=stderr,
        rhs_bound=float(rhs),
        margin_sigmas=margin,
        samples=int(samples),
        seed=int(seed),
        passed=bool(lhs <= rhs + 3.0 * stderr),
    )
