"""Empirical verification of the decoupling inequality.

Pieces:

* marginal p-norms ||f(sigma Z)||_p for the two test-function families,
  in closed form: absolute normal moments through the Gamma function for
  PolyGauss, and normal tail masses through erfc for indicators;
* seeded, chunked Monte Carlo estimation of E prod f_i(X_i) by sampling
  x = L z with the Cholesky factor L of C and z from numpy's SFC64 bit
  generator: the chunks run concurrently on a thread pool sized by the CPU
  affinity mask, each one in blocks of MC_BLOCK rows drawn, multiplied and
  evaluated in buffers the chunk allocates once, and the estimate is
  bit-identical however they are run.  Versions of gaussdec that drew z
  from PCG64 (numpy's default_rng) gave other estimates for the same seed;
* ``check_inequality`` tying it together: the estimate must not exceed
  Q * prod ||f_i(X_i)||_p by more than three standard errors, with Q either
  the region constant or the classical one.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import decouple
from .errors import InvalidParameter, as_int

INF = math.inf

# Chunk size of the Monte Carlo sampler; part of the reproducibility
# contract (see mc_expectation).
MC_CHUNK = 65536
# Rows a chunk draws and evaluates at a time; not part of the contract, it
# bounds the sampler's memory (see mc_expectation).
MC_BLOCK = 4096
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class Indicator:
    """1 on the open interval (a, b), 0 elsewhere; bounds may be +-inf."""

    a: float
    b: float

    def __post_init__(self):
        if math.isnan(self.a) or math.isnan(self.b) or not self.a < self.b:
            raise InvalidParameter(f"indicator needs a < b, got ({self.a}, {self.b})")

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f(x) as floats, written into ``out`` (and returned) when given."""
        if out is None:
            out = np.empty(np.shape(x))
        return np.logical_and(x > self.a, x < self.b, out=out)


@dataclass(frozen=True)
class PolyGauss:
    """|x|^k exp(-x^2 / s) with integer k >= 0 and s > 0; k = 0 is the
    Gaussian bump exp(-x^2 / s), the JSON kind "gaussbump"."""

    k: int
    s: float

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise InvalidParameter(f"polygauss needs integer k >= 0, got {self.k}")
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise InvalidParameter(f"polygauss needs s > 0, got {self.s}")

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f(x), written into ``out`` (and returned) when given."""
        bump = np.multiply(x, x, out=out)
        # (x*x)/(-s) has the bits of -(x*x)/s: IEEE division is sign-symmetric
        bump /= -self.s
        np.exp(bump, out=bump)
        # |x|^0 * bump has the bits of bump; skipping the product halves the cost
        if self.k:
            bump *= np.abs(x) ** self.k
        return bump


TestFunction = Indicator | PolyGauss


def parse_test_functions(doc) -> list[TestFunction]:
    """Build test functions from their JSON form, e.g.
    [{"kind": "indicator", "a": 0, "b": "inf"}, {"kind": "gaussbump", "s": 1.0}].

    Real fields (indicator bounds, s) are read by ``float``, integer ones (k)
    by ``as_int``; "gaussbump" is PolyGauss with k = 0.
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
                out.append(Indicator(float(entry["a"]), float(entry["b"])))
            elif kind == "gaussbump":
                out.append(PolyGauss(0, float(entry["s"])))
            elif kind == "polygauss":
                out.append(PolyGauss(as_int(entry["k"], "polygauss k"), float(entry["s"])))
            else:
                raise InvalidParameter(f"unknown function kind {kind!r}")
        except InvalidParameter:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(f"malformed function entry: {entry!r}") from exc
    return out


def _normal_mass(a: float, b: float) -> float:
    """P(a < Z < b) for standard normal Z, from the nearer tail so that mass
    far out in either tail keeps its relative accuracy; bounds may be +-inf."""
    r = 1.0 / math.sqrt(2.0)
    if a >= 0.0:
        return 0.5 * (math.erfc(a * r) - math.erfc(b * r))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b * r) - math.erfc(-a * r))
    return 0.5 * (math.erf(b * r) + math.erf(-a * r))


def _log_erfc(x: float) -> float:
    """log erfc(x), also past x of about 26.5, where erfc underflows.

    There it sums the asymptotic series (Abramowitz & Stegun 7.1.23)

        erfc(x) = exp(-x^2) / (x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 x^2)^k,

    whose k-th term is below 1e-17 relative by k = 7 at such x.
    """
    y = math.erfc(x)
    if y >= sys.float_info.min:
        return math.log(y)
    t = 0.5 / (x * x)
    term = 1.0
    series = 1.0
    for k in range(1, 9):
        term *= -(2 * k - 1) * t
        series += term
    return -x * x - math.log(x) - 0.5 * math.log(math.pi) + math.log(series)


def _log_normal_mass(a: float, b: float) -> float:
    """log P(a < Z < b) for standard normal Z, from the nearer tail in log
    space: 0.5 erfc(a') (1 - erfc(b')/erfc(a')) with a' < b' the scaled
    bounds of the interval reflected into the upper tail.  It survives where
    the mass itself underflows (an interval beyond about 37.5); -inf when
    the mass is below what the difference of tails resolves."""
    r = 1.0 / math.sqrt(2.0)
    if b <= 0.0:
        a, b = -b, -a
    log_a = _log_erfc(a * r)
    gap = _log_erfc(b * r) - log_a
    if not gap < 0.0:
        return -INF
    return math.log(0.5) + log_a + math.log(-math.expm1(gap))


def marginal_pnorm(f: TestFunction, sigma: float, p: float) -> float:
    """(E |f(sigma Z)|^p)^(1/p) for standard normal Z, in closed form.

    Indicators: the normal mass of (a/sigma, b/sigma), taken from the nearer
    tail with erfc; a mass below the normal float range (an interval beyond
    about 37.5 sigma) is taken in log space, so that only log mass / p is
    exponentiated.  PolyGauss: with q = k p and alpha = 1/2 + p sigma^2 / s,
    the absolute normal moment

        E |sigma Z|^q exp(-p sigma^2 Z^2 / s)
            = sigma^q Gamma((q + 1)/2) alpha^(-(q + 1)/2) / sqrt(2 pi),

    evaluated in log space so that only log E / p is exponentiated: large q
    overflows no intermediate, and only a norm beyond the float range raises
    OverflowError.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    if not p >= 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    if isinstance(f, Indicator):
        a, b = f.a / sigma, f.b / sigma
        mass = max(0.0, _normal_mass(a, b))
        if mass >= sys.float_info.min:
            return mass ** (1.0 / p)
        return math.exp(_log_normal_mass(a, b) / p)
    q = f.k * p
    scale = (0.5 + p * sigma * sigma / f.s) ** -0.5
    log_moment = (
        math.log(scale)
        - 0.5 * math.log(2.0 * math.pi)
        + q * math.log(sigma * scale)
        + math.lgamma((q + 1.0) / 2.0)
    )
    return math.exp(log_moment / p)


def mc_expectation(
    x: decouple.GaussianVector,
    fs: list[TestFunction],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean and standard error of prod_i f_i(X_i).

    ``samples`` (at least MIN_SAMPLES) and ``seed`` (at least 0) are read
    with ``as_int``, so 1e6 is a count and 1.5 is InvalidParameter.

    Draws x = L z with L the Cholesky factor of C and z standard normal.
    Reproducibility contract: the sample space is split into chunks of
    MC_CHUNK draws (last chunk smaller); chunk i draws its normals from
    numpy's SFC64 bit generator seeded with the i-th child of
    SeedSequence(seed), and each chunk's sum and centred sum of squares are
    merged in chunk order, so the estimate is bit-identical for a given
    (seed, samples) no matter how the chunks are executed.  The generator
    is part of the contract: versions that drew from PCG64 (numpy's
    default_rng) gave other estimates for the same (seed, samples).  The
    sums of squares are held at a power-of-two scale (see _chunk_sums), so
    the standard error neither underflows to 0 nor overflows while the
    products are finite.

    Execution: the chunks run concurrently on a thread pool with one worker
    per CPU in the process's affinity mask (never more than there are
    chunks), and their sums are merged in chunk order.  Each chunk draws and
    evaluates its normals in blocks of MC_BLOCK rows, reusing one set of
    buffers, so memory is bounded by about
    workers x (2 MC_BLOCK n + MC_CHUNK + MC_BLOCK) floats whatever the
    sample count.  An exception in a worker, or one raised in the calling
    thread (an alarm, an interrupt), cancels the chunks not yet started and
    stops the running ones at their next block, so the call ends within
    about one block.
    """
    samples = as_int(samples, "samples")
    seed = as_int(seed, "seed")
    if samples < MIN_SAMPLES:
        raise InvalidParameter(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if len(fs) != x.n:
        raise InvalidParameter(f"need {x.n} test functions, got {len(fs)}")
    low = x.cholesky_factor
    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [MC_CHUNK] * (n_chunks - 1) + [samples - MC_CHUNK * (n_chunks - 1)]
    workers = min(_cpu_count(), n_chunks)
    stop = threading.Event()
    # Imported here: concurrent.futures and its thread module (with queue)
    # take about 3 ms to import, which only the commands that sample pay.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        futures = [
            pool.submit(_chunk_sums, low, fs, m, child, stop)
            for m, child in zip(sizes, children)
        ]
        sums = [future.result() for future in futures]
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
    total = 0.0
    for chunk_sum, _, _ in sums:
        total += chunk_sum
    mean = total / samples
    # Chan, Golub and LeVeque's merge of the chunks' centred sums of squares;
    # unlike one-pass sums of v and v*v it does not cancel when v is nearly
    # constant.  It runs at the scale 2^scale of the largest chunk deviation
    # or chunk-mean gap, so squares neither underflow nor overflow; a zero
    # sum or gap sets no scale.
    gaps = [chunk_sum / m - mean for m, (chunk_sum, _, _) in zip(sizes, sums)]
    scale = max(
        [exp for _, m2, exp in sums if m2] + [math.frexp(gap)[1] for gap in gaps if gap],
        default=0,
    )
    m2 = 0.0
    for m, gap, (_, chunk_m2, exp) in zip(sizes, gaps, sums):
        m2 += math.ldexp(chunk_m2, 2 * (exp - scale)) + m * math.ldexp(gap, -scale) ** 2
    var = m2 / (samples - 1)
    return mean, math.ldexp(math.sqrt(var / samples), scale)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_sums(
    low: np.ndarray,
    fs: list[TestFunction],
    m: int,
    seed: np.random.SeedSequence,
    stop: threading.Event,
) -> tuple[float, float, int]:
    """sum(v), the scaled centred sum of squares sum((v - mean(v))^2) / 4^exp
    and exp over one chunk of m draws, v = prod_i f_i(X_i); NaNs, abandoning
    the chunk, once ``stop`` is set by a failed call.  2^exp is the binary
    exponent of max |v - mean(v)| (exp = 0 when v is constant): scaling by a
    power of two is exact, so the scaled sum has the bits of the unscaled
    one over 4^exp wherever that one is a normal float, and it lies in
    [1/4, m) for a nonconstant v, even where that one would underflow to 0
    or overflow.

    The normals come from numpy's SFC64 bit generator seeded with the
    chunk's SeedSequence child.  The chunk allocates its buffers once and
    reuses them for every block of MC_BLOCK rows: the normals are drawn into
    z by consecutive standard_normal calls, which consume the stream exactly
    as one (m, n) call does, and one matmul of one shape lands x = L z^T as
    n contiguous rows with the bits of the whole-chunk product; a last,
    shorter block's unused columns are computed and ignored.  Every f_i
    reads a row and writes into one work row, in the order
    ((1 * f_1) * f_2) * ... of the whole-chunk evaluation.
    """
    rng = np.random.Generator(np.random.SFC64(seed))
    n = low.shape[0]
    vals = np.empty(m)
    z = np.zeros((MC_BLOCK, n))  # unused rows of a short chunk: zeros, never NaN or inf
    x = np.empty((n, MC_BLOCK))
    work = np.empty(MC_BLOCK)
    for start in range(0, m, MC_BLOCK):
        if stop.is_set():
            return math.nan, math.nan, 0
        rows = min(MC_BLOCK, m - start)
        rng.standard_normal(out=z[:rows])
        np.matmul(low, z.T, out=x)
        prod = vals[start : start + rows]
        prod.fill(1.0)
        for f, row in zip(fs, x[:, :rows]):
            prod *= f.evaluate(row, work[:rows])
    total = float(np.sum(vals))
    vals -= total / m
    np.abs(vals, out=vals)
    exp = math.frexp(float(np.max(vals)))[1]
    np.ldexp(vals, -exp, out=vals)
    vals *= vals
    return total, float(np.sum(vals)), exp


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
        doc = asdict(self)
        if math.isinf(self.margin_sigmas):
            doc["margin_sigmas"] = "inf" if self.margin_sigmas > 0 else "-inf"
        return doc


def check_inequality(
    x: decouple.GaussianVector,
    fs: list[TestFunction],
    p: float,
    samples: int = 1_000_000,
    seed: int = 0,
    constant: str = "new",
    beta: float | None = None,
) -> VerificationResult:
    """End-to-end test of E prod f_i(X_i) <= Q(X, p) * prod ||f_i(X_i)||_p.

    ``constant="new"`` uses the region constant (p must be admissible with
    margin, else NotInRegion propagates).  ``constant="old"`` uses the
    classical constant with beta_bar = max(variance ratio, beta), or the
    optimal beta_bar when ``beta`` is None (NotAdmissibleClassical propagates
    when p is below the threshold).  Raises InvalidParameter unless p passes
    ``decouple.check_exponent`` and a given ``beta`` passes
    ``decouple.check_beta``, whichever the constant.
    """
    decouple.check_exponent(p)
    if beta is not None:
        decouple.check_beta(beta)
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
        rhs *= marginal_pnorm(f, float(sigma), p)
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
