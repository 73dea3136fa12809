"""Empirical verification of the decoupling inequality.

Pieces:

* marginal p-norms ||f(sigma Z)||_p for the two test-function families,
  in closed form and in log space throughout: log absolute normal moments
  through lgamma for PolyGauss, and log normal masses for indicators (erf
  for an interval that straddles 0, erfc tails otherwise), so that only
  log E / p is exponentiated;
* ``mc_expectation``, the one Monte Carlo estimator of E prod f_i(X_i):
  the Gaussian bumps (PolyGauss with k = 0) are integrated exactly
  (``_tilt``), and the other coordinates are sampled in seeded chunks,
  indicators first, each only for the samples that every earlier indicator
  kept.  Its docstring holds the sampler's reproducibility contract;
* ``check_inequality`` tying it together: the estimate must not exceed
  Q * prod ||f_i(X_i)||_p by more than three standard errors, with Q either
  the region constant or the classical one.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import decouple, matcore
from .errors import InvalidParameter, as_int

INF = math.inf
_LOG_MAX = math.log(sys.float_info.max)

# Chunk size of the Monte Carlo sampler; part of the reproducibility
# contract (see mc_expectation).
MC_CHUNK = 65536
# Sizes a chunk's buffers: n x MC_BLOCK floats each, which bound the rows a
# block draws and evaluates at a time; not part of the contract, it bounds
# the sampler's memory (see mc_expectation and _chunk_sums).
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

    def inside(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The mask a < x < b, written into the bool array ``out`` (and
        returned); the sampler's only evaluation of an indicator.  Both
        bounds are always compared, so +-inf and NaN lie outside whatever
        the bounds."""
        return np.logical_and(np.greater(x, self.a), np.less(x, self.b), out=out)


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
        """f(x), written into ``out`` (and returned) when given.  Only the
        tests reach the k = 0 case, as the plain-sampling reference for
        ``_tilt``'s exact integration of the Gaussian bumps; the sampler
        evaluates k > 0 alone.

        The exponent x^2 / (k s) (x^2 / s for k = 0) is x*x / (k s) where
        s (746 + k/2 log M) < M, M the largest float: there k s is finite,
        and x*x overflows only at |x| >= sqrt(M), beyond the maximum of f,
        where f underflows to 0 anyway.  For larger s it is (x / c)^2 with
        c = sqrt(max(k, 1)) sqrt(s), which overflows only where the
        exponent itself does."""
        k = max(self.k, 1)
        with np.errstate(over="ignore"):
            if self.s * (746.0 + 0.5 * self.k * _LOG_MAX) < sys.float_info.max:
                bump = np.multiply(x, x, out=out)
                # (x*x)/(-t) has the bits of -(x*x)/t: IEEE division is
                # sign-symmetric
                bump /= -(k * self.s)
            else:
                bump = np.divide(x, math.sqrt(k) * math.sqrt(self.s), out=out)
                bump *= bump
                np.negative(bump, out=bump)
        np.exp(bump, out=bump)
        if self.k:
            # (|x| exp(-x^2 / (k s)))^k: the base stays below sqrt(k s / (2e)),
            # so no |x|^k overflows to inf against an exp of 0 (inf * 0 = NaN)
            bump *= np.abs(x)
            bump **= self.k
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
    """log P(a < Z < b) for standard normal Z; bounds may be +-inf.

    An interval that straddles 0 is log(0.5 (erf(b') + erf(-a'))) with
    a', b' the scaled bounds, a sum of two positive terms in which nothing
    cancels.  Any other interval is reflected into the upper tail and
    taken from there in log space, 0.5 erfc(a') (1 - erfc(b')/erfc(a')) with
    a' < b', so that it survives where the mass itself underflows (an
    interval beyond about 37.5); -inf when the mass is below what the
    difference of tails resolves.  On a narrow interval, w (m + 1) <= 2/5
    with w = b' - a' and m the midpoint, that difference cancels (its
    relative error grows like m eps / w), so the mass is the Taylor series
    of the density phi about m,

        w phi(m) sum_{n = 0, 2, .., 8} He_n(m) (w/2)^n / (n + 1)!,

    He the probabilists' Hermite polynomials, summed by Clenshaw's
    recurrence; the next term is below 1e-12 relative there."""
    r = 1.0 / math.sqrt(2.0)
    if a < 0.0 < b:
        return math.log(0.5 * (math.erf(b * r) + math.erf(-a * r)))
    if b <= 0.0:
        a, b = -b, -a
    w = b - a
    m = 0.5 * (a + b)
    if 0.0 < w and w * (m + 1.0) <= 0.4:
        coef = [0.0 if n % 2 else (0.5 * w) ** n / math.factorial(n + 1) for n in range(9)]
        series = float(np.polynomial.hermite_e.hermeval(m, coef))
        return math.log(w) - 0.5 * m * m - 0.5 * math.log(2.0 * math.pi) + math.log(series)
    log_a = _log_erfc(a * r)
    gap = _log_erfc(b * r) - log_a
    if not gap < 0.0:
        return -INF
    return math.log(0.5) + log_a + math.log(-math.expm1(gap))


def marginal_pnorm(f: TestFunction, sigma: float, p: float) -> float:
    """(E |f(sigma Z)|^p)^(1/p) for standard normal Z, in closed form.

    Indicators: the log normal mass of (a/sigma, b/sigma) by
    ``_log_normal_mass``.  PolyGauss: with q = k p and
    alpha = 1/2 + p sigma^2 / s, the log of the absolute normal moment

        E |sigma Z|^q exp(-p sigma^2 Z^2 / s)
            = sigma^q Gamma((q + 1)/2) alpha^(-(q + 1)/2) / sqrt(2 pi).

    Either way only log E / p is exponentiated: a mass below the normal
    float range (an interval beyond about 37.5 sigma) keeps its norm, large
    q overflows no intermediate, and only a norm beyond the float range
    raises OverflowError.  log alpha is formed from logs too, since
    p sigma^2 / s can leave the float range where the norm does not.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    if not p >= 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    if isinstance(f, Indicator):
        log_moment = _log_normal_mass(f.a / sigma, f.b / sigma)
    else:
        q = f.k * p
        # log alpha = logaddexp(log(1/2), log(p sigma^2 / s))
        t = math.log(p) + 2.0 * math.log(sigma) - math.log(f.s)
        half = -math.log(2.0)
        log_alpha = max(t, half) + math.log1p(math.exp(-abs(t - half)))
        log_moment = (
            -0.5 * log_alpha
            - 0.5 * math.log(2.0 * math.pi)
            + q * (math.log(sigma) - 0.5 * log_alpha)
            + math.lgamma((q + 1.0) / 2.0)
        )
    return math.exp(log_moment / p)


def mc_expectation(
    x: decouple.GaussianVector,
    fs: list[TestFunction],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate and standard error of E prod_i f_i(X_i).

    ``samples`` (at least MIN_SAMPLES) and ``seed`` (at least 0) are read
    with ``as_int``, so 1e6 is a count and 1.5 is InvalidParameter.

    The Gaussian bumps (PolyGauss with k = 0) are integrated exactly and the
    full-line indicators, the constant 1, are left out (``_tilt``;
    exponential tilting, Owen, *Monte Carlo theory, methods and examples*,
    ch. 8-9): the estimate is kappa times the sample mean of the other
    factors' product over the other coordinates given the bumps, and the
    standard error is kappa times that of the sample mean.  With nothing
    left to sample the estimate is kappa (1 without a bump), with a
    standard error of 0, and nothing is drawn.

    Draws x = L z with L the Cholesky factor of the sampled coordinates'
    covariance, the indicators first, and z standard normal.  Indicator
    coordinates are drawn first, each only for the samples that every
    earlier indicator kept; the other coordinates are drawn for the
    survivors alone, and a dead sample's product is 0.  This is plain
    Monte Carlo, with the distribution and variance of sampling every
    coordinate: it only draws no normals for samples that are already 0.

    Reproducibility contract:

    * chunks: chunk i = 0, 1, .. holds min(MC_CHUNK, samples - i * MC_CHUNK)
      of the samples, while that is positive;
    * streams: every stream is numpy's SFC64 bit generator seeded with
      SeedSequence(seed, spawn_key=key), the key (i, j) for indicator
      coordinate j of chunk i and (i,) for its other coordinates.  Key (i,)
      is the i-th child that SeedSequence(seed).spawn gives, and (i, j) the
      j-th child of that one.  Stream (i, j) draws one normal for each
      sample of the chunk that every earlier indicator kept, in sample
      order; the samples that every indicator kept then draw their other
      coordinates from stream (i,), sample by sample;
    * merge order: each chunk's sum and centred sum of squares, held at
      power-of-two scales, are merged in chunk order, so neither the mean
      nor the standard error overflows, and the standard error does not
      underflow to 0, while the products are finite;
    * bits: so the estimate and its standard error are bit-identical for a
      given (x, fs, samples, seed) however many rows a block holds, however
      many processes run the chunks and whatever CPUs the affinity mask
      holds;
    * memory: each process derives a chunk's size and streams from its
      index, and holds one chunk's buffers at a time, which do not grow
      with the sample count (see ``_chunk_sums``).  The calling process's
      list of chunk sums does, by about 130 B per chunk (about 20 MB at
      1e10 samples).

    Execution: the chunks are split into w contiguous slices, w the smaller
    of ``_cpu_count()`` and the chunk count.  The calling process runs the
    first slice and w - 1 forked children run one slice each, one chunk
    after another (``_run_chunks``).  An exception in a child reaches the
    caller with its own type; an exception, alarm or interrupt in the
    calling process kills and reaps every child, and no child outlives the
    call.
    """
    samples = as_int(samples, "samples")
    seed = as_int(seed, "seed")
    if samples < MIN_SAMPLES:
        raise InvalidParameter(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if len(fs) != x.n:
        raise InvalidParameter(f"need {x.n} test functions, got {len(fs)}")
    log_kappa, low, rest = _tilt(x, fs)
    kappa = math.exp(log_kappa)
    if not rest:
        return kappa, 0.0
    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    sums = _run_chunks(
        lambda i: _chunk_sums(low, rest, samples, seed, i), n_chunks, min(_cpu_count(), n_chunks)
    )
    # the chunk sums are merged at the largest of their scales: each one is
    # below 2^exp of its own, so their total overflows only where the mean
    # would
    top = max(exp for _, exp, _, _ in sums)
    total = 0.0
    for chunk_sum, exp, _, _ in sums:
        total += math.ldexp(chunk_sum, exp - top)
    mean = math.ldexp(total / samples, top)

    def gaps():
        for i, (chunk_sum, exp, _, _) in enumerate(sums):
            m = min(MC_CHUNK, samples - i * MC_CHUNK)
            yield m, math.ldexp(chunk_sum / m, exp) - mean

    # Chan, Golub and LeVeque's merge of the chunks' centred sums of squares;
    # unlike one-pass sums of v and v*v it does not cancel when v is nearly
    # constant.  It runs at the scale 2^scale of the largest chunk deviation
    # or chunk-mean gap, so squares neither underflow nor overflow; a zero
    # sum or gap sets no scale.
    scale = max(
        itertools.chain(
            (exp for _, _, m2, exp in sums if m2), (math.frexp(gap)[1] for _, gap in gaps() if gap)
        ),
        default=0,
    )
    m2 = 0.0
    for (m, gap), (_, _, chunk_m2, exp) in zip(gaps(), sums):
        m2 += math.ldexp(chunk_m2, 2 * (exp - scale)) + m * math.ldexp(gap, -scale) ** 2
    var = m2 / (samples - 1)
    return kappa * mean, kappa * math.ldexp(math.sqrt(var / samples), scale)


def _cpu_count() -> int:
    """Processes a sampler call may run: the CPUs in this process's affinity
    mask, ``os.cpu_count()`` where there is no affinity call, and 1 where
    there is no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _signals_blocked():
    """Holds back every signal for the block, so that no alarm or interrupt
    lands between a fork or a reap and the bookkeeping of its child; a
    signal that arrives meanwhile is delivered at the block's end."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _run_chunks(chunk: Callable[[int], object], count: int, processes: int) -> list:
    """``[chunk(i) for i in range(count)]``, computed over ``processes``
    processes.

    The indices are split into ``processes`` contiguous slices.  The calling
    process forks one child per slice after the first, runs the first slice
    itself, then reads each child's results, pickled through a pipe, before it
    reaps that child.  With one process nothing is forked.  A child's body
    is one try/finally that ends in ``os._exit``, so it never returns into
    its caller's frames; it sends back its results or the exception that
    stopped it, which is raised here with its own type (a child that sends
    nothing, killed or with an unpicklable exception, is a
    ChildProcessError).  On any exception here, an alarm or an interrupt
    included, every child not yet reaped is killed with SIGKILL and reaped.
    """
    bounds = [count * i // processes for i in range(processes + 1)]
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            with _signals_blocked() as mask:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        os.close(r)
                        try:
                            reply = pickle.dumps((True, [chunk(i) for i in range(lo, hi)]))
                        except BaseException as exc:
                            reply = pickle.dumps((False, exc))
                        with open(w, "wb") as pipe:
                            pipe.write(reply)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(w)
                children.append((pid, r))
        results = [chunk(i) for i in range(bounds[1])]
        while children:
            pid, r = children[0]
            with open(r, "rb", closefd=False) as pipe:
                reply = pipe.read()
            with _signals_blocked():
                _, status = os.waitpid(pid, 0)
                os.close(r)
                del children[0]
            if not reply:
                raise ChildProcessError(
                    f"sampler process {pid} sent no result (wait status {status})"
                )
            ok, result = pickle.loads(reply)
            if not ok:
                raise result
            results += result
        return results
    finally:
        if children:
            with _signals_blocked():
                for pid, _ in children:
                    os.kill(pid, signal.SIGKILL)
                for pid, r in children:
                    os.waitpid(pid, 0)
                    os.close(r)


def _chunk_sums(
    low: np.ndarray,
    fs: list[TestFunction],
    samples: int,
    seed: int,
    i: int,
) -> tuple[float, int, float, int]:
    """The scaled sum sum(v) / 2^sum_exp, sum_exp, the scaled centred sum of
    squares sum((v - mean(v))^2) / 4^exp and exp over chunk i of the
    ``samples`` draws, m of them, v = prod_i f_i(X_i) with X = L z, drawn
    from the streams that ``mc_expectation``'s reproducibility contract
    derives from ``seed`` and i.  2^sum_exp
    is the binary exponent of max |v|, and 2^exp that of max |v - mean(v)|
    (either is 0 when what it measures is 0).  Scaling by a power of two is
    exact, so each scaled sum has the bits of the unscaled one over its
    power of two wherever that one is a normal float: every scaled term
    lies in (-1, 1), and the scaled sum of squares in [1/4, m) for a
    nonconstant v, even where the unscaled sums would overflow or underflow
    to 0.

    ``fs`` lists the indicators first, as ``_tilt`` orders them, and L is
    lower triangular, so X_j for an indicator j depends on z_0..z_j alone.
    The chunk runs in blocks of rows and draws in two phases:

    * indicator j draws z_j for the samples that every earlier indicator
      kept, forms X_j = sum_{i <= j} L_ji z_i by one multiply and one
      add.reduce over the coordinate axis (a sum in coordinate order,
      whatever the number of samples), and compacts the survivors' normals
      z_0..z_j and their positions, unless every sample survived;
    * the survivors then draw their other coordinates in tiles of
      MC_BLOCK / 2 columns, and one matmul of one shape per tile,
      (n - k) x n by n x tile, lands those coordinates of L z; a last
      tile's columns past the survivors are zeros, computed and ignored.

    Consecutive standard_normal calls consume a stream as one call does, so
    neither the block size nor the number of survivors per block moves a
    bit; a tile is a whole number of 16 columns, because BLAS computes a
    trailing partial group of columns with other kernels, in other bits.
    The other factors are then evaluated in their order on the survivors
    alone, every f_i into one work row and their product into one more,
    which each block scatters to its survivors' positions, 0 at every dead
    one: the product's true value, also where another factor is inf
    (0 * inf is NaN).

    Buffers: the chunk allocates them once, two of n x MC_BLOCK floats that
    swap roles at each compaction (the survivors' normals, packed
    coordinate-major, and the products L_ji z_i or the compacted normals;
    in the second phase the packed normals and the matmul's operand and
    result, half a buffer each), two rows, a mask row and three rows of
    positions.  A block holds R <= 4 MC_BLOCK rows and at most
    n MC_BLOCK / k, so that its packed normals fit in one buffer; a larger
    block spreads each numpy call's fixed cost over more samples.  So a
    chunk holds about 2 MC_BLOCK n + m + 5 R floats and R booleans, with n
    the sampled coordinates, whatever the sample count.
    """
    n = low.shape[0]
    k = sum(isinstance(f, Indicator) for f in fs)
    m = min(MC_CHUNK, samples - i * MC_CHUNK)
    rng, *streams = (
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))
        for key in [(i,)] + [(i, j) for j in range(k)]
    )
    other = low[k:]
    size = n * MC_BLOCK
    rows = min(4 * MC_BLOCK, size // max(k, 1))
    tile = MC_BLOCK // 32 * 16
    vals = np.empty(m)
    z = np.zeros(size)
    spare = np.zeros(size)
    work = np.empty(rows)
    live = np.empty(rows)
    inside = np.empty(rows, dtype=bool)
    index = np.arange(rows)
    pos = np.empty(rows, dtype=index.dtype)
    pos_spare = np.empty(rows, dtype=index.dtype)
    for start in range(0, m, rows):
        block = min(rows, m - start)
        alive = block
        pos[:block] = index[:block]
        for j in range(k):
            # z holds the survivors' normals z_0..z_j as a (j + 1) x alive
            # array, coordinate-major
            streams[j].standard_normal(out=z[j * alive : (j + 1) * alive])
            normals = z[: (j + 1) * alive].reshape(j + 1, alive)
            # add.reduce sums a single column pairwise: one survivor is
            # summed beside a column of zeros
            width = max(alive, 2)
            terms = spare[: (j + 1) * width].reshape(j + 1, width)
            if alive == 1:
                terms[:, 1] = 0.0
            np.multiply(low[j, : j + 1, None], normals, out=terms[:, :alive])
            x_j = np.add.reduce(terms, axis=0, out=work[:width])[:alive]
            kept = fs[j].inside(x_j, inside[:alive]).nonzero()[0]
            if kept.size < alive:
                # every index is in range, so mode="clip" changes nothing
                # but spares numpy's buffered copy for mode="raise"
                out = spare[: (j + 1) * kept.size].reshape(j + 1, kept.size)
                normals.take(kept, axis=1, out=out, mode="clip")
                pos[:alive].take(kept, out=pos_spare[: kept.size], mode="clip")
                z, spare = spare, z
                pos, pos_spare = pos_spare, pos
                alive = kept.size
                if not alive:
                    break
        product = live[:alive]
        product.fill(1.0)
        if k < n:
            packed = z[: k * alive].reshape(k, alive)
            full = spare[: n * tile].reshape(n, tile)
            x = spare[n * tile : (2 * n - k) * tile].reshape(n - k, tile)
            for t in range(0, alive, tile):
                cols = min(tile, alive - t)
                draws = x.reshape(-1)[: cols * (n - k)].reshape(cols, n - k)
                rng.standard_normal(out=draws)
                full[:k, :cols] = packed[:, t : t + cols]
                full[k:, :cols] = draws.T
                full[:, cols:] = 0.0
                np.matmul(other, full, out=x)
                for r, f in enumerate(fs[k:]):
                    product[t : t + cols] *= f.evaluate(x[r, :cols], work[:cols])
        prod = vals[start : start + block]
        prod.fill(0.0)
        prod[pos[:alive]] = product
    # the deviations are taken at the sum's scale, which moves their own
    # exponent by sum_exp and leaves their bits
    sum_exp = math.frexp(max(float(np.max(vals)), -float(np.min(vals))))[1]
    np.ldexp(vals, -sum_exp, out=vals)
    total = float(np.sum(vals))
    vals -= total / m
    np.abs(vals, out=vals)
    exp = math.frexp(float(np.max(vals)))[1]
    np.ldexp(vals, -exp, out=vals)
    vals *= vals
    return total, sum_exp, float(np.sum(vals)), exp + sum_exp


def _tilt(
    x: decouple.GaussianVector, fs: list[TestFunction]
) -> tuple[float, np.ndarray, list[TestFunction]]:
    """(log kappa, F, the test functions of Y) with

        E prod_i f_i(X_i) = kappa * E prod_{i in S} f_i(Y_i),  cov(Y) = F F^T,

    where B holds the coordinates of the Gaussian bumps (PolyGauss with
    k = 0) and S the others, less the full-line indicators, which are the
    constant 1: a marginal of a Gaussian vector has the sub-covariance.  S
    lists the indicators first, most selective first (ascending log mass
    ``_log_normal_mass(a/sigma, b/sigma)`` of X's own marginal, ties in
    input order), then the other factors in input order; ``_chunk_sums``
    draws the indicator coordinates first, and the variable ordering is
    Genz's (*J. Comput. Graph. Stat.* 1, 1992).  A bump's factor
    exp(-x^2 / s) is the density of N(0, s/2) at x up to sqrt(pi s), so with
    W_B ~ N(0, diag(s_B)/2) independent of X,

        kappa = det(I + 2 diag(1/s_B) C_BB)^(-1/2),
        Y = X_S given X_B + W_B = 0,
            cov(Y) = C_SS - C_SB (C_BB + diag(s_B)/2)^(-1) C_BS.

    One Cholesky factorization of A = [[C_BB + diag(s_B)/2, C_BS],
    [C_SB, C_SS]], with S in its order, gives both: its leading block H has
    log kappa = sum_b log(sqrt(s_b/2) / H_bb), each term at most 0 up to
    rounding because A's pivots are no smaller than s_b/2, so that no sum of
    large logs cancels; its trailing block is F, with no second
    factorization.  A is factored at a quarter scale (C/4 and s_B/8) and the
    factor doubled: the scalings are exact powers of two, so the factor has
    the bits of A's own wherever A/4 is a normal float, and no entry of A
    overflows where C and s_B are finite.  With nothing left to sample F
    is 0 x 0 and the list is empty.
    """
    is_bump = [isinstance(f, PolyGauss) and f.k == 0 for f in fs]
    bumps = [j for j, b in enumerate(is_bump) if b]
    indicators = sorted(
        (j for j, f in enumerate(fs) if isinstance(f, Indicator) and (f.a, f.b) != (-INF, INF)),
        key=lambda j: _log_normal_mass(fs[j].a / x.sigma[j], fs[j].b / x.sigma[j]),
    )
    others = [j for j, f in enumerate(fs) if not (is_bump[j] or isinstance(f, Indicator))]
    order = bumps + indicators + others
    if not order:
        return 0.0, np.zeros((0, 0)), []
    nb = len(bumps)
    a = x.c[np.ix_(order, order)] / 4.0
    s = np.array([fs[j].s for j in bumps])
    a[np.arange(nb), np.arange(nb)] += s / 8.0
    low = 2.0 * matcore.cholesky(a)
    log_kappa = float(np.sum(np.log(np.sqrt(s / 2.0) / np.diag(low)[:nb])))
    return log_kappa, np.ascontiguousarray(low[nb:, nb:]), [fs[j] for j in order[nb:]]


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

    The left side and its standard error are ``mc_expectation`` with
    ``samples`` and ``seed``, which integrates the Gaussian bumps exactly;
    ``samples`` reports the requested count, also where nothing is drawn.

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
