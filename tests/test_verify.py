"""Verification layer: closed-form ratios vs their bound, closed-form p-norms
vs quadrature and high-precision references, Monte Carlo against exact
oracles, and the end-to-end inequality check."""

import math
import os
import sys
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field

import mpmath
import numpy as np
import pytest

import oracles
from conftest import DeadlineExceeded
from gaussdec import covgen, decouple, matcore, verify
from gaussdec.errors import (
    InvalidParameter,
    NotAdmissibleClassical,
    NotInRegion,
    NotPositiveDefinite,
)

EQUI = decouple.from_covariance([[1.0, 0.5], [0.5, 1.0]])
HALF_LINE = verify.Indicator(0.0, math.inf)


def float_bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def sequential_chunk_values(x, fs, samples, seed):
    """The products v = prod_i f_i(Y_i) of each chunk, on the vector Y and
    the functions that _tilt leaves, drawn by one sequential loop over whole
    chunks.  Indicator j draws its normal only for the samples that every
    earlier indicator kept, in sample order, from the stream whose spawn key
    is the chunk's with j appended, and Y_j is sum_i L_ji z_i summed in
    coordinate order.  The survivors then draw their other normals from the
    chunk's own stream, sample by sample, and get those coordinates from one
    product with L.  A dead sample's product is 0, and no factor is
    evaluated on it."""
    _, low, fs = verify._tilt(x, fs)
    n = low.shape[0]
    k = sum(isinstance(f, verify.Indicator) for f in fs)
    n_chunks = (samples + verify.MC_CHUNK - 1) // verify.MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    out = []
    left = samples
    for child in children:
        m = min(verify.MC_CHUNK, left)
        left -= m
        # a chunk's columns whatever the survivors: BLAS may take another
        # path for a product of one column
        z = np.zeros((n, verify.MC_CHUNK))
        alive = np.arange(m)
        for j in range(k):
            key = child.spawn_key + (j,)
            stream = np.random.Generator(np.random.SFC64(np.random.SeedSequence(child.entropy, spawn_key=key)))
            z[j, alive] = stream.standard_normal(alive.size)
            y = low[j, 0] * z[0, alive]
            for i in range(1, j + 1):
                y = y + low[j, i] * z[i, alive]
            alive = alive[fs[j].inside(y, np.empty(y.size, dtype=bool))]
        w = alive.size
        rng = np.random.Generator(np.random.SFC64(child))
        zs = np.zeros((n, verify.MC_CHUNK))
        zs[:k, :w] = z[:k, alive]
        zs[k:, :w] = rng.standard_normal((w, n - k)).T
        xs = low[k:] @ zs
        vals = np.zeros(m)
        if w:
            v = np.ones(w)
            for r, f in enumerate(fs[k:]):
                v *= f.evaluate(xs[r, :w])
            vals[alive] = v
        out.append(vals)
    return out


def sequential_mc_expectation(x, fs, samples, seed):
    """The sampler as one sequential loop over whole chunks: the reference
    that the row-blocked sampler must match bit for bit, on the
    vector that _tilt leaves (without kappa).  Each chunk gives its sum and
    centred sum of squares, merged as Chan, Golub and LeVeque do, at the
    power-of-two scale of the largest product, so that squares of tiny
    products do not underflow (the scaling is exact)."""
    chunks = sequential_chunk_values(x, fs, samples, seed)
    scale = math.frexp(max(float(np.max(np.abs(vals))) for vals in chunks))[1]
    chunks = [np.ldexp(vals, -scale) for vals in chunks]
    total = 0.0
    for vals in chunks:
        total += float(np.sum(vals))
    mean = total / samples
    m2 = 0.0
    for vals in chunks:
        chunk_sum = float(np.sum(vals))
        dev = vals - chunk_sum / vals.size
        m2 += float(np.sum(dev * dev)) + vals.size * (chunk_sum / vals.size - mean) ** 2
    var = m2 / (samples - 1)
    return math.ldexp(mean, scale), math.ldexp(math.sqrt(var / samples), scale)


@dataclass(frozen=True)
class PlainBump:
    """The Gaussian bump exp(-x^2 / s) as a factor that mc_expectation
    samples like any other: it integrates PolyGauss(0, s) exactly, and does
    not recognise this one, whose values have the bits of PolyGauss(0, s)."""

    s: float

    def evaluate(self, x, out=None):
        return verify.PolyGauss(0, self.s).evaluate(x, out)


def plain(fs):
    """fs with every Gaussian bump sampled plainly."""
    return [PlainBump(f.s) if isinstance(f, verify.PolyGauss) and f.k == 0 else f for f in fs]


def double_factorial_odd(m):
    # (2m - 1)!! with the empty product equal to 1
    out = 1
    for k in range(1, 2 * m, 2):
        out *= k
    return out


class TestTestFunctions:
    def test_indicator_needs_ordered_bounds(self):
        with pytest.raises(InvalidParameter):
            verify.Indicator(1.0, 1.0)

    def test_gaussbump_positive_scale(self):
        with pytest.raises(InvalidParameter):
            verify.PolyGauss(0, 0.0)

    def test_polygauss_integer_power(self):
        with pytest.raises(InvalidParameter):
            verify.PolyGauss(-1, 1.0)

    def test_evaluate_shapes(self):
        x = np.linspace(-2, 2, 5)
        assert verify.Indicator(-1.0, 1.0).evaluate(x).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert verify.PolyGauss(0, 2.0).evaluate(x)[2] == 1.0  # |0|^0 = 1

    @pytest.mark.parametrize("f", [
        verify.Indicator(-1.0, 2.0),
        verify.Indicator(-math.inf, 0.5),
        verify.Indicator(0.5, math.inf),
        verify.Indicator(-math.inf, math.inf),
        verify.PolyGauss(0, 1.5),
        verify.PolyGauss(1, 0.7),
        verify.PolyGauss(2, 3.0),
        verify.PolyGauss(5, 2.0),
    ])
    def test_evaluate_into_out(self, f):
        # writing into out gives the bits of a fresh result, and of the
        # plain expressions of each family, polygauss k > 0 in its
        # overflow-free form (|x| exp(-x^2 / (k s)))^k; NaN inputs give NaN
        # either way (IEEE leaves the sign of a NaN result open)
        rng = np.random.default_rng(0)
        special = [0.0, -0.0, 5e-324, 0.5, -1.0, 40.0, math.inf, -math.inf, math.nan]
        x = np.concatenate([4.0 * rng.standard_normal(64), special])
        out = np.full(x.size, 7.0)
        with np.errstate(invalid="ignore"):  # |inf| * exp(-inf) is NaN
            fresh = f.evaluate(x)
            got = f.evaluate(x, out)
            if isinstance(f, verify.Indicator):
                before = ((x > f.a) & (x < f.b)).astype(float)
            elif f.k == 0:
                before = np.exp(-(x * x) / f.s)
            else:
                before = (np.abs(x) * np.exp(-(x * x) / (f.k * f.s))) ** f.k
        assert got is out
        assert np.array_equal(float_bits(got), float_bits(fresh))
        nan = np.isnan(before)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(float_bits(got)[~nan], float_bits(before)[~nan])

    @pytest.mark.parametrize("k,s", [(2, 1e308), (1, 1e308), (2, 3e306), (0, 1e306), (2, 1.0)])
    def test_evaluate_where_k_s_or_x_squared_overflows(self, k, s):
        # k s is 2e308 at k = 2, s = 1e308, and x*x overflows from
        # |x| = 1.34e154 where x^2 / (k s) is still small; at s = 1 an
        # overflowing x*x means f(x) = 0, silently
        x = np.array([0.5, 3e153, -1.3e154, 2e154, 1e155, 1e156, 1e200, -1.7e308])
        with mpmath.workdps(30):
            expected = [
                float(abs(mpmath.mpf(v)) ** k * mpmath.exp(-mpmath.mpf(v) ** 2 / mpmath.mpf(s)))
                for v in x
            ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = verify.PolyGauss(k, s).evaluate(x)
        assert got.tolist() == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("f", [
        verify.Indicator(-1.0, 2.0),
        verify.Indicator(-math.inf, 0.5),
        verify.Indicator(0.5, math.inf),
        verify.Indicator(-math.inf, math.inf),
    ])
    def test_inside_agrees_with_evaluate(self, f):
        # the sampler's survival mask and the function's value: +-inf, NaN
        # and the bounds themselves lie outside, the floats next to the
        # bounds inside
        edges = [f.a, f.b, np.nextafter(f.a, math.inf), np.nextafter(f.b, -math.inf)]
        x = np.array([-math.inf, math.inf, math.nan, 0.0, -0.0, 5e-324, 0.5] + edges)
        mask = f.inside(x, np.ones(x.size, dtype=bool))
        assert mask.dtype == bool
        assert np.array_equal(mask, f.evaluate(x) == 1.0)
        assert not mask[:3].any() and not mask[7:9].any() and mask[9:].all()

    def test_open_interval_excludes_infinite_ends(self):
        x = np.array([-math.inf, math.inf, math.nan, 0.0])
        for out in (None, np.empty(4)):
            assert verify.Indicator(-math.inf, 1.0).evaluate(x, out).tolist() == [0, 0, 0, 1]
            assert verify.Indicator(-math.inf, math.inf).evaluate(x, out).tolist() == [0, 0, 0, 1]

    def test_parse_round_trip(self):
        doc = [
            {"kind": "indicator", "a": 0, "b": "inf"},
            {"kind": "gaussbump", "s": 1.5},
            {"kind": "polygauss", "k": 2, "s": 0.5},
        ]
        fs = verify.parse_test_functions(doc)
        assert fs[0] == verify.Indicator(0.0, math.inf)
        assert fs[1] == verify.PolyGauss(0, 1.5)
        assert fs[2] == verify.PolyGauss(2, 0.5)

    def test_gaussbump_is_polygauss_without_power(self):
        (f,) = verify.parse_test_functions([{"kind": "gaussbump", "s": 1.5}])
        assert f == verify.PolyGauss(0, 1.5)
        x = np.linspace(-3.0, 3.0, 101)
        assert np.array_equal(f.evaluate(x), np.exp(-(x * x) / 1.5))

    @pytest.mark.parametrize("a,b,expected", [
        ("1.5", 2, (1.5, 2.0)),
        (0, "+inf", (0.0, math.inf)),
        ("-Infinity", " INF ", (-math.inf, math.inf)),
    ])
    def test_parse_reads_bounds_as_float_does(self, a, b, expected):
        fs = verify.parse_test_functions([{"kind": "indicator", "a": a, "b": b}])
        assert fs == [verify.Indicator(*expected)]

    @pytest.mark.parametrize("entry", [
        {"kind": "gaussbump", "s": "abc"},
        {"kind": "polygauss", "k": "2.5", "s": 1},
        {"kind": "polygauss", "k": None, "s": 1},
        {"kind": "indicator", "a": "abc", "b": 1},
        {"kind": "indicator", "a": [0], "b": 1},
    ])
    def test_parse_rejects_non_numbers(self, entry):
        # float() and int() raise a bare ValueError or TypeError on these
        with pytest.raises(InvalidParameter):
            verify.parse_test_functions([entry])

    def test_parse_keeps_constructor_messages(self):
        with pytest.raises(InvalidParameter, match="a < b"):
            verify.parse_test_functions([{"kind": "indicator", "a": 1, "b": 0}])

    def test_parse_rejects_unknown(self):
        with pytest.raises(InvalidParameter):
            verify.parse_test_functions([{"kind": "cosine", "s": 1.0}])

    @pytest.mark.parametrize("k", [2.7, True, float("nan")])
    def test_parse_rejects_non_integral_power(self, k):
        # int() would truncate 2.7 to 2 and read True as 1
        with pytest.raises(InvalidParameter):
            verify.parse_test_functions([{"kind": "polygauss", "k": k, "s": 1.0}])

    @pytest.mark.parametrize("k", [2, 2.0, "2", 10**30])
    def test_parse_accepts_integral_power(self, k):
        fs = verify.parse_test_functions([{"kind": "polygauss", "k": k, "s": 1.0}])
        assert fs == [verify.PolyGauss(int(k), 1.0)]


class TestBrascampLieb:
    def test_scalar_ratio(self):
        expected = (2.0 * math.pi) ** 0.25 * 2.0 ** 0.25 / math.sqrt(2.0)
        assert oracles.bl_ratio([[1.0]], [1.0], 2.0) == pytest.approx(expected, rel=1e-14)

    def test_two_dim_ratio(self):
        expected = (2.0 * math.pi) ** 0.5 * 2.0 ** 0.5 / 2.0
        assert oracles.bl_ratio(np.eye(2), [1.0, 1.0], 2.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_bound_identity(self):
        assert oracles.bl_bound(np.eye(3), 2.0) == pytest.approx(
            (2.0 * math.pi) ** 0.75, rel=1e-14
        )

    def test_bound_at_p_one(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 3))
        assert oracles.bl_bound(g.T @ g + 0.5 * np.eye(3), 1.0) == 1.0

    def test_bound_diag(self):
        expected = (2.0 * math.pi) ** 0.5 / 2.0 ** 0.5
        assert oracles.bl_bound(np.diag([2.0, 2.0]), 2.0) == pytest.approx(expected, rel=1e-14)

    def test_bound_beyond_linear_determinant_range(self):
        # det(1e-3 I_200) = 1e-600 underflows; the bound is about 1e190
        a = 1e-3 * np.eye(200)
        _, log_det = np.linalg.slogdet(a)
        expected = math.exp(0.5 * (100.0 * math.log(2.0 * math.pi) - 0.5 * log_det))
        assert oracles.bl_bound(a, 2.0) == pytest.approx(expected, rel=1e-10)

    def test_ratio_beyond_linear_determinant_range(self):
        # det(1e3 I_200 + I) = 1001^200 overflows; the ratio is about 1e-245
        a = 1e3 * np.eye(200)
        b = np.ones(200)
        _, log_det = np.linalg.slogdet(a + np.diag(b))
        expected = math.exp(
            50.0 * math.log(2.0 * math.pi) + 50.0 * math.log(2.0) - 0.5 * log_det
        )
        assert oracles.bl_ratio(a, b, 2.0) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_indefinite_shift_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            oracles.bl_bound([[1.0, 2.0], [2.0, 1.0]], 2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_ratio_never_exceeds_bound(self, n, p):
        rng = np.random.default_rng(10 * n + int(p * 10))
        if n == 1:
            a = np.array([[rng.uniform(0.5, 3.0)]])
        else:
            a = covgen.generate(covgen.RandomSPD(n, seed=n, cond=12.0))
        bound = oracles.bl_bound(a, p)
        worst = -math.inf
        for _ in range(300):
            b = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
            ratio = oracles.bl_ratio(a, b, p)
            worst = max(worst, ratio / bound)
            assert ratio <= bound * (1.0 + 1e-12)
        assert worst <= 1.0 + 1e-12

    def test_supremum_monitor_diagonal(self):
        # for diagonal A the per-coordinate optimum is b_i = a_i / (p - 1);
        # record how close the ratio gets to the bound (not asserted equal)
        a = np.diag([1.0, 2.0])
        p = 2.0
        b_star = np.diag(a) / (p - 1.0)
        ratio = oracles.bl_ratio(a, b_star, p)
        bound = oracles.bl_bound(a, p)
        assert ratio <= bound
        print(f"diagonal supremum monitor: ratio/bound = {ratio / bound:.6f}")


class TestMarginalPnorm:
    def test_half_line_mass(self):
        for p in (1.0, 2.0, 3.0):
            for sigma in (0.5, 1.0, 4.0):
                assert verify.marginal_pnorm(HALF_LINE, sigma, p) == pytest.approx(
                    0.5 ** (1.0 / p), rel=1e-14
                )

    def test_gaussbump_closed_form(self):
        # E exp(-2 X^2) = (1 + 4)^(-1/2) for standard normal X
        val = verify.marginal_pnorm(verify.PolyGauss(0, 1.0), 1.0, 2.0)
        assert val == pytest.approx(5.0 ** -0.25, rel=1e-10)

    def test_indicator_cdf_oracle(self):
        phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        val = verify.marginal_pnorm(verify.Indicator(-1.0, 1.0), 1.0, 1.0)
        assert val == pytest.approx(phi(1.0) - phi(-1.0), rel=1e-14)

    @pytest.mark.parametrize("k,p,s,sigma", [(2, 2.0, 1.0, 1.0), (1, 2.0, 2.0, 0.7), (2, 1.0, 1.5, 2.0)])
    def test_polygauss_closed_form(self, k, p, s, sigma):
        # E |sigma Z|^(kp) exp(-p sigma^2 Z^2 / s) with kp an even integer 2m:
        # (2m-1)!! sigma^(2m) / (2 alpha sigma^2)^m / sqrt(2 alpha sigma^2) ... via
        # alpha = p/s + 1/(2 sigma^2); moment = (2m-1)!!/(2 alpha)^m / (sigma sqrt(2 alpha))
        kp = k * p
        assert kp == int(kp) and int(kp) % 2 == 0
        m = int(kp) // 2
        alpha = p / s + 1.0 / (2.0 * sigma * sigma)
        moment = (
            double_factorial_odd(m) / (2.0 * alpha) ** m / (sigma * math.sqrt(2.0 * alpha))
        )
        expected = moment ** (1.0 / p)
        val = verify.marginal_pnorm(verify.PolyGauss(k, s), sigma, p)
        assert val == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "k,s,sigma,p",
        [
            (0, 0.5, 1.3, 2.0),
            (2, 1.0, 1.3, 2.0),
            (3, 1.5, 2.0, 4.0),
            (7, 1.0, 1.0, 6.0),
            (63, 3.0, 1.0, 2.0),
            (1, 1.0, 1.0, 126.0),
        ],
    )
    def test_exact_hermite_rule(self, k, s, sigma, p):
        # 64-node Gauss-Hermite integrates |t|^(kp) exp(-t^2) exactly for even
        # integer kp <= 126, after z = t / sqrt(alpha) absorbs the Gaussian part
        t, w = np.polynomial.hermite.hermgauss(64)
        scale = (0.5 + p * sigma * sigma / s) ** -0.5
        integral = float(w @ np.abs(sigma * scale * t) ** (k * p))
        moment = scale / math.sqrt(2.0 * math.pi) * integral
        val = verify.marginal_pnorm(verify.PolyGauss(k, s), sigma, p)
        assert val == pytest.approx(moment ** (1.0 / p), rel=1e-12)

    @pytest.mark.parametrize(
        "k,s,sigma,p",
        [
            (1, 2.0, 1.0, 1.1),  # |t|^1.1 is not smooth at 0
            (0, 0.3, 2.5, 7.0),
            (5, 2.0, 0.7, 3.3),
            (1, 1.0, 1.0, 250.0),
            (3, 1.0, 1.0, 122.3),
            (125, 3.0, 1.0, 2.0),
            (1, 1.0, 1.0, 1000.0),
            (100, 4.0, 0.3, 10.0),
        ],
    )
    def test_high_precision_quadrature(self, k, s, sigma, p):
        # E f(sigma Z)^p by mpmath.quad on the raw integrand, split at its peak
        # z* = sqrt(q / (2 alpha)) and scaled to peak value 1, because quad's
        # error estimate is absolute and these integrands peak far from 1
        with mpmath.workdps(20):
            q = mpmath.mpf(k) * p
            sig = mpmath.mpf(sigma)
            integrand = lambda z: (sig * z) ** q * mpmath.exp(-p * (sig * z) ** 2 / s - z * z / 2)
            z_peak = mpmath.sqrt(q / (2 * (0.5 + p * sig**2 / s)))
            peak = integrand(z_peak) if q > 0 else mpmath.mpf(1)
            area = mpmath.quad(lambda z: integrand(z) / peak, [0, z_peak, mpmath.inf])
            moment = 2 * peak * area / mpmath.sqrt(2 * mpmath.pi)
            expected = float(moment ** (1 / mpmath.mpf(p)))
        val = verify.marginal_pnorm(verify.PolyGauss(k, s), sigma, p)
        assert val == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "a,b",
        [
            (7.5, math.inf),
            (9.0, math.inf),
            (-math.inf, -9.0),
            (6.0, 7.0),
            (-2.0, 3.0),
            # at sigma 1 erfc underflows beyond about 37.5, yet the 3-norm
            # is still about 1e-117
            (40.0, math.inf),
            (-math.inf, -40.0),
            (38.0, 45.0),
            # intervals that end at 0, that straddle 0, and the full line
            (0.0, 1.0),
            (-1.0, 0.0),
            (-0.5, 0.5),
            (-math.inf, math.inf),
        ],
    )
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_indicator_tails(self, a, b, sigma):
        p = 3.0
        with mpmath.workdps(50):
            lo, hi = mpmath.mpf(a) / sigma, mpmath.mpf(b) / sigma
            # an interval in the upper tail is measured there: 1 - ncdf(40)
            # is below what 50 digits resolve
            if a >= 0.0:
                mass = mpmath.ncdf(-lo) - mpmath.ncdf(-hi)
            else:
                mass = mpmath.ncdf(hi) - mpmath.ncdf(lo)
            expected = float(mass ** (1 / mpmath.mpf(p)))
        val = verify.marginal_pnorm(verify.Indicator(a, b), sigma, p)
        # abs=0: approx's default absolute tolerance of 1e-12 would pass
        # 0.0 for a norm of 1e-117
        assert val == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k,s,sigma,p", [
        # p sigma^2 is 3e308, beyond the float range; the 2-norms are
        # 7^(-1/4) and about 0.38
        (0, 1e308, math.sqrt(1.5e308), 2.0),
        (2, 1e308, math.sqrt(1.5e308), 2.0),
        # sigma / sqrt(s) overflows and p sigma^2 / s is about 3e600; the
        # 3-norm is about 1e-250
        (1, 1e-300, 1e150, 3.0),
        # p sigma^2 / s is about 2e-600, so alpha is 1/2 and the norm 1
        (0, 1e300, 1e-150, 2.0),
    ])
    def test_polygauss_where_p_sigma2_over_s_leaves_the_float_range(self, k, s, sigma, p):
        with mpmath.workdps(30):
            q = mpmath.mpf(k) * p
            alpha = mpmath.mpf(0.5) + p * mpmath.mpf(sigma) ** 2 / mpmath.mpf(s)
            moment = (mpmath.mpf(sigma) ** q * mpmath.gamma((q + 1) / 2)
                      * alpha ** (-(q + 1) / 2) / mpmath.sqrt(2 * mpmath.pi))
            expected = float(moment ** (1 / mpmath.mpf(p)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = verify.marginal_pnorm(verify.PolyGauss(k, s), sigma, p)
        assert val == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_narrow_tail_intervals_keep_their_digits(self):
        # 1e-10 to 1e-6 wide, 8 to 13 standard deviations out: the
        # difference of two log tails of -35 to -88 cancels to a gap of
        # 1e-9 to 1e-5, and lost up to 1.5e-5 relative
        rng = np.random.default_rng(0)
        for _ in range(60):
            a = float(rng.uniform(8.0, 13.0)) * float(rng.choice([-1.0, 1.0]))
            b = a + float(10.0 ** rng.uniform(-10.0, -6.0))
            with mpmath.workdps(50):
                lo, hi = mpmath.mpf(a), mpmath.mpf(b)
                if a > 0.0:
                    mass = mpmath.ncdf(-lo) - mpmath.ncdf(-hi)
                else:
                    mass = mpmath.ncdf(hi) - mpmath.ncdf(lo)
                expected = float(mass)
            val = verify.marginal_pnorm(verify.Indicator(a, b), 1.0, 1.0)
            assert val == pytest.approx(expected, rel=1e-12, abs=0.0)
        # 23 to 38 standard deviations out, w (m + 1) from 1/20 to 1/2 with
        # w the width and m the midpoint, across the end of the Taylor
        # branch; the mass underflows past about 37.5, so its log is
        # compared, to 1e-12 absolute: 1e-12 relative on the mass
        for _ in range(60):
            m = float(rng.uniform(23.0, 38.0))
            w = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(0.5))) / (m + 1.0)
            a, b = m - 0.5 * w, m + 0.5 * w
            if rng.choice([False, True]):
                a, b = -b, -a
            with mpmath.workdps(50):
                lo, hi = mpmath.mpf(a), mpmath.mpf(b)
                if a > 0.0:
                    mass = mpmath.ncdf(-lo) - mpmath.ncdf(-hi)
                else:
                    mass = mpmath.ncdf(hi) - mpmath.ncdf(lo)
                expected = float(mpmath.log(mass))
            assert verify._log_normal_mass(a, b) == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_full_line_is_exactly_one(self):
        for sigma, p in ((1.0, 1.0), (2.0, 3.0), (0.3, 10.0)):
            assert verify.marginal_pnorm(verify.Indicator(-math.inf, math.inf), sigma, p) == 1.0

    def test_subnormal_interval_keeps_its_norm(self):
        # the mass is about 4e-324, subnormal; its 2-norm, about 2e-162, is
        # a normal float, and is taken from the log of the mass
        val = verify.marginal_pnorm(verify.Indicator(-5e-324, 5e-324), 1.0, 2.0)
        assert 0.0 < val < math.inf
        assert val == pytest.approx(2.0e-162, rel=0.2)


class TestMCExpectation:
    def test_independent_orthant(self):
        x = decouple.from_covariance(np.eye(2))
        est, se = verify.mc_expectation(x, [HALF_LINE, HALF_LINE], 100_000, seed=3)
        assert abs(est - 0.25) <= 4.0 * se

    def test_correlated_orthant_formula(self):
        est, se = verify.mc_expectation(EQUI, [HALF_LINE, HALF_LINE], 200_000, seed=4)
        exact = 0.25 + math.asin(0.5) / (2.0 * math.pi)  # = 1/3
        assert exact == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert abs(est - exact) <= 4.0 * se

    def test_gaussbump_determinant_oracle(self, monkeypatch):
        # E prod exp(-X_i^2 / s_i) = det(I + 2 C diag(1/s))^(-1/2), integrated
        # exactly: kappa itself, with a standard error of 0, and no draw
        def no_chunks(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(verify, "_chunk_sums", no_chunks)
        c = covgen.generate(covgen.AR1(3, 0.6))
        x = decouple.from_covariance(c)
        s = np.array([1.0, 2.0, 0.5])
        fs = [verify.PolyGauss(0, float(v)) for v in s]
        sign, logdet = np.linalg.slogdet(np.eye(3) + 2.0 * c * (1.0 / s)[None, :])
        assert sign == 1.0
        est, se = verify.mc_expectation(x, fs, 400_000, seed=5)
        assert (est, se) == (math.exp(verify._tilt(x, fs)[0]), 0.0)
        assert est == pytest.approx(math.exp(-0.5 * logdet), rel=1e-12, abs=0.0)

    def test_deterministic_given_seed(self):
        a = verify.mc_expectation(EQUI, [HALF_LINE, HALF_LINE], 150_000, seed=9)
        b = verify.mc_expectation(EQUI, [HALF_LINE, HALF_LINE], 150_000, seed=9)
        assert a == b

    def test_chunk_boundary_sizes(self):
        # one chunk, exact boundary, boundary + 1: all deterministic and sane
        for samples in (verify.MC_CHUNK - 1, verify.MC_CHUNK, verify.MC_CHUNK + 1):
            est, se = verify.mc_expectation(EQUI, [HALF_LINE, HALF_LINE], samples, seed=10)
            assert 0.0 <= est <= 1.0 and se > 0.0

    def test_stderr_of_a_nearly_constant_product(self):
        # v = exp(-(X_1^2 + X_2^2) / 1e9) stays within about 1e-8 of 1, where
        # one-pass sums of v and v*v cancel to a sixfold stderr
        x = decouple.from_covariance(np.eye(2))
        fs = [PlainBump(1e9)] * 2
        _, se = verify.mc_expectation(x, fs, 200_000, seed=0)
        vals = np.concatenate(sequential_chunk_values(x, fs, 200_000, seed=0))
        two_pass = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert se == pytest.approx(two_pass, rel=1e-6)

    @pytest.mark.parametrize("cov,fs,p,scale", [
        # every product is below about 1e-170, so its square underflows
        ([[1.0, 0.99], [0.99, 1.0]],
         [verify.Indicator(2.0, math.inf), verify.PolyGauss(0, 0.006)], 300.0, 600),
        # ten of sixteen chunks are all zero, and must not set the scale
        ([[1.0, 0.99], [0.99, 1.0]],
         [verify.Indicator(4.5, math.inf), verify.PolyGauss(0, 0.044)], 300.0, 600),
        # products near 1e215, whose squares overflow
        ([[1e6]], [verify.PolyGauss(60, 1e9)], 2.0, -700),
    ])
    def test_stderr_where_squares_leave_the_float_range(self, cov, fs, p, scale):
        # the two-pass standard error of the same draws, taken at a scale
        # 2^scale where the squares are normal floats.  mc_expectation
        # integrates a gaussbump exactly, so the bump is sampled plainly here
        # to pin the sampler itself; the margin is that of these draws
        # against check_inequality's bound
        x = decouple.from_covariance(cov)
        mean, se = verify.mc_expectation(x, plain(fs), 1_000_000, seed=0)
        vals = np.concatenate(sequential_chunk_values(x, plain(fs), 1_000_000, seed=0))
        vals = np.ldexp(vals, scale)
        two_pass = math.ldexp(float(np.std(vals, ddof=1)) / math.sqrt(vals.size), -scale)
        assert two_pass > 0.0 and math.isfinite(two_pass)
        assert se == pytest.approx(two_pass, rel=1e-9, abs=0.0)
        rhs = verify.check_inequality(x, fs, p, samples=1_000_000, seed=0).rhs_bound
        assert math.isfinite((rhs - mean) / se)

    def test_chunk_sums_of_products_near_the_float_limit(self):
        # products up to about 2.7e307: a chunk's 65536 of them sum beyond
        # the float range, their mean does not
        x = decouple.from_covariance([[4e204, 0.9999 * 2e102], [0.9999 * 2e102, 1.0]])
        fs = [verify.PolyGauss(3, 1e300), verify.Indicator(-1.5, 1.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = verify.mc_expectation(x, fs, 200_000, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.concatenate(sequential_chunk_values(x, fs, 200_000, seed=0))
        vals = np.ldexp(np.where(np.isnan(vals), 0.0, vals), -1000)
        # at their own scale, the first chunk's products sum beyond the range
        assert float(np.sum(vals[: verify.MC_CHUNK])) > math.ldexp(sys.float_info.max, -1000)
        assert mean == pytest.approx(math.ldexp(float(np.mean(vals)), 1000), rel=1e-12)
        two_pass = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert se == pytest.approx(math.ldexp(two_pass, 1000), rel=1e-9)

    def test_dead_sample_times_an_infinite_factor_is_zero(self):
        # X_1 = 999.9 X_2 + 14.1 Z: the indicator on X_2 kills every sample
        # whose polygauss value overflows (|X_1| above about 1209), and its
        # survivors stay finite.  A dead sample's product is 0, its true
        # value, where the plain product 0 * inf is NaN; the polygauss is
        # never evaluated on a dead sample, so nothing overflows.
        x = decouple.from_covariance([[1e6, 999.9], [999.9, 1.0]])
        fs = [verify.PolyGauss(100, 1e9), verify.Indicator(-0.01, 0.01)]
        xs = np.random.default_rng(0).standard_normal((200_000, 2)) @ matcore.cholesky(x.c).T
        with np.errstate(over="ignore", invalid="ignore"):
            plain_product = fs[0].evaluate(xs[:, 0]) * fs[1].evaluate(xs[:, 1])
        assert np.isnan(plain_product).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = verify.mc_expectation(x, fs, 200_000, seed=0)
            chunks = sequential_chunk_values(x, fs, 200_000, seed=0)
        assert all(np.isfinite(vals).all() for vals in chunks)
        total = 0.0
        for vals in chunks:
            total += float(np.sum(vals))
        assert mean == total / 200_000 and mean > 0.0
        assert 0.0 < se < math.inf

    @pytest.mark.parametrize("dropped", [[0], [3], [1, 4]])
    def test_full_line_is_left_out(self, dropped):
        # Indicator(-inf, inf) is the constant 1, so its coordinate is left
        # out of the sample: bit for bit, the estimate on the vector with
        # that coordinate deleted
        c = covgen.generate(covgen.RandomSPD(6, seed=4, cond=20.0))
        fs = [verify.Indicator(-0.5, math.inf), verify.PolyGauss(1, 3.0), verify.Indicator(-1.0, 1.0),
              verify.PolyGauss(0, 2.0), verify.Indicator(-math.inf, 0.8), verify.PolyGauss(2, 1.5)]
        kept = [j for j in range(6) if j not in dropped]
        full = [verify.Indicator(-math.inf, math.inf) if j in dropped else f for j, f in enumerate(fs)]
        deleted = decouple.from_covariance(c[np.ix_(kept, kept)])
        for g in (fs, plain(fs)):
            got = verify.mc_expectation(
                decouple.from_covariance(c),
                [full[j] if j in dropped else g[j] for j in range(6)], 100_000, seed=8,
            )
            assert got == verify.mc_expectation(deleted, [g[j] for j in kept], 100_000, seed=8)

    def test_only_full_lines_draw_nothing(self, monkeypatch):
        # nothing left to sample: 1 with a standard error of 0, once the
        # counts are checked
        def no_chunks(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(verify, "_chunk_sums", no_chunks)
        fs = [verify.Indicator(-math.inf, math.inf)] * 2
        assert verify.mc_expectation(EQUI, fs, 20_000, seed=0) == (1.0, 0.0)
        with pytest.raises(InvalidParameter, match="samples"):
            verify.mc_expectation(EQUI, fs, 100, seed=0)
        with pytest.raises(InvalidParameter, match="seed"):
            verify.mc_expectation(EQUI, fs, 20_000, seed=-1)

    def test_equicorrelated_orthant(self):
        # P(X_i > 0 for all i) = 1/(n+1) at correlation 1/2: most samples
        # die at one of the twelve indicators
        x = decouple.from_covariance(covgen.generate(covgen.Equicorrelated(12, 0.5)))
        est, se = verify.mc_expectation(x, [HALF_LINE] * 12, 400_000, seed=13)
        assert abs(est - 1.0 / 13.0) <= 4.0 * se

    @pytest.mark.parametrize("seed", [1, 2])
    def test_permuting_the_coordinates(self, seed):
        # the same expectation, drawn in another order: the estimates agree
        # within 4 sigma
        n = 10
        c = covgen.generate(covgen.RandomSPD(n, seed=seed, cond=30.0))
        pattern = [verify.Indicator(-0.3, math.inf), verify.PolyGauss(1, 2.0),
                   verify.Indicator(-1.2, 0.9), verify.Indicator(-math.inf, 1.1), verify.PolyGauss(0, 3.0)]
        fs = [pattern[j % len(pattern)] for j in range(n)]
        perm = np.random.default_rng(seed).permutation(n)
        est, se = verify.mc_expectation(decouple.from_covariance(c), fs, 200_000, seed=seed)
        moved, moved_se = verify.mc_expectation(
            decouple.from_covariance(c[np.ix_(perm, perm)]), [fs[j] for j in perm], 200_000, seed=seed
        )
        assert se > 0.0 and moved_se > 0.0
        assert abs(est - moved) <= 4.0 * math.hypot(se, moved_se)

    def test_sample_floor(self):
        with pytest.raises(InvalidParameter):
            verify.mc_expectation(EQUI, [HALF_LINE, HALF_LINE], 100, seed=0)

    def test_integral_float_samples_is_a_count(self):
        fs = [HALF_LINE, HALF_LINE]
        got = verify.mc_expectation(EQUI, fs, 1e5, seed=3)
        assert got == verify.mc_expectation(EQUI, fs, 100_000, seed=3)
        result = verify.check_inequality(EQUI, fs, 3.0, samples=1e5, seed=3)
        assert result.samples == 100_000 and result.lhs_estimate == got[0]

    @pytest.mark.parametrize("samples, seed, name", [
        (20_000, -1, "seed"),
        (20_000, 1.5, "seed"),
        (20_000.5, 0, "samples"),
        (np.float32(20_000.5), 0, "samples"),
    ])
    def test_counts_are_integers(self, samples, seed, name):
        with pytest.raises(InvalidParameter, match=name):
            verify.mc_expectation(EQUI, [HALF_LINE, HALF_LINE], samples, seed)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_deadline_cancels_queued_chunks(self, monkeypatch, deadline, seed):
        # 62 chunks at n = 50 take seconds; an alarm lands in the sampler's
        # loop, between numpy calls, and ends the call before the chunks
        # still to come are drawn, also where forked children run the later
        # slices: they are killed, not waited for
        x = decouple.from_covariance(covgen.generate(covgen.AR1(50, 0.5)))
        fs = [PlainBump(2.0)] * 50
        for processes in (1, 2, 3):
            monkeypatch.setattr(verify, "_cpu_count", lambda: processes)
            start = time.perf_counter()
            with pytest.raises(DeadlineExceeded), deadline(0.2):
                verify.mc_expectation(x, fs, 4_000_000, seed=seed)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("fails_at", [1, 3])
    def test_worker_error_surfaces(self, monkeypatch, fails_at):
        # the factor raises at its first evaluation, or at its third, once
        # two blocks have been drawn: the error ends the call as it is, in
        # the calling process and in every forked child
        calls = []

        class Exploding:
            def evaluate(self, x, out=None):
                calls.append(x.size)
                if len(calls) == fails_at:
                    raise FloatingPointError("evaluate failed")
                return HALF_LINE.evaluate(x, out)

        for processes in (1, 2, 3):
            monkeypatch.setattr(verify, "_cpu_count", lambda: processes)
            calls.clear()
            with pytest.raises(FloatingPointError):
                verify.mc_expectation(EQUI, [HALF_LINE, Exploding()], 5 * verify.MC_CHUNK, seed=2)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_error_in_a_child_reaches_the_caller(self, monkeypatch, processes):
        # the factor raises only in a forked child, after the calling
        # process has run its own slice: the exception crosses the pipe
        # with its type and message
        caller = os.getpid()

        class ChildOnly:
            def evaluate(self, x, out=None):
                if os.getpid() != caller:
                    raise ChildOnlyError(f"raised in a child, {x.size} rows")
                return HALF_LINE.evaluate(x, out)

        monkeypatch.setattr(verify, "_cpu_count", lambda: processes)
        with pytest.raises(ChildOnlyError, match="raised in a child"):
            verify.mc_expectation(EQUI, [HALF_LINE, ChildOnly()], 5 * verify.MC_CHUNK, seed=2)

    def test_interrupt_kills_the_children(self, monkeypatch):
        # an interrupt in the calling process, at its first evaluation, ends
        # the call at once: the children, whose slices take seconds, are
        # killed and reaped (the autouse no_leaked_children fixture checks
        # the reaping)
        caller = os.getpid()

        class Interrupted:
            def evaluate(self, x, out=None):
                if os.getpid() == caller:
                    raise KeyboardInterrupt
                return HALF_LINE.evaluate(x, out)

        x = decouple.from_covariance(covgen.generate(covgen.AR1(50, 0.5)))
        fs = [HALF_LINE] + [PlainBump(2.0)] * 48 + [Interrupted()]
        monkeypatch.setattr(verify, "_cpu_count", lambda: 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify.mc_expectation(x, fs, 4_000_000, seed=1)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_one_process_per_cpu_up_to_the_chunk_count(self, monkeypatch, cpus):
        # min(cpus, chunks) processes: the caller and one forked child per
        # further slice, with the same bits at every count
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
        fs = [HALF_LINE, verify.PolyGauss(1, 2.0)]
        for chunks in (1, 2, 3):
            samples = (chunks - 1) * verify.MC_CHUNK + verify.MIN_SAMPLES
            forks.clear()
            got = verify.mc_expectation(EQUI, fs, samples, seed=chunks)
            assert len(forks) == min(cpus, chunks) - 1
            assert got == sequential_mc_expectation(EQUI, fs, samples, seed=chunks)

    def test_cpu_count_reads_the_affinity_mask(self, monkeypatch):
        # the CPUs this process may run on; the machine's count where there
        # is no affinity call, and 1 where there is no fork
        assert verify._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert verify._cpu_count() == (os.cpu_count() or 1)
        monkeypatch.delattr(os, "fork")
        assert verify._cpu_count() == 1

    def test_memory_stays_bounded(self):
        # the call holds one chunk's products, two buffers of normals and
        # five rows of a block of at most 4 MC_BLOCK samples, whatever the
        # sample count
        n = 50
        x = decouple.from_covariance(covgen.generate(covgen.AR1(n, 0.5)))
        fs = plain([FUNCTION_MIX[j % 3] for j in range(n)])
        floats = 2 * verify.MC_BLOCK * n + verify.MC_CHUNK + 5 * (4 * verify.MC_BLOCK)
        tracemalloc.start()
        try:
            verify.mc_expectation(x, fs, 1_000_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * floats * 8

    def test_function_count_checked(self):
        with pytest.raises(InvalidParameter):
            verify.mc_expectation(EQUI, [HALF_LINE], 20_000, seed=0)


class ChildOnlyError(Exception):
    """Raised by a test function in a forked child only; defined at module
    level, so that the child can pickle it and the caller unpickle it."""


FUNCTION_MIX = [verify.Indicator(-0.5, math.inf), verify.PolyGauss(0, 2.0), verify.PolyGauss(1, 3.0)]


def oracle_vector(n, case):
    families = [
        covgen.AR1(n, 0.5),
        covgen.Equicorrelated(n, 0.3),
        covgen.RandomSPD(n, seed=n, cond=20.0),
    ]
    fam = families[case % 3] if n > 1 else covgen.AR1(1, 0.0)
    fs = [FUNCTION_MIX[(j + case) % 3] for j in range(n)]
    return decouple.from_covariance(covgen.generate(fam)), fs


def _cycle(pattern):
    return lambda n: [pattern[j % len(pattern)] for j in range(n)]


TAIL = verify.Indicator(0.3, math.inf)
# Function lists for test_bits on AR1(n, 0.5), whose variances are 1: the
# sampler draws the indicator coordinates first, each only for the samples
# still alive, and the other coordinates and factors for the survivors
# alone, so neither the block size nor how many samples survive may move a
# bit.
NAMED_LISTS = {
    "indicators-first": lambda n: [TAIL] * (n // 2) + _cycle(FUNCTION_MIX[1:])(n - n // 2),
    "indicators-last": lambda n: _cycle(FUNCTION_MIX[1:])(n - n // 2) + [TAIL] * (n // 2),
    "interleaved": _cycle([TAIL, verify.PolyGauss(2, 3.0), verify.Indicator(-1.0, 1.5)]
                          + FUNCTION_MIX[1:]),
    "only-indicators": _cycle([TAIL, verify.Indicator(-0.5, math.inf), verify.Indicator(-1.0, 1.0)]),
    "no-indicators": _cycle(FUNCTION_MIX[1:] + [verify.PolyGauss(2, 1.0)]),
    # the constant 1: nothing is drawn
    "full-line": _cycle([verify.Indicator(-math.inf, math.inf)]),
    # full lines left out between the others
    "full-line-mix": _cycle([verify.Indicator(-math.inf, math.inf), TAIL, verify.PolyGauss(2, 3.0)]),
    # every sample dies in every block: P(X > 8) is about 6e-16
    "all-die": lambda n: [verify.Indicator(8.0, math.inf)] + _cycle(FUNCTION_MIX[1:])(n - 1),
    # about one survivor in 740, so many blocks of 1000 rows have none
    "rare-survivors": lambda n: [verify.Indicator(3.0, math.inf)] + _cycle(FUNCTION_MIX[1:])(n - 1),
    "polygauss-k3-5": _cycle([verify.PolyGauss(3, 2.0), TAIL, verify.PolyGauss(4, 1.5),
                              verify.PolyGauss(5, 3.0)]),
}


class Recorder:
    """A test function that keeps a copy of every row it is handed and
    returns ones."""

    def __init__(self):
        self.rows = []

    def evaluate(self, x, out=None):
        self.rows.append(x.copy())
        return np.ones(np.shape(x))


@dataclass(frozen=True)
class RecordingIndicator(verify.Indicator):
    """An indicator that keeps a copy of every row its mask is taken on."""

    rows: list = field(default_factory=list, compare=False)

    def inside(self, x, out):
        self.rows.append(x.copy())
        return super().inside(x, out)


class TestSamplerMatchesSequentialLoop:
    """The row-blocked sampler returns the same bits as one sequential loop
    over whole chunks, for any block size and any number of processes."""

    @pytest.mark.parametrize(
        "n,samples,case",
        [
            (n, samples, n + samples)
            for n in (1, 2, 9, 26, 50)
            for samples in (
                verify.MIN_SAMPLES,
                verify.MC_CHUNK - 1,
                verify.MC_CHUNK,
                verify.MC_CHUNK + 1,
            )
        ]
        # 16 chunks, the last one 16960 rows (four full blocks and 576 rows)
        + [(9, 1_000_000, 0), (26, 1_000_000, 1), (2, 1_000_000, 2)]
        + [(9, verify.MC_CHUNK + 1, name) for name in NAMED_LISTS]
        + [(5, 1_000_000, "interleaved"), (3, 1_000_000, "polygauss-k3-5")],
    )
    def test_bits(self, monkeypatch, n, samples, case):
        # MC_BLOCK is outside the contract too: a block that divides
        # MC_CHUNK (4096) or not (1000, and the prime 10007) gives the bits
        # of whole chunks, whether the chunks run in the calling process or
        # in slices over two or three processes
        if isinstance(case, str):
            seed = n + samples
            x = decouple.from_covariance(covgen.generate(covgen.AR1(n, 0.5)))
            fs = NAMED_LISTS[case](n)
        else:
            seed = case
            x, fs = oracle_vector(n, case)
        fs = plain(fs)  # a gaussbump would be integrated, not drawn
        expected = sequential_mc_expectation(x, fs, samples, seed=seed)
        for block in (1000, 4096, 10007):
            monkeypatch.setattr(verify, "MC_BLOCK", block)
            for processes in (1, 2, 3):
                monkeypatch.setattr(verify, "_cpu_count", lambda: processes)
                assert verify.mc_expectation(x, fs, samples, seed=seed) == expected

    @pytest.mark.parametrize("samples", [verify.MIN_SAMPLES + 7, verify.MC_CHUNK + 1815])
    def test_factors_after_an_indicator_see_only_its_survivors(self, monkeypatch, samples):
        # the half line kills about half the samples; its mask is taken on
        # every sample, and the Recorder after it is handed the survivors
        # alone, with the bits of the whole-chunk loop, and the estimate
        # keeps its bits.  One process: a forked child's rows never reach
        # the Recorders' lists
        monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
        got = [RecordingIndicator(0.0, math.inf), Recorder()]
        verify.mc_expectation(EQUI, got, samples, seed=6)
        whole = [RecordingIndicator(0.0, math.inf), Recorder()]
        sequential_chunk_values(EQUI, whole, samples, seed=6)
        (first, second), (whole_first, whole_second) = (
            [np.concatenate(f.rows) for f in fs] for fs in (got, whole)
        )
        assert first.size == samples and second.size == np.count_nonzero(first > 0.0)
        assert 0.4 < second.size / samples < 0.6
        assert np.array_equal(float_bits(first), float_bits(whole_first))
        assert np.array_equal(float_bits(second), float_bits(whole_second))
        fs = [HALF_LINE, Recorder()]
        assert verify.mc_expectation(EQUI, fs, samples, seed=6) == sequential_mc_expectation(
            EQUI, fs, samples, seed=6
        )

    @pytest.mark.parametrize("samples", [
        # a last block of 1815 rows, and a second chunk of one such block
        verify.MIN_SAMPLES + 7,
        verify.MC_CHUNK + 1815,
    ])
    def test_rows_are_the_whole_chunk_product(self, monkeypatch, samples):
        # every test function reads its coordinate of z L^T with the bits of
        # the whole-chunk product, in full blocks and in a last block whose
        # row count is not a multiple of 8.  One process: a forked child's
        # rows never reach the Recorders' lists
        monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
        n = 13
        x = decouple.from_covariance(covgen.generate(covgen.RandomSPD(n, seed=n, cond=20.0)))
        got = [Recorder() for _ in range(n)]
        expected = [Recorder() for _ in range(n)]
        verify.mc_expectation(x, got, samples, seed=4)
        sequential_chunk_values(x, expected, samples, seed=4)
        for g, e in zip(got, expected):
            assert np.array_equal(float_bits(np.concatenate(g.rows)), float_bits(np.concatenate(e.rows)))


    @pytest.mark.parametrize("block", [1000, 10007])
    def test_trailing_columns_of_a_tile(self, monkeypatch, block):
        # BLAS computes the columns of a last partial group of 16 with
        # other kernels and, at n = 26, other bits; every sample is kept,
        # so the tiles' last columns are all read
        monkeypatch.setattr(verify, "MC_BLOCK", block)
        n = 26
        x = decouple.from_covariance(covgen.generate(covgen.RandomSPD(n, seed=n, cond=20.0)))
        got = [Recorder() for _ in range(n)]
        expected = [Recorder() for _ in range(n)]
        verify.mc_expectation(x, got, verify.MC_CHUNK, seed=3)
        sequential_chunk_values(x, expected, verify.MC_CHUNK, seed=3)
        for g, e in zip(got, expected):
            assert np.array_equal(float_bits(np.concatenate(g.rows)), float_bits(np.concatenate(e.rows)))


class TestCheckInequality:
    def test_equicorrelated_half_lines(self):
        res = verify.check_inequality(EQUI, [HALF_LINE, HALF_LINE], 3.0, samples=200_000, seed=1)
        assert res.passed
        assert abs(res.lhs_estimate - 1.0 / 3.0) <= 4.0 * res.lhs_stderr
        q = decouple.q_new(EQUI, 3.0)
        assert res.rhs_bound == pytest.approx(q * 0.5 ** (2.0 / 3.0), rel=1e-12)

    def test_identity_hoelder_case(self):
        x = decouple.from_covariance(np.eye(3))
        res = verify.check_inequality(x, [HALF_LINE] * 3, 2.0, samples=100_000, seed=2)
        assert res.passed
        assert res.rhs_bound >= 0.5 ** (3.0 / 2.0)

    def test_not_in_region(self):
        with pytest.raises(NotInRegion):
            verify.check_inequality(EQUI, [HALF_LINE, HALF_LINE], 1.2, samples=20_000, seed=0)

    def test_breakpoint_margin(self):
        with pytest.raises(NotInRegion):
            verify.check_inequality(
                EQUI, [HALF_LINE, HALF_LINE], 1.5 + 1e-10, samples=20_000, seed=0
            )

    def test_classical_route(self):
        res = verify.check_inequality(
            EQUI, [HALF_LINE, HALF_LINE], 3.0, samples=100_000, seed=3, constant="old"
        )
        assert res.passed
        expected_q = decouple.q_old(EQUI, 3.0, 2.0)  # optimal beta_bar = 2
        assert res.rhs_bound == pytest.approx(expected_q * 0.5 ** (2.0 / 3.0), rel=1e-12)

    def test_classical_route_fixed_beta(self):
        res = verify.check_inequality(
            EQUI, [HALF_LINE, HALF_LINE], 4.0, samples=100_000, seed=3,
            constant="old", beta=2.0,
        )
        assert res.passed

    @pytest.mark.parametrize("constant", ["new", "old"])
    @pytest.mark.parametrize("beta", [0.5, math.nan])
    def test_invalid_beta_rejected_for_either_constant(self, constant, beta):
        with pytest.raises(InvalidParameter, match="beta must be >= 1"):
            verify.check_inequality(
                EQUI, [HALF_LINE, HALF_LINE], 3.0, samples=20_000, seed=0,
                constant=constant, beta=beta,
            )

    def test_classical_route_below_threshold(self):
        with pytest.raises(NotAdmissibleClassical):
            verify.check_inequality(
                EQUI, [HALF_LINE, HALF_LINE], 1.4, samples=20_000, seed=0, constant="old"
            )

    def test_mixed_function_families(self):
        fs = [verify.PolyGauss(0, 1.0), verify.PolyGauss(1, 2.0)]
        res = verify.check_inequality(EQUI, fs, 2.0, samples=150_000, seed=6)
        assert res.passed and res.margin_sigmas > 0.0

    def test_result_json_form(self):
        res = verify.check_inequality(EQUI, [HALF_LINE, HALF_LINE], 3.0, samples=20_000, seed=7)
        doc = res.to_json_dict()
        assert set(doc) == {
            "lhs_estimate",
            "lhs_stderr",
            "rhs_bound",
            "margin_sigmas",
            "samples",
            "seed",
            "passed",
        }


def top_breakpoint(x):
    return float(max(decouple.region_of(x).breakpoints))


class TestGaussbumpTilt:
    """mc_expectation integrates the Gaussian bumps exactly and samples the
    other coordinates given them; check_inequality's left side is its
    estimate."""

    def test_bump_only_lhs_is_exact(self):
        # plain sampling gave 1.71e-11 +- 1.64e-11 here with 1e6 samples
        c = covgen.generate(covgen.RandomSPD(20, seed=3, cond=100.0))
        x = decouple.from_covariance(c)
        s = np.random.default_rng(1).uniform(0.5, 4.0, 20)
        sign, logdet = np.linalg.slogdet(np.eye(20) + 2.0 * c / s[None, :])
        assert sign == 1.0
        fs = [verify.PolyGauss(0, float(v)) for v in s]
        res = verify.check_inequality(x, fs, 1.5 * top_breakpoint(x), samples=1_000_000, seed=0)
        assert res.lhs_estimate == pytest.approx(math.exp(-0.5 * logdet), rel=1e-12, abs=0.0)
        assert res.lhs_stderr == 0.0 and res.margin_sigmas == math.inf and res.passed
        assert res.samples == 1_000_000

    @pytest.mark.parametrize("case", range(5))
    def test_reduced_vector_is_the_inverse_form(self, case):
        # cov(Y) = (C^-1 + 2D)^-1 on S, kappa = det(I + 2 D C)^(-1/2), with
        # D = diag(1/s) on the bumps and 0 elsewhere
        n = 12
        c = covgen.generate(covgen.RandomSPD(n, seed=case, cond=50.0))
        rng = np.random.default_rng(case)
        fs = [verify.PolyGauss(0, float(rng.uniform(0.5, 4.0))) if rng.random() < 0.5
              else FUNCTION_MIX[int(rng.integers(0, 3))] for _ in range(n)]
        bumps = [j for j, f in enumerate(fs) if isinstance(f, verify.PolyGauss) and f.k == 0]
        # the indicators first, by ascending mass P(a < X_j < b), ties in
        # input order, then the others in input order
        sigma = np.sqrt(np.diag(c))
        mass = {j: 0.5 * math.erfc(fs[j].a / (sigma[j] * math.sqrt(2.0)))
                for j in range(n) if isinstance(fs[j], verify.Indicator)}
        rest = sorted(mass, key=mass.get) + [j for j in range(n) if j not in bumps and j not in mass]
        d = np.zeros(n)
        d[bumps] = [1.0 / fs[j].s for j in bumps]
        log_kappa, f, got = verify._tilt(decouple.from_covariance(c), fs)
        assert got == [fs[j] for j in rest]
        tilted = np.linalg.inv(np.linalg.inv(c) + 2.0 * np.diag(d))[np.ix_(rest, rest)]
        assert np.array_equal(f, np.tril(f)) and np.all(np.diag(f) > 0.0)
        assert f.flags.c_contiguous
        assert np.max(np.abs(f @ f.T - tilted)) <= 1e-13 * np.max(np.abs(tilted))
        _, logdet = np.linalg.slogdet(np.eye(n) + 2.0 * np.diag(d) @ c)
        assert log_kappa == pytest.approx(-0.5 * logdet, rel=1e-13, abs=1e-14)

    def test_indicators_lead_by_ascending_mass(self):
        # masses 0.16, 0.38, 0.5 and 0.5 (a tie, kept in input order), the
        # full line left out, the bump first and the polygauss last; X's own
        # variances set each mass
        c = np.diag([1.0, 3.0, 4.0, 1.0, 9.0, 1.0, 2.0])
        c[0, 3] = c[3, 0] = 0.4
        c[2, 5] = c[5, 2] = -0.7
        fs = [verify.Indicator(0.0, math.inf), verify.PolyGauss(1, 2.0), verify.Indicator(-1.0, 1.0),
              verify.Indicator(-math.inf, 0.0), verify.Indicator(-math.inf, math.inf),
              verify.Indicator(1.0, math.inf), verify.PolyGauss(0, 1.5)]
        x = decouple.from_covariance(c)
        order = [6, 5, 2, 0, 3, 1]
        log_kappa, factor, rest = verify._tilt(x, fs)
        assert rest == [fs[j] for j in order[1:]]
        a = c[np.ix_(order, order)].copy()
        a[0, 0] += 1.5 / 2.0
        low = np.linalg.cholesky(a)
        assert np.allclose(factor, low[1:, 1:], rtol=1e-14, atol=1e-15)
        assert log_kappa == pytest.approx(math.log(math.sqrt(0.75) / low[0, 0]), rel=1e-14)
        assert factor.flags.c_contiguous

    def test_without_a_bump_nothing_changes(self):
        # no bump, no full line, and the indicators first with masses in
        # ascending order (here all equal, on an equicorrelated vector)
        x, fs = oracle_vector(9, 1)
        fs = [verify.PolyGauss(1, 3.0) if isinstance(f, verify.PolyGauss) else f for f in fs]
        fs = sorted(fs, key=lambda f: not isinstance(f, verify.Indicator))
        assert isinstance(fs[0], verify.Indicator) and not isinstance(fs[-1], verify.Indicator)
        log_kappa, factor, rest = verify._tilt(x, fs)
        # C/4 is factored and the factor doubled: exact powers of two
        assert log_kappa == 0.0 and rest == fs
        np.testing.assert_array_equal(factor, matcore.cholesky(x.c), strict=True)
        res = verify.check_inequality(x, fs, 1.5 * top_breakpoint(x), samples=100_000, seed=5)
        expected = sequential_mc_expectation(x, fs, 100_000, seed=5)
        assert (res.lhs_estimate, res.lhs_stderr) == expected

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("n,case", [(2, 1), (9, 0), (26, 2)])
    def test_lhs_is_kappa_times_the_reduced_estimate(self, monkeypatch, scale, n, case):
        # bit for bit: the whole-chunk estimate on the vector of the
        # returned factor, times kappa, and check_inequality's left side is
        # that estimate, after one factorization, in one process or two;
        # scale x 100_000 samples leave a last chunk of 34464 or of 3392
        samples = scale * 100_000
        x, fs = oracle_vector(n, case)
        log_kappa, _, rest = verify._tilt(x, fs)
        assert 0 < len(rest) < n and log_kappa < 0.0
        mean, se = sequential_mc_expectation(x, fs, samples, seed=n)
        kappa = math.exp(log_kappa)
        cholesky = matcore.cholesky
        for processes in (1, 2):
            monkeypatch.setattr(verify, "_cpu_count", lambda: processes)
            assert verify.mc_expectation(x, fs, samples, seed=n) == (kappa * mean, kappa * se)
            factorizations = []
            monkeypatch.setattr(
                matcore, "cholesky", lambda a: factorizations.append(a) or cholesky(a)
            )
            res = verify.check_inequality(x, fs, 1.5 * top_breakpoint(x), samples=samples, seed=n)
            assert len(factorizations) == 1
            assert (res.lhs_estimate, res.lhs_stderr) == (kappa * mean, kappa * se)
            monkeypatch.setattr(matcore, "cholesky", cholesky)

    @pytest.mark.parametrize("family", [covgen.AR1(6, 0.7), covgen.Equicorrelated(6, 0.5)])
    @pytest.mark.parametrize("pattern", [
        [verify.PolyGauss(0, 1.0), verify.Indicator(-0.5, math.inf), verify.PolyGauss(1, 2.0)],
        [verify.Indicator(-1.0, 1.0), verify.PolyGauss(0, 3.0), verify.PolyGauss(0, 0.5)],
        [verify.PolyGauss(2, 2.0), verify.PolyGauss(0, 2.0)],
    ])
    def test_tilted_and_plain_estimates_agree(self, family, pattern):
        x = decouple.from_covariance(covgen.generate(family))
        fs = [pattern[j % len(pattern)] for j in range(x.n)]
        res = verify.check_inequality(x, fs, 1.5 * top_breakpoint(x), samples=400_000, seed=11)
        est, se = verify.mc_expectation(x, plain(fs), 400_000, seed=12)
        assert res.lhs_stderr > 0.0
        assert abs(res.lhs_estimate - est) <= 4.0 * math.hypot(res.lhs_stderr, se)

    def test_heavy_tailed_product_is_not_understated(self):
        # a monte-carlo benchmark op (seed 4242, block 0, op 5: verify
        # --constant old at p = 20.909293579755087, seed 883670125) with nine
        # indicators and nine bumps.  Reference: mc_expectation with 1.6e7
        # samples at seed 1, 7.778785473370842e-10 +- 2.1838957330908712e-12.
        # Sampled plainly, the bumps gave 1.56e-11 +- 1.1e-11 at the op's
        # seed: a stderr that claims a precision the estimate does not have
        ref, ref_se = 7.778785473370842e-10, 2.1838957330908712e-12
        x = decouple.from_covariance(
            covgen.generate(covgen.RandomSPD(20, seed=1545808108, cond=15.283966))
        )
        fs = verify.parse_test_functions([
            {"kind": "gaussbump", "s": 1.1933}, {"kind": "indicator", "a": "-inf", "b": 1.2954},
            {"kind": "gaussbump", "s": 2.88}, {"kind": "indicator", "a": -1.1653, "b": "inf"},
            {"kind": "gaussbump", "s": 1.9355}, {"kind": "gaussbump", "s": 1.2717},
            {"kind": "polygauss", "k": 1, "s": 3.7466}, {"kind": "gaussbump", "s": 2.4178},
            {"kind": "indicator", "a": "-inf", "b": "inf"}, {"kind": "gaussbump", "s": 0.6824},
            {"kind": "indicator", "a": -1.0889, "b": "inf"}, {"kind": "gaussbump", "s": 0.7577},
            {"kind": "gaussbump", "s": 1.0149}, {"kind": "indicator", "a": "-inf", "b": "inf"},
            {"kind": "indicator", "a": -0.5522, "b": "inf"},
            {"kind": "indicator", "a": "-inf", "b": 1.2467},
            {"kind": "indicator", "a": "-inf", "b": 0.5942},
            {"kind": "indicator", "a": -0.3873, "b": "inf"},
            {"kind": "polygauss", "k": 0, "s": 1.7526}, {"kind": "polygauss", "k": 2, "s": 3.9336},
        ])
        est, se = verify.mc_expectation(x, fs, 1_000_000, seed=883670125)
        assert abs(est - ref) <= 4.0 * math.hypot(se, ref_se)
        est, se = verify.mc_expectation(x, plain(fs), 1_000_000, seed=883670125)
        assert ref - est > 10.0 * math.hypot(se, ref_se)

    @pytest.mark.parametrize("samples, seed, name", [
        (100, 0, "samples"),
        (20_000, -1, "seed"),
        (20_000.5, 0, "samples"),
    ])
    def test_counts_checked_when_nothing_is_sampled(self, samples, seed, name):
        fs = [verify.PolyGauss(0, 1.0)] * 2
        with pytest.raises(InvalidParameter, match=name):
            verify.check_inequality(EQUI, fs, 3.0, samples=samples, seed=seed)
        with pytest.raises(InvalidParameter, match=name):
            verify.mc_expectation(EQUI, fs, samples, seed)

    def test_samples_reports_the_requested_count(self):
        fs = [verify.PolyGauss(0, 1.0)] * 2
        res = verify.check_inequality(EQUI, fs, 3.0, samples=1e5, seed=0)
        assert res.samples == 100_000 and res.lhs_stderr == 0.0


def two_block_vector():
    """Equicorrelated(3, 0.9) + Equicorrelated(4, 0.8), block-diagonal: the
    7 x 7 vector whose breakpoints are 2.8 and 3.4."""
    c = np.zeros((7, 7))
    c[:3, :3] = covgen.generate(covgen.Equicorrelated(3, 0.9))
    c[3:, 3:] = covgen.generate(covgen.Equicorrelated(4, 0.8))
    return decouple.from_covariance(c)


def two_block_lhs(fs):
    """The exact left side on two_block_vector(): one one-factor integral
    per block, multiplied."""
    return oracles.one_factor_lhs([math.sqrt(0.9)] * 3, [0.1] * 3, fs[:3]) * oracles.one_factor_lhs(
        [math.sqrt(0.8)] * 4, [0.2] * 4, fs[3:]
    )


def one_factor_form(rho, variances):
    """(v, d) with v v^T + diag(d) = Scaled(Equicorrelated(n, rho), variances)."""
    sigma = np.sqrt(np.asarray(variances, dtype=float))
    return sigma * math.sqrt(rho), sigma**2 * (1.0 - rho)


class TestOneFactorOracle:
    """oracles.one_factor_lhs, an exact left side for one-factor
    covariances that samples nothing, against closed forms and mpmath; then
    the sampler's estimates against it."""

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_sheppard_orthant(self, rho):
        v, d = one_factor_form(rho, [1.0, 1.0])
        got = oracles.one_factor_lhs(v, d, [HALF_LINE, HALF_LINE])
        assert got == pytest.approx(0.25 + math.asin(rho) / (2.0 * math.pi), rel=1e-13)

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_equicorrelated_half_orthant(self, n):
        v, d = one_factor_form(0.5, [1.0] * n)
        assert oracles.one_factor_lhs(v, d, [HALF_LINE] * n) == pytest.approx(1.0 / (n + 1), rel=1e-13)

    def test_bump_determinant(self):
        # kappa = det(I + 2 diag(1/s) C)^(-1/2) on a scaled equicorrelated C
        variances = [0.5, 2.0, 1.0, 3.0, 0.8]
        c = covgen.generate(covgen.Scaled(covgen.Equicorrelated(5, 0.3), tuple(variances)))
        s = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        sign, logdet = np.linalg.slogdet(np.eye(5) + 2.0 * c / s[None, :])
        assert sign == 1.0
        v, d = one_factor_form(0.3, variances)
        got = oracles.one_factor_lhs(v, d, [verify.PolyGauss(0, float(t)) for t in s])
        assert got == pytest.approx(math.exp(-0.5 * logdet), rel=1e-13)

    @pytest.mark.parametrize("f", [
        verify.Indicator(-0.5, 1.2), verify.Indicator(2.0, math.inf), verify.Indicator(-math.inf, -1.5),
        verify.PolyGauss(0, 0.7), verify.PolyGauss(1, 2.0), verify.PolyGauss(2, 3.0),
        verify.PolyGauss(3, 1.5),
    ])
    def test_inner_terms_against_mpmath(self, f):
        # E f(mu + sqrt(d) Z) at a few means, by mpmath quadrature at 30
        # digits, split where f has a kink or a jump
        d = 0.6
        with mpmath.workdps(30):
            for mu in (-3.0, -0.4, 0.0, 0.7, 5.0):
                def integrand(z, mu=mu):
                    y = mu + mpmath.sqrt(d) * z
                    if isinstance(f, verify.Indicator):
                        return mpmath.npdf(z) if f.a < y < f.b else mpmath.mpf(0)
                    return abs(y) ** f.k * mpmath.exp(-y * y / f.s) * mpmath.npdf(z)

                cuts = [b for b in (getattr(f, "a", 0.0), getattr(f, "b", 0.0)) if math.isfinite(b)]
                points = sorted({(mpmath.mpf(b) - mu) / mpmath.sqrt(d) for b in cuts})
                ref = mpmath.quad(integrand, [-mpmath.inf, *points, mpmath.inf])
                got = math.exp(float(oracles._log_inner(f, np.array([mu]), d)[0]))
                assert got == pytest.approx(float(ref), rel=1e-12)

    def test_mixed_pair_against_mpmath(self):
        # an indicator times a polygauss on Scaled(Equicorrelated(2, 0.6)),
        # variances 1 and 2: the bivariate normal integral by mpmath
        rho, (s1, s2) = 0.6, (1.0, 2.0)
        c12 = rho * math.sqrt(s1 * s2)
        det = s1 * s2 - c12 * c12
        v, d = one_factor_form(rho, [s1, s2])
        got = oracles.one_factor_lhs(v, d, [verify.Indicator(-0.5, 1.2), verify.PolyGauss(1, 2.0)])
        with mpmath.workdps(15):
            ref = mpmath.quad(
                lambda x1, x2: abs(x2) * mpmath.exp(-x2 * x2 / 2.0)
                * mpmath.exp(-(s2 * x1 * x1 - 2.0 * c12 * x1 * x2 + s1 * x2 * x2) / (2.0 * det))
                / (2.0 * mpmath.pi * mpmath.sqrt(det)),
                [-0.5, 1.2], [-mpmath.inf, 0.0, mpmath.inf],
            )
        assert got == pytest.approx(float(ref), rel=1e-12)

    def test_two_block_tails(self):
        # the exact left sides of seven Indicator(t, inf) on the two-block
        # vector at t = 1, 2, 4 and 6
        for t, exact in [(1, 5.978e-3), (2, 4.664e-5), (4, 6.752e-12), (6, 2.078e-22)]:
            assert two_block_lhs([verify.Indicator(t, math.inf)] * 7) == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("rho,variances,pattern", [
        (0.4, [1.0] * 6, [verify.Indicator(-0.5, math.inf), verify.PolyGauss(1, 2.0),
                          verify.PolyGauss(0, 1.5), verify.Indicator(-1.0, 1.2)]),
        (0.6, [0.5, 2.0, 1.0, 3.0, 0.8], [verify.PolyGauss(2, 3.0), verify.Indicator(-math.inf, 0.8),
                                          verify.Indicator(-0.7, math.inf), verify.PolyGauss(0, 2.0)]),
        (0.2, [4.0, 0.3, 1.5, 2.5, 1.0, 0.6, 2.0],
         [verify.Indicator(0.5, math.inf), verify.PolyGauss(3, 1.5), verify.Indicator(-2.0, 0.3)]),
    ])
    def test_verify_agrees_on_one_factor_cases(self, rho, variances, pattern):
        # verify's estimate on Equicorrelated and Scaled vectors of mixed
        # functions, within 4 of its standard errors of the exact left side
        n = len(variances)
        family = covgen.Equicorrelated(n, rho)
        if any(s != 1.0 for s in variances):
            family = covgen.Scaled(family, tuple(variances))
        x = decouple.from_covariance(covgen.generate(family))
        fs = [pattern[j % len(pattern)] for j in range(n)]
        exact = oracles.one_factor_lhs(*one_factor_form(rho, variances), fs)
        res = verify.check_inequality(x, fs, 1.5 * top_breakpoint(x), samples=400_000, seed=n)
        assert res.lhs_stderr > 0.0
        assert abs(res.lhs_estimate - exact) <= 4.0 * res.lhs_stderr

    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_sampler_agrees_on_the_two_block_tails(self, t):
        # seven Indicator(t, inf): at t = 2 about one sample in 21000
        # survives, so 1e6 samples still see hits
        fs = [verify.Indicator(t, math.inf)] * 7
        est, se = verify.mc_expectation(two_block_vector(), fs, 1_000_000, seed=3)
        assert se > 0.0
        assert abs(est - two_block_lhs(fs)) <= 4.0 * se

    def test_deep_tail_pass_is_uninformed(self):
        # Known failure, asserted as it stands: at t = 4 the exact left side
        # is 6.752e-12, about 4100 times the bound, but no sample survives
        # the seven indicators, so verify prints lhs 0 +- 0 and passes with
        # a margin of +inf.  Conditioning in place of rejection (ROADMAP
        # item 9) mends it; this test should then assert the exact value
        # within 4 standard errors and the failed check.
        x = two_block_vector()
        fs = [verify.Indicator(4.0, math.inf)] * 7
        exact = two_block_lhs(fs)
        res = verify.check_inequality(x, fs, 2.0, samples=1_000_000, seed=3)
        assert exact == pytest.approx(6.752e-12, rel=1e-3)
        assert exact > 1000.0 * res.rhs_bound
        assert (res.lhs_estimate, res.lhs_stderr) == (0.0, 0.0)
        assert res.passed and res.margin_sigmas == math.inf


class TestStressProbeBNotPositiveDefinite:
    """Exponents admissible by parity but with the shifted precision matrix
    indefinite: outcomes are recorded for inspection, not asserted, since the
    bound's derivation only covers the positive definite case."""

    def test_record_tally(self):
        x = decouple.from_covariance(covgen.generate(covgen.Equicorrelated(3, -0.4)))
        region = decouple.region_of(x)
        xi = decouple.simultaneous_diagonalization(x).xi
        top = float(np.max(1.0 / xi))
        probes = []
        for iv in region.intervals:
            if iv.admissible and iv.hi <= top:
                p = 0.5 * (iv.lo + iv.hi)
                if region.contains(p):
                    probes.append(p)
        assert probes, "expected an admissible component below the top breakpoint"
        tally = {"pass": 0, "fail": 0}
        for i, p in enumerate(probes):
            res = verify.check_inequality(
                x, [HALF_LINE] * 3, p, samples=100_000, seed=100 + i
            )
            assert not np.all(p * xi > 1.0)  # genuinely indefinite case
            tally["pass" if res.passed else "fail"] += 1
            print(
                f"stress probe p={p:.6f}: lhs={res.lhs_estimate:.6f} "
                f"rhs={res.rhs_bound:.6f} margin={res.margin_sigmas:.1f} sigma "
                f"passed={res.passed}"
            )
        print(f"stress probe tally: {tally}")
