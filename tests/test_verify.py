"""Verification layer: closed-form ratios vs their bound, closed-form p-norms
vs quadrature and high-precision references, Monte Carlo against exact
oracles, and the end-to-end inequality check."""

import math
import time
import tracemalloc

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
    """The products v = prod_i f_i(X_i) of each chunk, drawn by one sequential
    loop over whole chunks."""
    low = x.cholesky_factor
    n_chunks = (samples + verify.MC_CHUNK - 1) // verify.MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    out = []
    left = samples
    for child in children:
        m = min(verify.MC_CHUNK, left)
        left -= m
        rng = np.random.Generator(np.random.SFC64(child))
        z = rng.standard_normal((m, x.n))
        xs = z @ low.T
        vals = np.ones(m)
        for j, f in enumerate(fs):
            vals *= f.evaluate(xs[:, j])
        out.append(vals)
    return out


def sequential_mc_expectation(x, fs, samples, seed):
    """The sampler as one sequential loop over whole chunks: the reference
    that the concurrent, row-blocked sampler must match bit for bit.  Each
    chunk gives its sum and centred sum of squares, merged as Chan, Golub and
    LeVeque do."""
    chunks = sequential_chunk_values(x, fs, samples, seed)
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
    return mean, math.sqrt(var / samples)


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
        # expressions the sampler used before it wrote into a work row; NaN
        # inputs give NaN either way (IEEE leaves the sign of a NaN result
        # open)
        rng = np.random.default_rng(0)
        special = [0.0, -0.0, 5e-324, 0.5, -1.0, 40.0, math.inf, -math.inf, math.nan]
        x = np.concatenate([4.0 * rng.standard_normal(64), special])
        out = np.full(x.size, 7.0)
        with np.errstate(invalid="ignore"):  # |inf|^k * exp(-inf) is NaN
            fresh = f.evaluate(x)
            got = f.evaluate(x, out)
            if isinstance(f, verify.Indicator):
                before = ((x > f.a) & (x < f.b)).astype(float)
            else:
                bump = np.exp(-(x * x) / f.s)
                before = bump if f.k == 0 else np.abs(x) ** f.k * bump
        assert got is out
        assert np.array_equal(float_bits(got), float_bits(fresh))
        nan = np.isnan(before)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(float_bits(got)[~nan], float_bits(before)[~nan])

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

    def test_gaussbump_determinant_oracle(self):
        # E prod exp(-X_i^2 / s_i) = det(I + 2 C diag(1/s))^(-1/2)
        c = covgen.generate(covgen.AR1(3, 0.6))
        x = decouple.from_covariance(c)
        s = np.array([1.0, 2.0, 0.5])
        fs = [verify.PolyGauss(0, float(v)) for v in s]
        exact = matcore.lu_det(np.eye(3) + 2.0 * c * (1.0 / s)[None, :]) ** -0.5
        est, se = verify.mc_expectation(x, fs, 400_000, seed=5)
        assert abs(est - exact) <= 4.0 * se

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
        fs = [verify.PolyGauss(0, 1e9)] * 2
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
        # 2^scale where the squares are normal floats
        x = decouple.from_covariance(cov)
        res = verify.check_inequality(x, fs, p, samples=1_000_000, seed=0)
        vals = np.ldexp(np.concatenate(sequential_chunk_values(x, fs, 1_000_000, seed=0)), scale)
        two_pass = math.ldexp(float(np.std(vals, ddof=1)) / math.sqrt(vals.size), -scale)
        assert two_pass > 0.0 and math.isfinite(two_pass)
        assert res.lhs_stderr == pytest.approx(two_pass, rel=1e-9, abs=0.0)
        assert math.isfinite(res.margin_sigmas)

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

    @pytest.mark.parametrize("workers", [1, 3])
    def test_deadline_cancels_queued_chunks(self, deadline, monkeypatch, workers):
        # 62 chunks at n = 50 take seconds; an alarm in the calling thread
        # must stop the running chunks at their next block and join every
        # worker
        monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
        x = decouple.from_covariance(covgen.generate(covgen.AR1(50, 0.5)))
        fs = [verify.PolyGauss(0, 2.0)] * 50
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded), deadline(0.2):
            verify.mc_expectation(x, fs, 4_000_000, seed=1)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_error_surfaces(self, monkeypatch, workers):
        class Exploding:
            def evaluate(self, x, out=None):
                raise FloatingPointError("evaluate failed")

        monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
        with pytest.raises(FloatingPointError):
            verify.mc_expectation(EQUI, [HALF_LINE, Exploding()], 5 * verify.MC_CHUNK, seed=2)

    def test_memory_stays_bounded(self, monkeypatch):
        # each worker holds one chunk's products and one block of normals,
        # samples and function values, whatever the sample count
        workers = 2
        monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
        n = 50
        x = decouple.from_covariance(covgen.generate(covgen.AR1(n, 0.5)))
        fs = [FUNCTION_MIX[j % 3] for j in range(n)]
        per_worker = 2 * verify.MC_BLOCK * n + verify.MC_CHUNK + verify.MC_BLOCK
        tracemalloc.start()
        try:
            verify.mc_expectation(x, fs, 1_000_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * workers * per_worker * 8

    def test_function_count_checked(self):
        with pytest.raises(InvalidParameter):
            verify.mc_expectation(EQUI, [HALF_LINE], 20_000, seed=0)


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


class Recorder:
    """A test function that keeps a copy of every row it is handed and
    returns ones."""

    def __init__(self):
        self.rows = []

    def evaluate(self, x, out=None):
        self.rows.append(x.copy())
        return np.ones(np.shape(x))


class TestSamplerMatchesSequentialLoop:
    """The concurrent, row-blocked sampler returns the same bits as one
    sequential loop over whole chunks, for any worker count."""

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
        + [(9, 1_000_000, 0), (26, 1_000_000, 1), (2, 1_000_000, 2)],
    )
    def test_bits(self, monkeypatch, n, samples, case):
        # MC_BLOCK is outside the contract too: a block that divides
        # MC_CHUNK (4096) or not (1000, and the prime 10007) gives the bits
        # of whole chunks
        x, fs = oracle_vector(n, case)
        expected = sequential_mc_expectation(x, fs, samples, seed=case)
        for block in (1000, 4096, 10007):
            monkeypatch.setattr(verify, "MC_BLOCK", block)
            for workers in (1, 3):
                monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
                assert verify.mc_expectation(x, fs, samples, seed=case) == expected

    @pytest.mark.parametrize("samples", [
        # a last block of 1815 rows, and a second chunk of one such block
        verify.MIN_SAMPLES + 7,
        verify.MC_CHUNK + 1815,
    ])
    def test_rows_are_the_whole_chunk_product(self, monkeypatch, samples):
        # every test function reads its coordinate of z L^T with the bits of
        # the whole-chunk product, in full blocks and in a last block whose
        # row count is not a multiple of 8
        monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
        n = 13
        x = decouple.from_covariance(covgen.generate(covgen.RandomSPD(n, seed=n, cond=20.0)))
        got = [Recorder() for _ in range(n)]
        expected = [Recorder() for _ in range(n)]
        verify.mc_expectation(x, got, samples, seed=4)
        sequential_chunk_values(x, expected, samples, seed=4)
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
