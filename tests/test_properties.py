"""Property tests for invariants the paper implies.

The breakpoints are the eigenvalues of the correlation matrix
K = diag(1/sigma) C diag(1/sigma), so relabelling the coordinates (P C P^T)
or rescaling them (D C D) leaves the region and the region constant
unchanged, region membership is the sign of det(p*diag(gamma) - C), and the
breakpoints above p count the negative eigenvalues of that matrix.  Breakpoints
closer than the membership margin end one interval, and membership still
follows the parity rule around them.
The classical route's p(X) is never below the top breakpoint and equals it
for equicorrelated covariances; above it both paper constants are at least 1.
Marginal p-norms are nondecreasing in p (Lyapunov) and scale with sigma as
the test functions do.  The sampler's mean of Gaussian bumps lies within
four standard errors of its closed form.  The command line answers every
finite square matrix with a documented exit code.  Examples are
derandomized so the suite is deterministic.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussdec import cli, covgen, decouple, matcore, verify

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None, database=None)

# Probe exponents keep this relative distance from every breakpoint, so
# rounding in the eigenvalues or the LU determinant cannot flip a verdict.
PROBE_GAP = 1e-4
RTOL = 1e-9


@st.composite
def covariances(draw, max_n=8):
    """C = S (G G^T + I/10) S: positive definite, with variances spread by S."""
    n = draw(st.integers(2, max_n))
    g = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    s = draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
    return (g @ g.T + 0.1 * np.eye(n)) * np.outer(s, s)


def probes(region, extra=()):
    """Interval midpoints (and ``extra``) at least PROBE_GAP from every breakpoint."""
    points = [
        iv.lo + 1.0 if math.isinf(iv.hi) else 0.5 * (iv.lo + iv.hi) for iv in region.intervals
    ]
    return [
        p
        for p in (*points, *extra)
        if p > 1.0 and region.breakpoint_distance(p) > PROBE_GAP * max(1.0, p)
    ]


def assert_close(a, b, rtol=RTOL):
    np.testing.assert_allclose(np.asarray(b), np.asarray(a), rtol=rtol, atol=rtol)


@PROPERTY
@given(data=st.data(), c=covariances())
def test_permutation_invariance(data, c):
    n = c.shape[0]
    perm = data.draw(st.permutations(range(n)))
    x = decouple.from_covariance(c)
    y = decouple.from_covariance(c[np.ix_(perm, perm)])
    rx, ry = decouple.region_of(x), decouple.region_of(y)
    assert_close(rx.breakpoints, ry.breakpoints)
    for p in probes(rx):
        assert rx.contains(p) == ry.contains(p)
        if rx.contains(p):
            assert_close(decouple.q_new(x, p), decouple.q_new(y, p))
    bb = 1.5
    p_old = bb * decouple.decoupling_coefficient(x) + 0.5
    assert_close(decouple.q_old(x, p_old, bb), decouple.q_old(y, p_old, bb))


@PROPERTY
@given(data=st.data(), c=covariances())
def test_rescaling_invariance(data, c):
    n = c.shape[0]
    d = data.draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
    x = decouple.from_covariance(c)
    y = decouple.from_covariance(c * np.outer(d, d))
    rx, ry = decouple.region_of(x), decouple.region_of(y)
    assert_close(rx.breakpoints, ry.breakpoints)
    for p in probes(rx):
        if rx.contains(p):
            assert_close(decouple.q_new(x, p), decouple.q_new(y, p))


@PROPERTY
@given(c=covariances(), p=st.floats(1.0, 50.0, exclude_min=True))
def test_parity_is_determinant_sign(c, p):
    x = decouple.from_covariance(c)
    region = decouple.region_of(x)
    for q in probes(region, extra=(p,)):
        det = matcore.lu_det(decouple.shifted_matrix(x, q))
        assert region.contains(q) == (det > 0.0)


@PROPERTY
@given(c=covariances(), p=st.floats(1.0, 50.0, exclude_min=True))
def test_breakpoints_above_count_negative_eigenvalues(c, p):
    # Sylvester's law of inertia: p*diag(gamma) - C is congruent to p*I - K,
    # so its negative eigenvalues are the breakpoints above p, counted with
    # multiplicity; LAPACK's eigvalsh stands in for an LDL^T inertia count
    x = decouple.from_covariance(c)
    region = decouple.region_of(x)
    for q in probes(region, extra=(p,)):
        above = sum(1 for b in region.breakpoints if b > q)
        negative = int(np.sum(np.linalg.eigvalsh(decouple.shifted_matrix(x, q)) < 0.0))
        assert above == negative


def parity_rule(region, p):
    """Membership by counting: p > 1, farther than the margin from every
    breakpoint, and an even number of breakpoints above p (with multiplicity)."""
    if not math.isfinite(p) or p <= 1.0 or region.breakpoint_distance(p) <= region.margin(p):
        return False
    return sum(1 for b in region.breakpoints if b > p) % 2 == 0


@PROPERTY
@given(
    c=st.one_of(
        covariances(),
        # a repeated eigenvalue 1 - rho, which rounding spreads into a collapsed group
        st.builds(lambda n, rho: covgen.generate(covgen.Equicorrelated(n, rho)),
                  st.integers(3, 8), st.floats(-0.1, 0.9)),
    ),
    p=st.floats(1.0, 50.0),
)
def test_contains_is_the_parity_rule(c, p):
    region = decouple.region_of(decouple.from_covariance(c))
    near = [
        b + sign * k * region.margin(b)
        for b in region.breakpoints
        for sign in (-1.0, 1.0)
        for k in (0.0, 0.5, 2.0)
    ]
    for q in (p, *probes(region), *near):
        assert region.contains(q) == parity_rule(region, q)


@st.composite
def near_duplicate_breakpoints(draw):
    """Positive multisets in which each value may be followed by a chain of
    copies, each within a relative 1e-16 to 1e-7 of the one before; values
    at 1 put chains across the lower end of the region."""
    out = []
    values = st.one_of(st.floats(0.05, 20.0), st.just(1.0))
    for b in draw(st.lists(values, min_size=1, max_size=6)):
        out.append(b)
        for _ in range(draw(st.integers(0, 3))):
            b *= 1.0 + draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-16.0, -7.0))
            out.append(b)
    return out


@PROPERTY
@given(bps=near_duplicate_breakpoints())
def test_near_duplicate_breakpoints_keep_the_parity_rule(bps):
    region = decouple.admissible_region(bps)
    raw = set(region.breakpoints)
    lows = [iv.lo for iv in region.intervals[1:]]
    assert set(lows) <= raw  # every end is a breakpoint, not a merged value
    for iv in region.intervals[1:-1]:
        assert iv.hi - iv.lo > region.margin(iv.hi)
    ordered = sorted(raw)
    near = [b + k * region.margin(b) for b in ordered for k in (-2.0, 2.0)]
    middles = [0.5 * (lo + hi) for lo, hi in zip(ordered, ordered[1:])]
    for q in (*near, *middles):
        assert region.contains(q) == parity_rule(region, q)


@PROPERTY
@given(c=covariances(), p=st.floats(1.0, 1e6, exclude_min=True))
def test_q_new_finite_where_admissible(c, p):
    x = decouple.from_covariance(c)
    region = decouple.region_of(x)
    edges = [iv.lo + 2.0 * region.margin(iv.lo) for iv in region.intervals if iv.admissible]
    candidates = [p, *edges, *probes(region)]
    admissible = [q for q in candidates if region.contains(q)]
    assert admissible  # the top interval is always admissible
    for q in admissible:
        value = decouple.q_new(x, q)
        assert math.isfinite(value) and value > 0.0


@PROPERTY
@given(c=covariances())
def test_classical_route_never_reaches_below_the_top_breakpoint(c):
    # p(X) = ||diag(1/gamma) C||_inf bounds the spectral radius of
    # diag(1/gamma) C, which is similar to K, so p(X) >= lambda_max
    x = decouple.from_covariance(c)
    top = decouple.region_of(x).breakpoints[0]
    assert decouple.decoupling_coefficient(x) >= top * (1.0 - 1e-12)


@PROPERTY
@given(n=st.integers(2, 12), rho=st.floats(0.0, 0.99))
def test_classical_route_meets_the_top_breakpoint_when_equicorrelated(n, rho):
    # every row sum of K is its top eigenvalue 1 + (n - 1) rho
    x = decouple.from_covariance(covgen.generate(covgen.Equicorrelated(n, rho)))
    top = decouple.region_of(x).breakpoints[0]
    assert math.isclose(decouple.decoupling_coefficient(x), top, rel_tol=1e-12)


@PROPERTY
@given(
    c=covariances(),
    gap=st.floats(1e-6, 100.0),
    bb=st.floats(1.0, 10.0, exclude_min=True),
)
def test_paper_constants_are_at_least_one(c, gap, bb):
    # trace K = n, so sum(log lambda) <= 0 (AM-GM), and every other term of
    # log q_new (above lambda_max) and of log q_old is nonnegative
    x = decouple.from_covariance(c)
    region = decouple.region_of(x)
    p = region.breakpoints[0] * (1.0 + gap)  # lambda_max >= trace K / n = 1
    assert decouple.q_new(x, p) >= 1.0 - 1e-12
    # q_old raises unless check_classical passes
    p_old = bb * decouple.decoupling_coefficient(x) * (1.0 + gap)
    assert decouple.q_old(x, p_old, bb) >= 1.0 - 1e-12


@st.composite
def marginal_functions(draw):
    """Indicators with finite or infinite ends in +-12, Gaussian bumps
    (PolyGauss with k = 0) and PolyGauss with s in [0.1, 10] and k <= 6."""
    kind = draw(st.sampled_from(("indicator", "gaussbump", "polygauss")))
    if kind == "indicator":
        ends = sorted(draw(st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=2, unique=True)))
        a = -math.inf if draw(st.booleans()) else ends[0]
        b = math.inf if draw(st.booleans()) else ends[1]
        return verify.Indicator(a, b)
    s = draw(st.floats(0.1, 10.0))
    if kind == "gaussbump":
        return verify.PolyGauss(0, s)
    return verify.PolyGauss(draw(st.integers(0, 6)), s)


@PROPERTY
@given(
    f=marginal_functions(),
    sigma=st.floats(0.1, 10.0),
    p=st.floats(1.0, 30.0),
    step=st.floats(0.0, 30.0),
)
def test_pnorm_nondecreasing_in_p(f, sigma, p, step):
    low = verify.marginal_pnorm(f, sigma, p)
    high = verify.marginal_pnorm(f, sigma, p + step)
    assert low <= high * (1.0 + 1e-12)


@PROPERTY
@given(
    k=st.integers(0, 6),
    s=st.floats(0.1, 10.0),
    sigma=st.floats(0.1, 10.0),
    p=st.floats(1.0, 30.0),
)
def test_pnorm_sigma_scaling(k, s, sigma, p):
    # |sigma z|^k exp(-(sigma z)^2 / s) = sigma^k |z|^k exp(-z^2 / (s / sigma^2))
    scaled = verify.marginal_pnorm(verify.PolyGauss(k, s), sigma, p)
    unit = sigma**k * verify.marginal_pnorm(verify.PolyGauss(k, s / sigma**2), 1.0, p)
    assert math.isclose(scaled, unit, rel_tol=1e-12)


@PROPERTY
@given(data=st.data(), c=covariances(max_n=6))
def test_sampler_mean_of_gaussian_bumps(data, c):
    # E prod exp(-X_i^2 / s_i) = det(I + 2 S^(1/2) C S^(1/2))^(-1/2) with
    # S = diag(1/s), taken by numpy's slogdet, apart from matcore
    n = c.shape[0]
    s = data.draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
    root = 1.0 / np.sqrt(s)
    sign, logdet = np.linalg.slogdet(np.eye(n) + 2.0 * np.outer(root, root) * c)
    assert sign == 1.0
    fs = [verify.PolyGauss(0, float(v)) for v in s]
    est, se = verify.mc_expectation(decouple.from_covariance(c), fs, 20_000, seed=n)
    assert abs(est - math.exp(-0.5 * logdet)) <= 4.0 * se


@st.composite
def square_matrices(draw):
    """Finite n x n matrices: positive definite, near singular, symmetric
    (often indefinite, with zero or negative diagonal) or asymmetric."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("spd", "near-singular", "symmetric", "asymmetric")))
    g = draw(arrays(np.float64, (n, n), elements=st.floats(-10.0, 10.0)))
    if kind == "spd":
        return g @ g.T + 0.1 * np.eye(n)
    if kind == "near-singular":
        v = g[:, :1]
        return v @ v.T + 1e-9 * np.eye(n)
    if kind == "symmetric":
        return (g + g.T) / 2.0
    return g


DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(m=square_matrices(), p=st.floats(0.5, 50.0, exclude_min=True, exclude_max=True))
def test_cli_exit_codes_are_documented(m, p):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps({"n": m.shape[0], "rows": m.tolist()}))
        out = str(Path(tmp) / "out")
        for argv in (
            ["analyze", "--input", str(path), "--p", repr(p)],
            ["region", "--input", str(path), "--format", "json"],
            ["bounds", "--input", str(path), "--p", repr(p)],
        ):
            assert cli.main([*argv, "--output", out]) in DOCUMENTED_EXIT_CODES
