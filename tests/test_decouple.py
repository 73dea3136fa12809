"""Tests for the decoupling core: coefficients, the R = U D V construction,
the admissible region, both constants, and the determinant identity.

Expected values marked "hand" were computed independently (characteristic
polynomials, closed-form eigenvectors, direct formula evaluation) and are
frozen here; randomized suites check the invariants against brute-force
oracles written inline.
"""

import math

import numpy as np
import pytest

from gaussdec import bounds, covgen, decouple, matcore, verify
from gaussdec.errors import (
    DegenerateBeta,
    InvalidParameter,
    NonPositiveVariance,
    NotAdmissibleClassical,
    NotInRegion,
    NotPositiveDefinite,
    NotSymmetric,
)

EQUI = [[1.0, 0.5], [0.5, 1.0]]


def random_vector(n, seed, cond=25.0):
    return decouple.from_covariance(covgen.generate(covgen.RandomSPD(n, seed=seed, cond=cond)))


def brute_force_row_coefficient(c):
    """Independent oracle for the decoupling coefficient: plain double loop."""
    n = len(c)
    best = 0.0
    for i in range(n):
        total = 0.0
        for j in range(n):
            total += abs(c[i][j])
        best = max(best, total / c[i][i])
    return best


class TestFromCovariance:
    def test_identity(self):
        x = decouple.from_covariance(np.eye(3))
        np.testing.assert_array_equal(x.gamma, [1.0, 1.0, 1.0])

    def test_equicorrelated(self):
        x = decouple.from_covariance(EQUI)
        np.testing.assert_array_equal(x.gamma, [1.0, 1.0])
        np.testing.assert_array_equal(x.sigma, [1.0, 1.0])

    def test_rank_one_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            decouple.from_covariance([[1.0, 1.0], [1.0, 1.0]])

    def test_nonpositive_variance(self):
        with pytest.raises(NonPositiveVariance):
            decouple.from_covariance([[0.0, 0.0], [0.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            decouple.from_covariance([[1.0, 0.5], [0.1, 1.0]])

    def test_immutable(self):
        x = decouple.from_covariance(EQUI)
        with pytest.raises(ValueError):
            x.c[0, 0] = 2.0


class TestDecouplingCoefficient:
    def test_diagonal_is_one(self):
        assert decouple.decoupling_coefficient(decouple.from_covariance(np.eye(4))) == 1.0

    def test_equicorrelated(self):
        assert decouple.decoupling_coefficient(decouple.from_covariance(EQUI)) == 1.5

    def test_ar1_matches_brute_force(self):
        c = covgen.generate(covgen.AR1(3, 0.5))
        x = decouple.from_covariance(c)
        oracle = brute_force_row_coefficient(c.tolist())
        assert decouple.decoupling_coefficient(x) == pytest.approx(oracle, rel=1e-15)
        assert oracle == pytest.approx(2.0, abs=1e-15)  # middle row: 0.5 + 1 + 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_brute_force(self, seed):
        x = random_vector(5, seed)
        oracle = brute_force_row_coefficient(x.c.tolist())
        assert decouple.decoupling_coefficient(x) == pytest.approx(oracle, rel=1e-14)
        assert decouple.decoupling_coefficient(x) >= 1.0


class TestBetaBar:
    def test_identity_beta_two(self):
        assert decouple.beta_bar(decouple.from_covariance(np.eye(2)), 2.0) == 2.0

    def test_ratio_dominates(self):
        x = decouple.from_covariance(np.diag([1.0, 4.0]))
        assert decouple.beta_bar(x, 1.0) == 4.0

    def test_degenerate(self):
        with pytest.raises(DegenerateBeta):
            decouple.beta_bar(decouple.from_covariance(np.eye(2)), 1.0)

    def test_beta_below_one_rejected(self):
        with pytest.raises(InvalidParameter):
            decouple.beta_bar(decouple.from_covariance(np.eye(2)), 0.5)


class TestOptimalBetaBar:
    def test_identity(self):
        assert decouple.optimal_beta_bar(decouple.from_covariance(np.eye(2)), 3.0) == 3.0

    def test_equicorrelated(self):
        x = decouple.from_covariance(EQUI)
        assert decouple.optimal_beta_bar(x, 3.0) == 2.0  # 3 / p(X) = 3 / 1.5

    def test_below_threshold(self):
        with pytest.raises(NotAdmissibleClassical):
            decouple.optimal_beta_bar(decouple.from_covariance(EQUI), 1.2)

    def test_below_p_of_x_ends(self, deadline):
        # p / p(X) < 1 here, and fl(p / p(X)) * p(X) > p: nudging the cap
        # toward 1 instead of 0 never restored p >= cap * p(X).
        x = decouple.from_covariance(covgen.generate(covgen.AR1(100, 0.5)))
        with deadline(10.0), pytest.raises(NotAdmissibleClassical):
            decouple.optimal_beta_bar(x, 1.6)


class TestCheckExponent:
    @pytest.mark.parametrize("p", [1.0, 0.5, 0.0, -5.0, math.nan, math.inf])
    def test_every_answer_rejects_it(self, p):
        x = decouple.from_covariance(EQUI)
        fs = [verify.Indicator(0.0, math.inf)] * 2
        calls = [
            lambda: decouple.check_exponent(p),
            lambda: decouple.analyze(x, p),
            lambda: decouple.optimal_beta_bar(x, p),
            lambda: bounds.report(x, p),
            lambda: verify.check_inequality(x, fs, p, samples=20_000, constant="new"),
            lambda: verify.check_inequality(x, fs, p, samples=20_000, constant="old"),
        ]
        for call in calls:
            with pytest.raises(InvalidParameter, match="exceed 1"):
                call()

    def test_accepts_finite_above_one(self):
        for p in (math.nextafter(1.0, 2.0), 3.0, 1e300):
            decouple.check_exponent(p)


class TestLeastBetaBar:
    def test_fixed_beta(self):
        assert decouple.least_beta_bar(decouple.from_covariance(EQUI), 2.0) == 2.0

    def test_floor_for_optimal_and_degenerate_beta(self):
        x = decouple.from_covariance(EQUI)
        floor = 1.0 + decouple.EPS_BETA
        assert decouple.least_beta_bar(x) == floor
        assert decouple.least_beta_bar(x, 1.0) == floor

    def test_variance_ratio_dominates(self):
        x = decouple.from_covariance(np.diag([1.0, 4.0]))
        assert decouple.least_beta_bar(x) == 4.0
        assert decouple.least_beta_bar(x, 2.0) == 4.0


class TestQOld:
    def test_identity_two(self):
        x = decouple.from_covariance(np.eye(2))
        assert decouple.q_old(x, 2.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_scalar(self):
        x = decouple.from_covariance([[1.0]])
        assert decouple.q_old(x, 2.0, 2.0) == pytest.approx(2.0 ** 0.25, rel=1e-15)

    def test_equicorrelated(self):
        x = decouple.from_covariance(EQUI)
        expected = 0.75 ** (-1.0 / 6.0) * 2.0 ** (2.0 / 3.0)
        assert decouple.q_old(x, 3.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_condition_enforced(self):
        x = decouple.from_covariance(EQUI)
        with pytest.raises(NotAdmissibleClassical):
            decouple.q_old(x, 2.0, 2.0)  # needs p >= 2 * 1.5


class TestSimultaneousDiagonalization:
    def test_diagonal_covariance(self):
        x = decouple.from_covariance(np.diag([1.0, 4.0, 9.0]))
        sd = decouple.simultaneous_diagonalization(x)
        np.testing.assert_allclose(sd.xi, [1.0, 1.0, 1.0], atol=1e-12)

    def test_scalar(self):
        x = decouple.from_covariance([[4.0]])
        sd = decouple.simultaneous_diagonalization(x)
        assert sd.xi[0] == pytest.approx(1.0, abs=1e-14)

    def test_equicorrelated_hand(self):
        # eigenvectors (1, +-1)/sqrt(2): quadratic-form ratios give 1/xi = 1 +- rho
        x = decouple.from_covariance(EQUI)
        sd = decouple.simultaneous_diagonalization(x)
        np.testing.assert_allclose(1.0 / sd.xi, [1.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_defining_relations(self, seed):
        x = random_vector(int(np.random.default_rng(seed).integers(2, 9)), seed)
        sd = decouple.simultaneous_diagonalization(x)
        n = x.n
        assert np.max(np.abs(sd.r.T @ x.c @ sd.r - np.eye(n))) <= 1e-9
        assert (
            np.max(np.abs(sd.r.T @ np.diag(x.gamma) @ sd.r - np.diag(sd.xi))) <= 1e-9
        )
        assert np.all(sd.xi > 0.0)
        assert np.all(np.diff(1.0 / sd.xi) <= 1e-12)  # 1/xi descending
        assert np.max(np.abs(sd.r - sd.u @ sd.d @ sd.v)) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_xi_oracle_trace_det(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 13))
        x = random_vector(n, seed=900 + seed)
        sd = decouple.simultaneous_diagonalization(x)
        inv_xi = 1.0 / sd.xi
        oracle = decouple.correlation_eigs_oracle(x)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(np.sort(inv_xi) - np.sort(oracle))) <= 1e-10 * scale
        assert abs(float(np.sum(inv_xi)) - n) <= 1e-9
        det_ratio = matcore.lu_det(x.c) / float(np.prod(x.gamma))
        prod_inv = float(np.prod(inv_xi))
        assert abs(prod_inv - det_ratio) <= 1e-8 * max(abs(det_ratio), abs(prod_inv))
        # the production path: the region's breakpoints, the cached eigenvalues of K
        breakpoints = np.array(decouple.region_of(x).breakpoints)
        assert np.max(np.abs(breakpoints - oracle)) <= 1e-10 * scale

    def test_one_eigensolve_per_vector(self, monkeypatch):
        c = covgen.generate(covgen.RandomSPD(6, seed=31, cond=25.0))
        calls = {"sym_eigvals": 0, "sym_eigen": 0}
        det_args = []
        lu_det = matcore.lu_det

        def counting(name):
            original = getattr(matcore, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        def counting_det(a):
            det_args.append(np.array(a))
            return lu_det(a)

        for name in calls:
            monkeypatch.setattr(matcore, name, counting(name))
        monkeypatch.setattr(matcore, "lu_det", counting_det)
        x = decouple.from_covariance(c)
        decouple.region_of(x)
        ps = (1.3, 2.5, 12.0)
        reports = [decouple.analyze(x, p, beta=2.0) for p in ps]
        assert reports[-1].q_new is not None and reports[-1].q_old is not None
        assert calls == {"sym_eigvals": 1, "sym_eigen": 0}
        assert len(det_args) == 3
        for p, a in zip(ps, det_args):
            np.testing.assert_array_equal(a, decouple.shifted_matrix(x, p))
        assert not any(np.array_equal(a, x.c) for a in det_args)


class TestCorrelationOracle:
    def test_identity(self):
        x = decouple.from_covariance(np.eye(3))
        np.testing.assert_allclose(decouple.correlation_eigs_oracle(x), np.ones(3), atol=1e-12)

    def test_equicorrelated(self):
        x = decouple.from_covariance(EQUI)
        np.testing.assert_allclose(decouple.correlation_eigs_oracle(x), [1.5, 0.5], atol=1e-12)

    def test_descending(self):
        x = random_vector(6, seed=11)
        vals = decouple.correlation_eigs_oracle(x)
        assert np.all(np.diff(vals) <= 0.0)


class TestAdmissibleRegion:
    def test_all_ones(self):
        region = decouple.admissible_region(np.ones(4))
        assert len(region.intervals) == 1
        iv = region.intervals[0]
        assert iv.lo == 1.0 and math.isinf(iv.hi) and iv.admissible

    def test_equicorrelated_shape(self):
        region = decouple.admissible_region([1.5, 0.5])
        tags = [(iv.lo, iv.hi, iv.admissible) for iv in region.intervals]
        assert tags == [(1.0, 1.5, False), (1.5, math.inf, True)]

    def test_three_breakpoints_parity(self):
        region = decouple.admissible_region([1.8, 1.1, 0.1])
        tags = [(round(iv.lo, 12), iv.admissible) for iv in region.intervals]
        assert tags == [(1.0, True), (1.1, False), (1.8, True)]
        assert region.contains(1.05)
        assert not region.contains(1.5)
        assert region.contains(2.5)

    def test_breakpoints_excluded_with_margin(self):
        region = decouple.admissible_region([1.5, 0.5])
        assert not region.contains(1.5)
        assert not region.contains(1.5 + 1e-10)
        assert region.contains(1.5 + 1e-6)

    def test_topmost_always_admissible(self):
        region = decouple.admissible_region([5.0, 2.5, 1.0 / 3.0])
        assert region.intervals[-1].admissible
        assert math.isinf(region.intervals[-1].hi)

    def test_multiplicity_parity(self):
        # double breakpoint at 1.4: interval below it keeps even parity
        region = decouple.admissible_region([1.4, 1.4, 0.2])
        tags = [(round(iv.lo, 12), iv.admissible) for iv in region.intervals]
        assert tags == [(1.0, True), (1.4, True)]

    def test_one_not_a_breakpoint(self):
        region = decouple.admissible_region([1.0, 1.0])
        assert region.contains(1.000001)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            decouple.admissible_region([1.0, 0.0])


class TestQNew:
    def test_scalar(self):
        x = decouple.from_covariance([[1.0]])
        assert decouple.q_new(x, 2.0) == pytest.approx(2.0 ** 0.25, rel=1e-14)

    def test_identity_n(self):
        x = decouple.from_covariance(np.eye(3))
        assert decouple.q_new(x, 2.0) == pytest.approx(2.0 ** (3.0 / 4.0), rel=1e-13)

    def test_equicorrelated(self):
        x = decouple.from_covariance(EQUI)
        expected = 0.75 ** (-1.0 / 6.0) * (5.0 / 12.0) ** (-1.0 / 3.0)
        assert decouple.q_new(x, 3.0) == pytest.approx(expected, rel=1e-13)

    def test_excluded_exponent(self):
        x = decouple.from_covariance(EQUI)
        with pytest.raises(NotInRegion):
            decouple.q_new(x, 1.2)

    def test_breakpoint_margin(self):
        x = decouple.from_covariance(EQUI)
        with pytest.raises(NotInRegion):
            decouple.q_new(x, 1.5 + 1e-11)


class TestDetIdentity:
    def test_identity_covariance(self):
        x = decouple.from_covariance(np.eye(3))
        for p in (1.1, 2.0, 7.0):
            assert decouple.det_identity_residual(x, p) <= 1e-12

    def test_equicorrelated_hand(self):
        # det(p I - C) = (p - 1 - rho)(p - 1 + rho) = (p-1)^2 - rho^2 = 3.75 at p = 3
        x = decouple.from_covariance(EQUI)
        lhs = matcore.lu_det(decouple.shifted_matrix(x, 3.0))
        assert lhs == pytest.approx(3.75, rel=1e-14)
        assert decouple.det_identity_residual(x, 3.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_random_grid(self, seed):
        x = random_vector(8, seed=700 + seed)
        for p in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
            assert decouple.det_identity_residual(x, p) <= 1e-8

    def test_holds_inside_excluded_intervals(self):
        x = decouple.from_covariance(EQUI)
        assert decouple.det_identity_residual(x, 1.2) <= 1e-10
        # and the two sides are genuinely negative there
        assert matcore.lu_det(decouple.shifted_matrix(x, 1.2)) < 0.0


def b_matrix(x, p):
    """The shifted precision matrix B = C^{-1} - (1/p) diag(1/gamma), from the
    paper's R: R^T C R = I gives C^{-1} = R R^T, and R^T diag(gamma) R =
    diag(xi) gives diag(1/gamma) = R diag(1/xi) R^T, so
    B = R diag(1 - 1/(p xi)) R^T."""
    sd = decouple.simultaneous_diagonalization(x)
    return (sd.r * (1.0 - 1.0 / (p * sd.xi))) @ sd.r.T


class TestBMatrix:
    def test_identity(self):
        x = decouple.from_covariance(np.eye(2))
        np.testing.assert_allclose(b_matrix(x, 2.0), np.eye(2) / 2.0, atol=1e-14)

    def test_scalar(self):
        x = decouple.from_covariance([[4.0]])
        np.testing.assert_allclose(b_matrix(x, 2.0), [[1.0 / 8.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_det_consistency(self, seed):
        # det(B) * p^n * det(C) * prod(gamma) == det(p diag(gamma) - C)
        x = random_vector(5, seed=800 + seed)
        for p in (1.3, 2.0, 4.0):
            b = b_matrix(x, p)
            lhs = matcore.lu_det(b) * p ** x.n * matcore.lu_det(x.c) * float(np.prod(x.gamma))
            rhs = matcore.lu_det(decouple.shifted_matrix(x, p))
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestRegionSoundness:
    @pytest.mark.parametrize("seed", range(6))
    def test_sign_matches_parity(self, seed):
        x = random_vector(int(np.random.default_rng(seed).integers(2, 7)), seed=600 + seed)
        region = decouple.region_of(x)
        xi = decouple.simultaneous_diagonalization(x).xi
        for iv in region.intervals:
            p = iv.lo + 0.5 if math.isinf(iv.hi) else 0.5 * (iv.lo + iv.hi)
            value = p ** x.n * float(np.prod(x.gamma)) * float(
                np.prod(1.0 - 1.0 / (p * xi))
            )
            if iv.admissible:
                assert value > 0.0
            else:
                assert value < 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_top_interval_corollary(self, seed):
        x = random_vector(5, seed=500 + seed)
        xi = decouple.simultaneous_diagonalization(x).xi
        region = decouple.region_of(x)
        top = float(np.max(1.0 / xi))
        for p in (top * (1.0 + 1e-6) + 1e-6, top + 0.5, top + 5.0):
            if p > 1.0:
                assert region.contains(p)


class TestInvariances:
    @pytest.mark.parametrize("scale", [0.25, 3.0, 40.0])
    def test_scale_equivariance(self, scale):
        x = random_vector(5, seed=41)
        y = decouple.from_covariance(scale * x.c)
        xi_x = decouple.simultaneous_diagonalization(x).xi
        xi_y = decouple.simultaneous_diagonalization(y).xi
        np.testing.assert_allclose(xi_y, xi_x, rtol=1e-10)
        bx = decouple.region_of(x).breakpoints
        by = decouple.region_of(y).breakpoints
        np.testing.assert_allclose(by, bx, rtol=1e-10)

    def test_permutation_invariance(self):
        x = random_vector(5, seed=43)
        perm = [3, 0, 4, 1, 2]
        pm = np.eye(5)[:, perm]
        y = decouple.from_covariance(pm.T @ x.c @ pm)
        xi_x = np.sort(decouple.simultaneous_diagonalization(x).xi)
        xi_y = np.sort(decouple.simultaneous_diagonalization(y).xi)
        np.testing.assert_allclose(xi_y, xi_x, rtol=1e-9)
        p = float(np.max(decouple.region_of(x).breakpoints)) + 1.0
        assert decouple.q_new(y, p) == pytest.approx(decouple.q_new(x, p), rel=1e-9)
        bb = 1.5
        p_old = bb * decouple.decoupling_coefficient(x) + 0.5
        assert decouple.q_old(y, p_old, bb) == pytest.approx(
            decouple.q_old(x, p_old, bb), rel=1e-9
        )


class TestLogSpaceConstants:
    def test_equicorrelated_200_is_finite(self):
        # det C = 0.01^199 * 198.01 underflows in linear space, where q_new
        # used to divide by zero; the constants are now sums of logs of the
        # correlation eigenvalues.
        x = decouple.from_covariance(covgen.generate(covgen.Equicorrelated(200, 0.99)))
        p, bb = 1e3, 2.0
        lam = np.linalg.eigvalsh(x.c / np.outer(x.sigma, x.sigma))
        log_det_k = float(np.sum(np.log(lam)))
        log_new = -log_det_k / (2 * p) - 0.5 * (1 - 1 / p) * float(
            np.sum(np.log(np.abs(1 - lam / p)))
        )
        log_old = -log_det_k / (2 * p) - (x.n / 2) * (1 - 1 / p) * math.log1p(-1 / bb)
        qn = decouple.q_new(x, p)
        qo = decouple.q_old(x, p, bb)
        assert math.isfinite(qn) and math.isfinite(qo)
        assert qn == pytest.approx(math.exp(log_new), rel=1e-12)
        assert qo == pytest.approx(math.exp(log_old), rel=1e-12)


class TestAnalyze:
    def test_identity_both_present(self):
        x = decouple.from_covariance(np.eye(2))
        rep = decouple.analyze(x, 3.0, beta=2.0)
        assert rep.in_region and rep.q_new is not None and rep.q_old is not None
        assert rep.p_of_X == 1.0 and rep.beta_bar == 2.0
        assert rep.b_positive_definite
        assert rep.identity_residual <= 1e-12

    def test_low_p_excluded(self):
        x = decouple.from_covariance(EQUI)
        rep = decouple.analyze(x, 1.2, beta=2.0)
        assert not rep.in_region and rep.q_new is None
        assert rep.q_old is None  # 1.2 < 2 * 1.5
        assert not rep.b_positive_definite

    def test_degenerate_beta_flag_paths(self):
        x = decouple.from_covariance(EQUI)
        plain = decouple.analyze(x, 3.0, beta=1.0)
        assert plain.beta_bar is None and plain.q_old is None
        optimal = decouple.analyze(x, 3.0, beta=None)
        assert optimal.beta_bar == 2.0 and optimal.q_old is not None

    def test_q_old_present_iff_condition(self):
        x = decouple.from_covariance(EQUI)
        rep = decouple.analyze(x, 3.0, beta=2.0)
        assert rep.q_old is not None  # equality case p = beta_bar * p(X)
        rep2 = decouple.analyze(x, 2.9, beta=2.0)
        assert rep2.q_old is None
