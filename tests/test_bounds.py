"""Dominance profiles, the Ostrowski product bound, the irreducible weak-
dominance certificate, and the classical cornerstone lower bound."""

import math

import numpy as np
import pytest

from gaussdec import bounds, covgen, decouple, matcore
from gaussdec.errors import DegenerateBeta, GaussdecError, NotAdmissibleClassical, NotApplicable

TRIDIAG = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]]


class TestDominanceProfile:
    def test_identity(self):
        prof = bounds.dominance_profile(np.eye(3))
        assert prof.strictly_dominant and prof.strict_rows == frozenset({0, 1, 2})

    def test_strict_pair(self):
        prof = bounds.dominance_profile([[2.0, 1.0], [1.0, 2.0]])
        assert prof.strictly_dominant
        np.testing.assert_array_equal(prof.offdiag_rowsums, [1.0, 1.0])

    def test_no_strict_row(self):
        prof = bounds.dominance_profile([[1.0, 1.0], [1.0, 1.0]])
        assert prof.strict_rows == frozenset()
        assert not prof.strictly_dominant
        assert prof.weakly_dominant

    def test_ties_are_not_strict(self):
        prof = bounds.dominance_profile([[1.0, -1.0], [0.5, 2.0]])
        assert 0 not in prof.strict_rows and 1 in prof.strict_rows


class TestOstrowski:
    def test_diagonal_equality(self):
        a = np.diag([2.0, 3.0])
        assert bounds.ostrowski_lower_bound(a) == 6.0
        assert abs(matcore.lu_det(a)) == 6.0

    def test_strict_pair(self):
        a = [[2.0, 1.0], [1.0, 2.0]]
        assert bounds.ostrowski_lower_bound(a) == 1.0
        assert abs(matcore.lu_det(a)) == 3.0

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            bounds.ostrowski_lower_bound([[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_below_determinant(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n))
        # force strict dominance by inflating the diagonal
        off = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
        a[np.diag_indices(n)] = off + rng.uniform(0.1, 2.0, size=n)
        bound = bounds.ostrowski_lower_bound(a)
        assert bound <= abs(matcore.lu_det(a)) * (1.0 + 1e-12) + 1e-12


class TestCornerstone:
    def test_identity_equality(self):
        x = decouple.from_covariance(np.eye(2))
        bound = bounds.cornerstone_bound(x, 2.0, 2.0)
        actual = matcore.lu_det(decouple.shifted_matrix(x, 2.0))
        assert bound == pytest.approx(1.0, rel=1e-14)
        assert actual == pytest.approx(1.0, rel=1e-14)

    def test_equicorrelated_hand(self):
        x = decouple.from_covariance([[1.0, 0.5], [0.5, 1.0]])
        bound = bounds.cornerstone_bound(x, 2.25, 1.5)  # p = beta_bar * p(X) exactly
        assert bound == pytest.approx(0.5625, rel=1e-14)
        actual = matcore.lu_det(decouple.shifted_matrix(x, 2.25))
        assert actual == pytest.approx(1.3125, rel=1e-13)
        assert bound <= actual

    def test_below_threshold(self):
        x = decouple.from_covariance([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NotAdmissibleClassical):
            bounds.cornerstone_bound(x, 2.0, 1.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_chain_on_random_instances(self, seed):
        # det >= Ostrowski product of the shifted matrix >= cornerstone bound
        x = decouple.from_covariance(
            covgen.generate(covgen.RandomSPD(4, seed=1100 + seed, cond=15.0))
        )
        px = decouple.decoupling_coefficient(x)
        floor = max(decouple.variance_ratio(x), 1.0 + 2e-6)
        for factor in (1.01, 1.5, 3.0):
            p = factor * floor * px
            bb = decouple.optimal_beta_bar(x, p)
            m = decouple.shifted_matrix(x, p)
            det = matcore.lu_det(m)
            middle = bounds.ostrowski_lower_bound(m)
            corner = bounds.cornerstone_bound(x, p, bb)
            tol = 1e-9 * max(1.0, abs(det), abs(middle), abs(corner))
            assert det + tol >= middle
            assert middle + tol >= corner


class TestTaussky:
    def test_tridiagonal_nonsingular(self):
        assert bounds.taussky_test(TRIDIAG) is bounds.TausskyVerdict.NONSINGULAR
        assert matcore.lu_det(TRIDIAG) == pytest.approx(1.0, abs=1e-12)

    def test_no_strict_row(self):
        assert bounds.taussky_test([[1.0, 1.0], [1.0, 1.0]]) is bounds.TausskyVerdict.NOT_APPLICABLE
        assert abs(matcore.lu_det([[1.0, 1.0], [1.0, 1.0]])) <= 1e-14

    def test_reducible(self):
        # no edge from row 2 back to row 1
        assert bounds.taussky_test([[1.0, 1.0], [0.0, 2.0]]) is bounds.TausskyVerdict.NOT_APPLICABLE

    def test_diagonal_is_reducible(self):
        # strictly dominant but the pattern has no edges at all
        assert bounds.taussky_test(np.diag([2.0, 3.0])) is bounds.TausskyVerdict.NOT_APPLICABLE

    def test_scalar(self):
        assert bounds.taussky_test([[1.0]]) is bounds.TausskyVerdict.NONSINGULAR
        assert bounds.taussky_test([[0.0]]) is bounds.TausskyVerdict.NOT_APPLICABLE

    def test_nonsingular_verdict_implies_nonzero_det(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            off = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
            a[np.diag_indices(n)] = off  # weakly dominant everywhere
            a[0, 0] = off[0] + 1.0  # strict in row 0
            if bounds.taussky_test(a) is bounds.TausskyVerdict.NONSINGULAR:
                scale = max(1.0, matcore.max_abs(a))
                assert abs(matcore.lu_det(a)) > n * np.finfo(float).eps * scale**n


def _closure_connected(pattern: np.ndarray) -> bool:
    """Strong connectivity by transitive closure: every entry of
    (I + A)^(n-1) is positive, A the off-diagonal pattern, computed as
    repeated boolean products."""
    n = pattern.shape[0]
    step = (pattern | np.eye(n, dtype=bool)).astype(np.int64)
    reach = np.eye(n, dtype=np.int64)
    for _ in range(n - 1):
        reach = np.minimum(reach @ step, 1)
    return bool(np.all(reach > 0))


def _dominant_with_pattern(pattern: np.ndarray, rng) -> np.ndarray:
    """A strictly dominant matrix whose off-diagonal nonzeros are exactly
    ``pattern``, so the Taussky verdict turns on connectivity alone."""
    n = pattern.shape[0]
    a = np.where(pattern, rng.uniform(0.5, 2.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)), 0.0)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + 1.0)
    return a


class TestTausskyAgainstClosure:
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_random_patterns(self, symmetric):
        rng = np.random.default_rng(4040 + symmetric)
        connected = 0
        for _ in range(400):
            n = int(rng.integers(1, 12))
            pattern = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            if symmetric:
                pattern = np.triu(pattern, 1)
                pattern = pattern | pattern.T
            expected = _closure_connected(pattern)
            connected += expected
            verdict = bounds.taussky_test(_dominant_with_pattern(pattern, rng))
            assert (verdict is bounds.TausskyVerdict.NONSINGULAR) == expected
        assert 40 < connected < 360  # both verdicts are exercised

    def test_single_node(self):
        pattern = np.zeros((1, 1), dtype=bool)
        assert _closure_connected(pattern)
        a = _dominant_with_pattern(pattern, np.random.default_rng(0))
        assert bounds.taussky_test(a) is bounds.TausskyVerdict.NONSINGULAR

    def test_path_graph_of_64_nodes(self):
        forward = np.eye(64, k=1, dtype=bool)
        rng = np.random.default_rng(64)
        for pattern, expected in ((forward | forward.T, True), (forward, False)):
            assert _closure_connected(pattern) is expected
            verdict = bounds.taussky_test(_dominant_with_pattern(pattern, rng))
            assert (verdict is bounds.TausskyVerdict.NONSINGULAR) is expected
        cut = forward | forward.T
        cut[31, 32] = cut[32, 31] = False
        assert not _closure_connected(cut)
        assert bounds.taussky_test(_dominant_with_pattern(cut, rng)) is (
            bounds.TausskyVerdict.NOT_APPLICABLE
        )


class TestClassicalHypothesis:
    # p(X) = 1.5, so beta_bar = 1.5 puts the threshold at 2.25 exactly.
    @pytest.mark.parametrize(
        "bb, p, expected",
        [
            (1.0, 3.0, DegenerateBeta),
            (1.5, math.nextafter(2.25, 0.0), NotAdmissibleClassical),
            (1.5, 2.25, None),
        ],
    )
    def test_q_old_and_cornerstone_agree(self, bb, p, expected):
        x = decouple.from_covariance([[1.0, 0.5], [0.5, 1.0]])
        outcomes = []
        for f in (decouple.q_old, bounds.cornerstone_bound):
            try:
                f(x, p, bb)
                outcomes.append(None)
            except GaussdecError as exc:
                outcomes.append(type(exc))
        assert outcomes == [expected, expected]


class TestConsistencyWithExactValue:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_determinant_dominates_cornerstone(self, seed):
        x = decouple.from_covariance(
            covgen.generate(covgen.RandomSPD(5, seed=1200 + seed, cond=20.0))
        )
        xi = decouple.simultaneous_diagonalization(x).xi
        px = decouple.decoupling_coefficient(x)
        p = 2.0 * max(decouple.variance_ratio(x), 1.0 + 2e-6) * px
        bb = decouple.optimal_beta_bar(x, p)
        exact = p ** x.n * float(np.prod(x.gamma)) * float(np.prod(1.0 - 1.0 / (p * xi)))
        corner = bounds.cornerstone_bound(x, p, bb)
        assert exact + 1e-9 * max(1.0, abs(exact)) >= corner


class TestReport:
    def test_equicorrelated_fields(self):
        x = decouple.from_covariance([[1.0, 0.5], [0.5, 1.0]])
        rep = bounds.report(x, 3.0, beta=1.5)
        assert rep.strictly_dominant
        assert rep.ostrowski_bound == pytest.approx(2.25, rel=1e-14)
        assert rep.cornerstone_bound == pytest.approx(1.0, rel=1e-13)
        assert rep.actual_det == pytest.approx(3.75, rel=1e-14)
        assert rep.taussky_verdict == "NonsingularByTaussky"

    def test_small_p_loses_bounds(self):
        x = decouple.from_covariance([[1.0, 0.5], [0.5, 1.0]])
        rep = bounds.report(x, 1.2, beta=1.5)
        assert not rep.strictly_dominant
        assert rep.ostrowski_bound is None
        assert rep.cornerstone_bound is None

    def test_degenerate_beta_gives_absent_cornerstone(self):
        x = decouple.from_covariance(np.eye(2))
        rep = bounds.report(x, 3.0, beta=1.0)
        assert rep.cornerstone_bound is None
