"""Unit tests for the linear-algebra substrate.

Cross-validation strategy: the two eigensolvers share no code, so their
agreement on random inputs, together with trace/determinant identities and
residual checks, pins both down without any external reference.
"""

import numpy as np
import pytest

from gaussdec import covgen, matcore
from gaussdec.errors import InvalidParameter, NonConvergence, NotPositiveDefinite, NotSymmetric

ORTH_TOL = 1e-10
RESID_TOL = 1e-10


def random_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def random_spd(n, rng):
    g = rng.standard_normal((n, n))
    return g.T @ g + 1e-3 * np.eye(n)


def spectrum_invariants(a, spec):
    n = a.shape[0]
    u = spec.eigenvectors
    vals = spec.eigenvalues
    assert np.all(np.diff(vals) >= 0.0), "eigenvalues must be ascending"
    assert np.max(np.abs(u.T @ u - np.eye(n))) <= ORTH_TOL
    scale = max(1.0, matcore.max_abs(a))
    assert np.max(np.abs(a @ u - u * vals)) <= RESID_TOL * scale
    for j in range(n):
        k = int(np.argmax(np.abs(u[:, j])))
        assert u[k, j] >= 0.0, "sign convention: largest-magnitude entry nonnegative"


def _eigvals_cases():
    rng = np.random.default_rng(77)
    yield "n=1", np.array([[2.5]])
    yield "n=2", np.array([[1.0, 0.5], [0.5, 1.0]])
    yield "n=3", random_symmetric(3, rng)
    yield "diagonal", np.diag([3.0, -1.0, 2.0, 2.0, 0.0])
    yield "tridiagonal", tridiagonal([2.0] * 6, [1.0] * 5)
    yield "equicorrelated", covgen.generate(covgen.Equicorrelated(40, 0.5))
    for n, seed in ((5, 1), (17, 2), (40, 3), (64, 4)):
        yield f"randomspd-{n}", covgen.generate(covgen.RandomSPD(n, seed, 1e3))


EIGVALS_CASES = list(_eigvals_cases())


def _tridiag_cases():
    yield from EIGVALS_CASES
    # its zero columns below the first block skip their reflection
    block = np.zeros((7, 7))
    block[:3, :3] = covgen.generate(covgen.Equicorrelated(3, 0.5))
    block[3:, 3:] = covgen.generate(covgen.AR1(4, 0.6))
    yield "block-diagonal", block
    rng = np.random.default_rng(78)
    off = rng.standard_normal(6)
    yield "random-tridiagonal", tridiagonal(rng.standard_normal(7), off)
    # hard cases for the QL: Wilkinson's pairs of close eigenvalues, a zero
    # diagonal, a graded matrix, and blocks glued by tiny off-diagonals
    yield "wilkinson-21+", tridiagonal(np.abs(np.arange(-10.0, 11.0)), np.ones(20))
    yield "wilkinson-21-", tridiagonal(np.arange(10.0, -11.0, -1.0), np.ones(20))
    yield "zero-diagonal-30", tridiagonal(np.zeros(30), np.ones(29))
    k = np.arange(24.0)
    yield "graded-24", tridiagonal(10.0 ** -k, 10.0 ** -(k[:-1] + 0.5))
    w7 = np.abs(np.arange(-3.0, 4.0))
    glue = np.ones(6)
    yield "glued-wilkinson-7+", tridiagonal(
        np.concatenate([w7] * 3), np.concatenate([glue, [1e-8], glue, [1e-8], glue])
    )


TRIDIAG_CASES = list(_tridiag_cases())


class TestSymEigen:
    def test_identity(self):
        spec = matcore.sym_eigen(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
        spectrum_invariants(np.eye(3), spec)

    def test_two_by_two_hand(self):
        # characteristic polynomial of [[1, r], [r, 1]] gives 1 -+ r
        spec = matcore.sym_eigen([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 1.5], atol=1e-14)

    def test_already_diagonal(self):
        a = np.diag([1.0, 4.0, 9.0])
        spec = matcore.sym_eigen(a)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 4.0, 9.0], atol=1e-14)
        # eigenvectors form a signed permutation of the identity
        assert np.max(np.abs(np.abs(spec.eigenvectors) - np.eye(3))) <= 1e-12
        spectrum_invariants(a, spec)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            matcore.sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16])
    def test_invariants_random(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_symmetric(n, rng)
        spectrum_invariants(a, matcore.sym_eigen(a))

    def test_antidiagonal(self):
        spec = matcore.sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize(
        "name,a",
        [c for c in EIGVALS_CASES if c[1].shape[0] <= 40],
        ids=[c[0] for c in EIGVALS_CASES if c[1].shape[0] <= 40],
    )
    def test_invariants_on_eigvals_cases(self, name, a):
        # equicorrelated-40 has one eigenvalue of multiplicity 39
        spectrum_invariants(a, matcore.sym_eigen(a))


class TestSymEigvals:
    @pytest.mark.parametrize("name,a", EIGVALS_CASES, ids=[c[0] for c in EIGVALS_CASES])
    def test_ascending_and_read_only(self, name, a):
        vals = matcore.sym_eigvals(a)
        assert np.all(np.diff(vals) >= 0.0)
        assert not vals.flags.writeable

    @pytest.mark.parametrize("name,a", EIGVALS_CASES, ids=[c[0] for c in EIGVALS_CASES])
    def test_agrees_with_jacobi(self, name, a):
        vals = matcore.sym_eigvals(a)
        oracle = matcore.jacobi_eigen(a)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(vals - oracle)) <= 1e-10 * scale

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            matcore.sym_eigvals([[1.0, 2.0], [0.0, 1.0]])

    def test_eigenvalue_beyond_the_float_range_overflows(self):
        # eigenvalues 0 and 2e308: scaling 2e308 back would give inf, with
        # numpy's overflow warning, which Tier-1 turns into an error
        with pytest.raises(OverflowError, match="exceeds the float range"):
            matcore.sym_eigvals([[1e308, 1e308], [1e308, 1e308]])

    def test_eigenvalues_at_the_float_range_stay_finite(self):
        vals = matcore.sym_eigvals([[1e308, 0.0], [0.0, 1e308]])
        assert vals.tolist() == [1e308, 1e308]
        big = np.nextafter(np.inf, 0.0)
        assert matcore.sym_eigvals([[big]]).tolist() == [big]

    @pytest.mark.parametrize(
        "solver,cap",
        [(matcore.sym_eigvals, "_QL_MAX_ITER"), (matcore.sym_eigen, "_JACOBI_MAX_SWEEPS")],
        ids=["sym_eigvals", "sym_eigen"],
    )
    def test_iteration_cap_raises(self, monkeypatch, solver, cap):
        monkeypatch.setattr(matcore, cap, 0)
        with pytest.raises(NonConvergence):
            solver([[1.0, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("name,a", TRIDIAG_CASES, ids=[c[0] for c in TRIDIAG_CASES])
    def test_matches_numpy_eigvalsh(self, name, a):
        expected = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(matcore.sym_eigvals(a) - expected)) <= 1e-14 * scale

    @pytest.mark.parametrize("s", [1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize(
        "a",
        [np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]]),
         dict(EIGVALS_CASES)["randomspd-17"]],
        ids=["3x3", "randomspd-17"],
    )
    def test_scale_invariant(self, a, s):
        # unscaled, x.x underflows near 1e-160 and overflows near 1e160 in
        # the reduction; every entry of s*a is a normal float
        expected = np.linalg.eigvalsh(a)
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(matcore.sym_eigvals(s * a) / s - expected)) <= 1e-14 * scale


class TestHouseholderTridiag:
    @pytest.mark.parametrize("name,a", TRIDIAG_CASES, ids=[c[0] for c in TRIDIAG_CASES])
    def test_reduces_to_tridiagonal(self, name, a):
        m = matcore.symmetrize(a)
        n = m.shape[0]
        d, e = matcore._householder_tridiag(m)
        assert len(d) == len(e) == n
        assert e[-1] == 0.0
        t = np.diag(d) + np.diag(e[:-1], 1) + np.diag(e[:-1], -1)
        gap = np.max(np.abs(np.linalg.eigvalsh(t) - np.linalg.eigvalsh(m)))
        assert gap <= 1e-13 * matcore.max_abs(m)


class TestJacobiEigen:
    def test_identity(self):
        np.testing.assert_allclose(matcore.jacobi_eigen(np.eye(2)), [1.0, 1.0], atol=1e-14)

    def test_two_by_two_hand(self):
        vals = matcore.jacobi_eigen([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-14)

    def test_matches_sym_eigen_on_spd(self):
        rng = np.random.default_rng(5)
        a = random_spd(5, rng)
        v1 = matcore.sym_eigen(a).eigenvalues
        v2 = matcore.jacobi_eigen(a)
        scale = max(1.0, float(np.max(np.abs(v1))))
        assert np.max(np.abs(v1 - v2)) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [2, 4, 7, 12, 16])
    def test_invariants_random(self, n):
        # the values of sym_eigen, whose basis TestSymEigen checks
        rng = np.random.default_rng(200 + n)
        a = random_symmetric(n, rng)
        vals = matcore.jacobi_eigen(a)
        assert isinstance(vals, np.ndarray) and vals.shape == (n,)
        assert np.all(np.diff(vals) >= 0.0), "eigenvalues must be ascending"
        assert not vals.flags.writeable
        trace = float(np.trace(a))
        assert abs(float(np.sum(vals)) - trace) <= RESID_TOL * max(1.0, abs(trace))
        scale = max(1.0, matcore.max_abs(a))
        assert np.max(np.abs(vals - matcore.sym_eigvals(a))) <= RESID_TOL * scale


class TestEigenIdentities:
    @pytest.mark.parametrize("seed", range(8))
    def test_trace_and_det(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 10))
        a = random_symmetric(n, rng)
        vals = matcore.sym_eigen(a).eigenvalues
        trace = float(np.trace(a))
        assert abs(trace - vals.sum()) <= 1e-10 * max(1.0, abs(trace))
        det = matcore.lu_det(a)
        prod = float(np.prod(vals))
        assert abs(det - prod) <= 1e-8 * max(abs(det), abs(prod))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(matcore.cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        low = matcore.cholesky([[4.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 1.0]], atol=1e-14)

    def test_indefinite_rejected(self):
        # eigenvalues of [[1, 2], [2, 1]] are -1 and 3
        with pytest.raises(NotPositiveDefinite):
            matcore.cholesky([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(400 + seed)
        a = random_spd(int(rng.integers(2, 9)), rng)
        low = matcore.cholesky(a)
        assert np.all(np.diag(low) > 0.0)
        assert np.max(np.abs(low @ low.T - a)) <= 1e-10 * matcore.max_abs(a)

    @pytest.mark.parametrize("seed", range(10))
    def test_succeeds_iff_spd(self, seed):
        # clearly-signed spectra so the pivot test and the eigenvalue test agree
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 8))
        a = random_spd(n, rng)
        vals = matcore.sym_eigen(a).eigenvalues
        assert vals[0] > matcore.PIVOT_TOL * matcore.max_abs(a)
        matcore.cholesky(a)  # must not raise
        indef = a - (vals[0] + 0.1 * (1.0 + vals[-1])) * np.eye(n)
        assert matcore.sym_eigen(indef).eigenvalues[0] < 0.0
        with pytest.raises(NotPositiveDefinite):
            matcore.cholesky(indef)


class TestLuDet:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identity(self, n):
        assert matcore.lu_det(np.eye(n)) == 1.0

    def test_correlated_pair(self):
        assert abs(matcore.lu_det([[1.0, 0.5], [0.5, 1.0]]) - 0.75) <= 1e-15

    def test_diagonal(self):
        assert matcore.lu_det(np.diag([2.0, 3.0, 4.0])) == 24.0

    def test_hand_nonsymmetric(self):
        # cofactor expansion: 1*(50-48) - 2*(40-42) + 3*(32-35) = -3
        a = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]
        assert abs(matcore.lu_det(a) + 3.0) <= 1e-12

    def test_singular(self):
        assert abs(matcore.lu_det([[1.0, 2.0], [2.0, 4.0]])) <= 1e-14

    def test_permutation_sign(self):
        assert abs(matcore.lu_det([[0.0, 1.0], [1.0, 0.0]]) + 1.0) <= 1e-15


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParameter):
            matcore.as_matrix([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameter):
            matcore.as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("a", [[[1.0, 2.0], [3.0]], [[1.0, "x"], [0.0, 1.0]], "x",
                                   [[1.0, {}], [0.0, 1.0]], {}])
    def test_rejects_what_numpy_cannot_read(self, a):
        # numpy raises a bare ValueError (ragged rows, "x") or TypeError (a dict)
        with pytest.raises(InvalidParameter):
            matcore.as_matrix(a)

    def test_reads_numeric_strings_as_float_does(self):
        m = matcore.as_matrix([[" 2", "1e3"], ["-0.5", "+1.25"]])
        np.testing.assert_array_equal(m, [[2.0, 1e3], [-0.5, 1.25]])

    def test_int_beyond_float_range_overflows(self):
        with pytest.raises(OverflowError):
            matcore.as_matrix([[10**400]])

    def test_symmetrize_averages(self):
        a = [[1.0, 1.0 + 1e-13], [1.0, 1.0]]
        m = matcore.symmetrize(a)
        assert m[0, 1] == m[1, 0]

    def test_symmetrize_tolerance_is_relative(self):
        # off-diagonals that differ fourfold are asymmetric at any scale
        with pytest.raises(NotSymmetric):
            matcore.symmetrize([[1e-14, 2e-15], [8e-15, 1e-14]])
        tiny = [[1e-14, 5e-15], [5e-15, 1e-14]]
        np.testing.assert_array_equal(matcore.symmetrize(tiny), tiny)

    def test_symmetrize_near_the_float_range(self):
        # a_ij + a_ji and a_ij - a_ji overflow above about 8.99e307, though
        # every entry is finite; under Tier-1 an overflow warning fails
        big = [[1e308, 5e307], [5e307, 1e308]]
        np.testing.assert_array_equal(matcore.symmetrize(big), big)
        with pytest.raises(NotSymmetric):
            matcore.symmetrize([[1.0, 1e308], [-1e308, 1.0]])

    @pytest.mark.parametrize(
        "a",
        [
            [[1.0, 5e-324], [5e-324, 1.0]],
            [[1.0, 5e-324, -5e-324], [5e-324, 2.0, 0.0], [-5e-324, 0.0, 3.0]],
            [[-0.0, 0.0], [0.0, -0.0]],
            [[0.0, -0.0], [0.0, 1.0]],
            [[1.5e308, -1.5e308], [-1.5e308, 1.5e308]],
        ],
        ids=["subnormal", "signed-subnormals", "negative-zeros", "mixed-zeros", "near-max"],
    )
    def test_symmetrize_exactly_symmetric_input_skips_the_test(self, monkeypatch, a):
        # the fast path measures no gap and keeps the bits of h/2 + (h/2)^T,
        # subnormal halves and signed zeros included
        calls = []
        monkeypatch.setattr(matcore, "max_abs", lambda m: calls.append(m) or 0.0)
        h = np.array(a) * 0.5
        assert matcore.symmetrize(a).tobytes() == (h + h.T).tobytes()
        assert calls == []

    def test_symmetrize_one_ulp_off_takes_the_tolerance_path(self, monkeypatch):
        a = np.array([[1.0, 0.3], [np.nextafter(0.3, 1.0), 1.0]])
        calls = []
        max_abs = matcore.max_abs
        monkeypatch.setattr(matcore, "max_abs", lambda m: calls.append(m) or max_abs(m))
        m = matcore.symmetrize(a)
        assert len(calls) == 2
        h = a * 0.5
        assert m[0, 1] == m[1, 0] == h[0, 1] + h[1, 0]
        assert m.tobytes() == (h + h.T).tobytes()

    def test_symmetrize_beyond_tolerance_message(self):
        with pytest.raises(
            NotSymmetric,
            match=r"^asymmetry 1\.000e\+00 relative to max\|a_ij\| exceeds tolerance 1\.0e-12$",
        ):
            matcore.symmetrize([[1.0, 2.0], [0.0, 1.0]])

