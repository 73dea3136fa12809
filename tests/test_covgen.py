"""Covariance-family generators: exact definitions, validation, determinism."""

import numpy as np
import pytest

from gaussdec import covgen, decouple, matcore
from gaussdec.errors import InvalidParameter, as_int


class TestDefinitions:
    def test_equicorrelated(self):
        m = covgen.generate(covgen.Equicorrelated(2, 0.5))
        np.testing.assert_array_equal(m, [[1.0, 0.5], [0.5, 1.0]])

    def test_ar1(self):
        m = covgen.generate(covgen.AR1(3, 0.5))
        np.testing.assert_array_equal(
            m, [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        )

    def test_ar1_negative_rho(self):
        m = covgen.generate(covgen.AR1(3, -0.5))
        assert m[0, 1] == -0.5 and m[0, 2] == 0.25

    def test_diagonal(self):
        np.testing.assert_array_equal(
            covgen.generate(covgen.Diagonal((1.0, 4.0))), [[1.0, 0.0], [0.0, 4.0]]
        )

    def test_toeplitz(self):
        m = covgen.generate(covgen.Toeplitz((1.0, 0.3, 0.1)))
        assert m[0, 2] == 0.1 and m[2, 0] == 0.1 and m[1, 2] == 0.3

    def test_scaled_diagonal_matches_variances(self):
        fam = covgen.Scaled(covgen.Equicorrelated(3, 0.4), (1.0, 4.0, 9.0))
        m = covgen.generate(fam)
        np.testing.assert_allclose(np.diag(m), [1.0, 4.0, 9.0], atol=1e-14)
        assert abs(m[0, 1] - 0.4 * 2.0) <= 1e-14


class TestValidation:
    def test_equicorrelated_below_spd_threshold(self):
        # SPD needs rho > -1/(n-1) = -0.5 at n = 3
        with pytest.raises(InvalidParameter):
            covgen.generate(covgen.Equicorrelated(3, -0.6))

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_ar1_rho_range(self, rho):
        with pytest.raises(InvalidParameter):
            covgen.generate(covgen.AR1(3, rho))

    def test_toeplitz_not_spd(self):
        with pytest.raises(InvalidParameter):
            covgen.generate(covgen.Toeplitz((1.0, 1.0, 1.0)))

    def test_diagonal_nonpositive(self):
        with pytest.raises(InvalidParameter):
            covgen.generate(covgen.Diagonal((1.0, 0.0)))

    def test_randomspd_bad_cond(self):
        with pytest.raises(InvalidParameter):
            covgen.generate(covgen.RandomSPD(4, seed=1, cond=1.0))

    def test_scaled_length_mismatch(self):
        with pytest.raises(InvalidParameter):
            covgen.generate(covgen.Scaled(covgen.AR1(3, 0.2), (1.0, 2.0)))


class TestRandomSPD:
    @pytest.mark.parametrize("n,target", [(4, 10.0), (8, 100.0), (16, 50.0), (32, 1000.0)])
    def test_condition_number(self, n, target):
        m = covgen.generate(covgen.RandomSPD(n, seed=n, cond=target))
        eigs = matcore.sym_eigen(m).eigenvalues
        cond = eigs[-1] / eigs[0]
        assert abs(cond - target) <= 0.1 * target

    def test_deterministic(self):
        a = covgen.generate(covgen.RandomSPD(6, seed=42, cond=30.0))
        b = covgen.generate(covgen.RandomSPD(6, seed=42, cond=30.0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n,seed,cond", [(2, 0, 5.0), (7, 3, 30.0), (24, 11, 1e3), (64, 5, 200.0)])
    def test_values_only_spectrum_gives_the_same_bytes(self, n, seed, cond):
        # the matrix built from the production solver's spectrum
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        base = g.T @ g
        base += covgen._RANDOM_SPD_EPS * matcore.max_abs(base) * np.eye(n)
        base = (base + base.T) / 2.0
        eigs = matcore.sym_eigvals(base)
        lmin, lmax = float(eigs[0]), float(eigs[-1])
        m = base + (lmax - cond * lmin) / (cond - 1.0) * np.eye(n)
        expected = (m + m.T) / 2.0
        got = covgen.generate(covgen.RandomSPD(n, seed, cond))
        assert got.tobytes() == expected.tobytes()

    def test_different_seeds_differ(self):
        a = covgen.generate(covgen.RandomSPD(6, seed=1))
        b = covgen.generate(covgen.RandomSPD(6, seed=2))
        assert not np.array_equal(a, b)


ALL_FAMILIES = [
    covgen.AR1(4, 0.7),
    covgen.AR1(5, -0.4),
    covgen.Equicorrelated(4, 0.3),
    covgen.Equicorrelated(3, -0.45),
    covgen.Toeplitz((2.0, 0.5, 0.25)),
    covgen.RandomSPD(6, seed=3, cond=40.0),
    covgen.Diagonal((0.5, 2.0, 7.0)),
    covgen.Scaled(covgen.AR1(4, 0.6), (1.0, 2.0, 3.0, 4.0)),
]


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_every_family_passes_validation(fam):
    x = decouple.from_covariance(covgen.generate(fam))
    assert x.n == covgen.generate(fam).shape[0]


FAMILY_DOCS = {
    "ar1": ({"kind": "ar1", "n": 4, "rho": 0.7}, covgen.AR1(4, 0.7)),
    "equicorrelated": (
        {"kind": "Equicorrelated", "n": 3, "rho": -0.45},
        covgen.Equicorrelated(3, -0.45),
    ),
    "toeplitz": (
        {"kind": "toeplitz", "first_row": [2, 0.5, 0.25]},
        covgen.Toeplitz((2.0, 0.5, 0.25)),
    ),
    "randomspd": (
        {"kind": "randomspd", "n": 6, "seed": 3, "cond": 40},
        covgen.RandomSPD(6, seed=3, cond=40.0),
    ),
    "randomspd-default-cond": (
        {"kind": "randomspd", "n": 6, "seed": 3},
        covgen.RandomSPD(6, seed=3, cond=10.0),
    ),
    "diagonal": ({"kind": "diagonal", "gamma": [0.5, 2, 7.0]}, covgen.Diagonal((0.5, 2.0, 7.0))),
    "scaled-nested": (
        {
            "kind": "scaled",
            "base": {
                "kind": "scaled",
                "base": {"kind": "ar1", "n": 2, "rho": 0.6},
                "variances": [1.0, 2.0],
            },
            "variances": [3.0, 4.0],
        },
        covgen.Scaled(covgen.Scaled(covgen.AR1(2, 0.6), (1.0, 2.0)), (3.0, 4.0)),
    ),
}


@pytest.mark.parametrize("kind", FAMILY_DOCS)
def test_family_from_json(kind):
    doc, fam = FAMILY_DOCS[kind]
    assert covgen.family_from_json(doc) == fam


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "ar1", "n": 3.7, "rho": 0.5},
        {"kind": "equicorrelated", "n": True, "rho": 0.5},
        {"kind": "randomspd", "n": 4, "seed": 2.9},
        {"kind": "randomspd", "n": 4, "seed": float("inf")},
    ],
)
def test_non_integral_fields_rejected(doc):
    # int() would truncate 3.7 and 2.9, read True as 1, and overflow on inf
    with pytest.raises(InvalidParameter):
        covgen.family_from_json(doc)


def test_integral_values_of_integer_fields_accepted():
    doc = {"kind": "randomspd", "n": 4.0, "seed": "2", "cond": 20.0}
    assert covgen.family_from_json(doc) == covgen.RandomSPD(4, seed=2, cond=20.0)
    big = {"kind": "randomspd", "n": 4, "seed": 2**70}
    assert covgen.family_from_json(big).seed == 2**70


@pytest.mark.parametrize("value", ["abc", "2.5", None, [1], {}])
def test_as_int_rejects_what_int_refuses(value):
    # int() raises a bare ValueError or TypeError on these
    with pytest.raises(InvalidParameter, match="must be an integer"):
        as_int(value, "n")


@pytest.mark.parametrize(
    "value", [np.float32(20000.5), np.float16(2.5), np.float64(3.7), np.float32("inf")]
)
def test_as_int_rejects_non_integral_numpy_floats(value):
    # int() would truncate these (or overflow on inf) instead of refusing them
    with pytest.raises(InvalidParameter, match="must be an integer"):
        as_int(value, "samples")


@pytest.mark.parametrize("value", [np.float32(20000.0), np.float16(4.0), np.int64(7)])
def test_as_int_accepts_integral_numpy_numbers(value):
    assert as_int(value, "samples") == int(value)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParameter):
        covgen.family_from_json({"kind": "wishart", "n": 3})
