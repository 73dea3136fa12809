"""CLI contract tests: formats, exit codes, determinism, golden files."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaussdec import cli, covgen, decouple, errors, matcore
from gaussdec import verify as verify_lib

GOLDEN = Path(__file__).parent / "golden"

EQUI_DOC = {"n": 2, "rows": [[1.0, 0.5], [0.5, 1.0]]}
FUNCTIONS = [
    {"kind": "indicator", "a": 0, "b": "inf"},
    {"kind": "indicator", "a": 0, "b": "inf"},
]


@pytest.fixture
def equi_file(tmp_path):
    path = tmp_path / "equi.json"
    path.write_text(json.dumps(EQUI_DOC))
    return str(path)


@pytest.fixture
def functions_file(tmp_path):
    path = tmp_path / "fns.json"
    path.write_text(json.dumps(FUNCTIONS))
    return str(path)


def run(args):
    return cli.main(args)


class TestMatrixInput:
    def test_json_document(self, equi_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["analyze", "--input", equi_file, "--p", "3", "--beta", "2",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["p_of_X"] == 1.5 and doc["in_region"] is True

    def test_csv_document(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0.5\n0.5,1\n")
        out = tmp_path / "rep.json"
        assert run(["analyze", "--input", str(path), "--p", "3", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["p_of_X"] == 1.5

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]}))
        assert run(["analyze", "--input", str(path), "--p", "3"]) == 2

    @pytest.mark.parametrize("n,code", [(2.5, 2), (True, 2), (2.0, 0), (2, 0)])
    def test_integer_dimension(self, tmp_path, n, code, capsys):
        # int() would read 2.5 as 2 and True as 1, matching the rows
        rows = [[1.0]] if n is True else EQUI_DOC["rows"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": n, "rows": rows}))
        assert run(["region", "--input", str(path)]) == code
        capsys.readouterr()

    @pytest.mark.parametrize("name,content", [
        ("ragged.csv", "1,0.5\n0.5\n"),
        ("abc.json", json.dumps({"n": 2, "rows": [[1.0, "abc"], [0.5, 1.0]]})),
        ("dict.json", json.dumps({"n": 2, "rows": [[1.0, {}], [0.5, 1.0]]})),
        ("n.json", json.dumps({"n": "abc", "rows": EQUI_DOC["rows"]})),
    ])
    def test_malformed_entries_are_exit_2_naming_the_path(self, tmp_path, capsys, name,
                                                           content):
        path = tmp_path / name
        path.write_text(content)
        assert run(["region", "--input", str(path)]) == 2
        assert f"{path}: " in capsys.readouterr().err

    def test_numeric_strings_read_as_numbers(self, tmp_path, capsys):
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"n": "2", "rows": [["1", " 0.5"], ["5e-1", "1.0"]]}))
        assert run(["region", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "(1, 1.5) excluded\n(1.5, inf) admissible\n"


class TestExitCodes:
    def test_identity_analyze_ok(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}))
        out = tmp_path / "rep.json"
        assert run(["analyze", "--input", str(path), "--p", "3", "--beta", "2",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["p_of_X"] == 1.0 and doc["in_region"] is True

    def test_rank_one_is_exit_3(self, tmp_path):
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1.0, 1.0], [1.0, 1.0]]}))
        assert run(["analyze", "--input", str(path), "--p", "3"]) == 3

    def test_region_does_not_depend_on_units(self, tmp_path, capsys):
        # Equicorrelated(2, 0.5) with standard deviations 1e-7 and 1: the
        # first pivot, 1e-14, is small only against the other variance
        path = tmp_path / "units.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1e-14, 5e-8], [5e-8, 1.0]]}))
        assert run(["region", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "(1, 1.5) excluded\n(1.5, inf) admissible\n"

    @pytest.mark.parametrize("rows,code,out", [
        # 1e308 * Equicorrelated(2, 0.5): finite entries whose sums overflow
        ([[1e308, 5e307], [5e307, 1e308]], 0, "(1, 1.5) excluded\n(1.5, inf) admissible\n"),
        ([[1.0, 1e308], [-1e308, 1.0]], 2, ""),
    ], ids=["equicorrelated", "asymmetric"])
    def test_entries_near_the_float_range(self, tmp_path, capsys, rows, code, out):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "rows": rows}))
        assert run(["region", "--input", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert ("asymmetry" in captured.err) == (code == 2)

    def test_asymmetric_at_small_scale_is_exit_2(self, tmp_path, capsys):
        # the off-diagonals differ fourfold, far below an absolute 1e-12
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1e-14, 2e-15], [8e-15, 1e-14]]}))
        assert run(["region", "--input", str(path)]) == 2
        assert "asymmetry" in capsys.readouterr().err

    def test_asymmetric_on_the_correlation_scale_is_exit_2(self, tmp_path, capsys):
        # the gap, 6e-15, is small against max|c| = 1 but not against the
        # first two variances, 1e-14
        path = tmp_path / "tiny3.json"
        path.write_text(json.dumps(
            {"n": 3, "rows": [[1e-14, 2e-15, 0.0], [8e-15, 1e-14, 0.0], [0.0, 0.0, 1.0]]}
        ))
        assert run(["region", "--input", str(path)]) == 2
        assert "asymmetry" in capsys.readouterr().err

    def test_variance_ratio_beyond_the_float_range(self, tmp_path, capsys):
        # variances 1e-200 and 1e200: K = I answers the region, while every
        # report that needs the variance ratio (1e400) exits 3, warning-free
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1e-200, 0.0], [0.0, 1e200]]}))
        assert run(["region", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "(1, inf) admissible\n"
        for args in (["analyze", "--p", "3"], ["bounds", "--p", "3"],
                     ["bounds", "--p", "3", "--beta", "2"]):
            assert run([*args, "--input", str(path)]) == 3
            assert "variance ratio" in capsys.readouterr().err

    def test_shifted_matrix_overflow_is_exit_3(self, tmp_path, capsys):
        # p * gamma_i = 1e310 is beyond the float range
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1e10, 0.0], [0.0, 1e10]]}))
        for command in ("analyze", "bounds"):
            assert run([command, "--p", "1e300", "--input", str(path)]) == 3
            assert "overflow" in capsys.readouterr().err

    def test_malformed_json_is_exit_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert run(["analyze", "--input", str(path), "--p", "3"]) == 2

    def test_missing_file_is_exit_2(self):
        assert run(["analyze", "--input", "/nonexistent/m.json", "--p", "3"]) == 2

    def test_unknown_flag_is_exit_2(self, equi_file, capsys):
        assert run(["analyze", "--input", equi_file, "--p", "3", "--bogus"]) == 2
        capsys.readouterr()

    def test_verify_pass_is_exit_0(self, equi_file, functions_file, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--input", equi_file, "--p", "3",
                    "--functions", functions_file, "--samples", "20000",
                    "--seed", "1", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_verify_negative_seed_is_exit_2(self, equi_file, functions_file, capsys):
        assert run(["verify", "--input", equi_file, "--p", "3", "--functions",
                    functions_file, "--samples", "20000", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_verify_nodes_flag_is_gone(self, equi_file, functions_file, tmp_path, capsys):
        # the p-norms are closed forms, so there is no quadrature to size
        args = ["verify", "--input", equi_file, "--p", "3", "--functions", functions_file,
                "--samples", "20000"]
        out = tmp_path / "v.json"
        assert run(args + ["--nodes", "64", "--output", str(out)]) == 2
        assert not out.exists()
        capsys.readouterr()
        assert run(args + ["--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True and doc["samples"] == 20000

    def test_verify_constant_product_has_zero_stderr(self, equi_file, tmp_path):
        # prod f_i(X_i) = 1 on every draw: no spread, so the margin is infinite
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "indicator", "a": "-inf", "b": "inf"}] * 2))
        out = tmp_path / "v.json"
        assert run(["verify", "--input", equi_file, "--p", "3", "--functions", str(fns),
                    "--samples", "20000", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lhs_estimate"] == 1.0 and doc["lhs_stderr"] == 0.0
        assert doc["margin_sigmas"] == "inf" and doc["passed"] is True

    def test_verify_gaussbumps_alone_are_exact(self, equi_file, tmp_path):
        # E exp(-X_1^2 - X_2^2 / 2) = det(I + 2 C diag(1, 1/2))^(-1/2) = 5.5^(-1/2):
        # no draw, no spread, whatever the seed
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "gaussbump", "s": 1}, {"kind": "gaussbump", "s": 2}]))
        out = tmp_path / "v.json"
        assert run(["verify", "--input", equi_file, "--p", "3", "--functions", str(fns),
                    "--seed", "5", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lhs_estimate"] == pytest.approx(5.5**-0.5, rel=1e-15)
        assert doc["lhs_stderr"] == 0.0 and doc["margin_sigmas"] == "inf"
        assert doc["passed"] is True and doc["samples"] == 1_000_000

    @pytest.mark.parametrize("constant", ["new", "old"])
    @pytest.mark.parametrize("beta", ["0.5", "nan"])
    def test_verify_invalid_beta_is_exit_2(self, equi_file, functions_file, tmp_path,
                                           capsys, constant, beta):
        # rejected for either constant, as analyze --optimal-beta rejects it
        out = tmp_path / "v.json"
        assert run(["verify", "--input", equi_file, "--p", "3", "--functions",
                    functions_file, "--samples", "20000", "--constant", constant,
                    "--beta", beta, "--output", str(out)]) == 2
        assert "beta must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_not_in_region_is_exit_5(self, equi_file, functions_file):
        assert run(["verify", "--input", equi_file, "--p", "1.2",
                    "--functions", functions_file, "--samples", "20000"]) == 5

    def test_verify_classical_below_threshold_is_exit_5(self, equi_file, functions_file):
        assert run(["verify", "--input", equi_file, "--p", "1.4",
                    "--functions", functions_file, "--samples", "20000",
                    "--constant", "old"]) == 5

    def test_verify_failed_inequality_is_exit_4(self, equi_file, functions_file,
                                                monkeypatch, tmp_path):
        # a genuine >3-sigma failure cannot be produced from valid inputs, so
        # force one to pin down the exit-code mapping
        failing = verify_lib.VerificationResult(
            lhs_estimate=1.0, lhs_stderr=0.001, rhs_bound=0.5,
            margin_sigmas=-500.0, samples=20000, seed=0, passed=False,
        )
        monkeypatch.setattr(verify_lib, "check_inequality", lambda *a, **k: failing)
        out = tmp_path / "v.json"
        assert run(["verify", "--input", equi_file, "--p", "3",
                    "--functions", functions_file, "--samples", "20000",
                    "--output", str(out)]) == 4
        assert json.loads(out.read_text())["passed"] is False

    def test_gen_invalid_family_is_exit_2(self):
        assert run(["gen", "--family", '{"kind":"equicorrelated","n":3,"rho":-0.6}']) == 2

    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_family_too_large_to_allocate_is_exit_2(self, command, tmp_path, capsys):
        # the n x n matrix at n = 1e8 is 71 PiB, more than a process can
        # address on 64-bit hardware: numpy's MemoryError is one error line,
        # not a traceback
        family = {"kind": "equicorrelated", "n": 100_000_000, "rho": 0.5}
        if command == "gen":
            args = ["gen", "--family", json.dumps(family)]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"family": dict(family, rho="0.5:0.6:0.1"), "p_grid": "2:3:1"}))
            args = ["sweep", "--spec", str(spec)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_gen_nested_scaled_overflow_is_exit_2(self, capsys):
        # 1e100 * (1e200 * 0.5) * 1e100 leaves the float range: invalid
        # parameters, with no overflow warning (the suite turns warnings
        # into errors)
        inner = {"kind": "scaled", "base": {"kind": "ar1", "n": 2, "rho": 0.5},
                 "variances": [1e200, 1e200]}
        family = {"kind": "scaled", "base": inner, "variances": [1e200, 1e200]}
        assert run(["gen", "--family", json.dumps(family)]) == 2
        assert capsys.readouterr().err == "error: scaled covariance leaves the float range\n"

    def test_gen_malformed_inline_family_is_exit_2_naming_the_flag(self, capsys):
        assert run(["gen", "--family", "{bad"]) == 2
        assert "--family: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "-5", "1"])
    def test_bounds_exponent_at_most_one_is_exit_2(self, equi_file, p, capsys):
        assert run(["bounds", "--input", equi_file, "--p", p]) == 2
        assert "exceed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["new", "old"])
    @pytest.mark.parametrize("p", ["1", "0.5", "nan"])
    def test_verify_exponent_not_above_one_is_exit_2(self, equi_file, functions_file,
                                                     constant, p, capsys):
        # invalid input for both constants, not a p outside the region (exit 5)
        assert run(["verify", "--input", equi_file, "--p", p, "--functions", functions_file,
                    "--samples", "20000", "--constant", constant]) == 2
        assert "exceed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n,code", [("3.7", 2), ("true", 2), ("3.0", 0), ("3", 0)])
    def test_gen_integer_field(self, n, code, capsys):
        # a non-integral n is rejected, not truncated to AR1(n=3)
        assert run(["gen", "--family", f'{{"kind":"ar1","n":{n},"rho":0.5}}']) == code
        out = capsys.readouterr().out
        if code == 0:
            assert json.loads(out)["n"] == 3

    def test_verify_non_integral_power_is_exit_2(self, equi_file, tmp_path, capsys):
        path = tmp_path / "fns.json"
        path.write_text(json.dumps([{"kind": "polygauss", "k": 2.7, "s": 1.0}] * 2))
        assert run(["verify", "--input", equi_file, "--p", "3",
                    "--functions", str(path), "--samples", "20000"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_numerically_unusable_is_exit_3(self, tmp_path, capsys):
        # the constants are finite here, but det_identity_residual forms
        # p ** n = 1e492 in linear space and overflows; the log-space
        # residual is open.
        path = tmp_path / "equi.json"
        c = covgen.generate(covgen.Equicorrelated(164, 0.99))
        path.write_text(json.dumps(cli.matrix_to_document(c)))
        assert run(["analyze", "--input", str(path), "--p", "1e3"]) == 3
        assert "numerically unusable" in capsys.readouterr().err

    def test_sweep_degenerate_grid_is_exit_2(self, tmp_path, capsys):
        family = {"kind": "equicorrelated", "n": 2, "rho": "0.1:0.9:0.2"}
        p_grid = "1.5:3.0:0.5"
        specs = [
            {"family": {**family, "rho": "0.9:0.1:0.2"}, "p_grid": p_grid},
            {"p_grid": p_grid},
            {"family": family},
            {"family": "equicorrelated", "p_grid": p_grid},
            {"family": {**family, "rho": 0.5}, "p_grid": p_grid},
            {"family": {**family, "n": "2:4:1"}, "p_grid": p_grid},
            {"family": family, "p_grid": "1.5:3.0"},
            {"family": family, "p_grid": "a:b:c"},
            # (stop - start) / step overflows to an infinite point count
            {"family": family, "p_grid": "1.1:1e308:1e-308"},
            # about 5e12 rows, past MAX_SWEEP_ROWS: refused before any
            # grid point is built
            {"family": family, "p_grid": "1.1:1e6:1e-6"},
        ]
        spec = tmp_path / "spec.json"
        out = tmp_path / "sweep.csv"
        for doc in specs:
            spec.write_text(json.dumps(doc))
            assert run(["sweep", "--spec", str(spec), "--output", str(out)]) == 2, doc
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()

    @pytest.mark.parametrize("beta", ["abc", [1], {}])
    def test_sweep_non_numeric_beta_is_exit_2(self, tmp_path, capsys, beta):
        # float() raises TypeError on a list, which cli.main does not catch
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"family": {"kind": "equicorrelated", "n": 2, "rho": "0.1:0.3:0.1"},
             "p_grid": "1.5:3.0:0.5", "beta": beta}))
        assert run(["sweep", "--spec", str(spec)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_unwritable_output_is_exit_2(self, equi_file, tmp_path, capsys):
        assert run(["region", "--input", equi_file, "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_no_command_is_exit_2(self, capsys):
        assert run([]) == 2
        assert capsys.readouterr().err.startswith("usage: gaussdec")

    # README's exit code of every error class that can reach the command line;
    # bounds.report turns NotApplicable into an absent field
    EXIT_BY_ERROR = {
        errors.InvalidParameter: 2,
        errors.NotSymmetric: 2,
        errors.NotPositiveDefinite: 3,
        errors.NonPositiveVariance: 3,
        errors.NonConvergence: 3,
        errors.NotAdmissibleClassical: 5,
        errors.DegenerateBeta: 5,
        errors.NotInRegion: 5,
    }

    def test_exit_table_names_every_error_class(self):
        found = set()
        todo = [errors.GaussdecError]
        while todo:
            subclasses = todo.pop().__subclasses__()
            found.update(subclasses)
            todo.extend(subclasses)
        assert found == set(self.EXIT_BY_ERROR) | {errors.NotApplicable}

    @pytest.mark.parametrize("error", list(EXIT_BY_ERROR), ids=lambda e: e.__name__)
    def test_error_class_exit_code(self, equi_file, monkeypatch, capsys, error):
        def raise_it(*args, **kwargs):
            raise error("forced")

        monkeypatch.setattr(decouple, "analyze", raise_it)
        assert run(["analyze", "--input", equi_file, "--p", "3"]) == self.EXIT_BY_ERROR[error]
        assert capsys.readouterr() == ("", "error: forced\n")


@pytest.fixture(scope="module")
def equi164_file(tmp_path_factory):
    # Equicorrelated(164, 0.99): determinants of p*diag(gamma) - C leave
    # the float range at moderate p.
    path = tmp_path_factory.mktemp("equi164") / "equi.json"
    c = covgen.generate(covgen.Equicorrelated(164, 0.99))
    path.write_text(json.dumps(cli.matrix_to_document(c)))
    return str(path)


class TestNonFiniteResults:
    def test_overflow_is_exit_3_without_a_warning(self, equi164_file, tmp_path, capsys):
        # the identity residual's closed form leaves the float range: p ** n
        # at n = 164, and prod(gamma) at variances of 1.2e100
        big = tmp_path / "big.json"
        big.write_text(json.dumps(cli.matrix_to_document((np.eye(6) + 0.2) * 1e100)))
        for path, p in ((equi164_file, "1e3"), (str(big), "3")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["analyze", "--input", path, "--p", p]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "numerically unusable" in captured.err

    @pytest.mark.parametrize("p", ["200", "1e3"])
    def test_infinite_determinant_is_exit_3_with_empty_stdout(self, equi164_file, capsys, p):
        assert run(["bounds", "--input", equi164_file, "--p", p]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerically unusable" in captured.err

    def test_polygauss_far_out_is_finite(self, tmp_path, capsys):
        # at sigma 1e3, |x|^100 overflows for |x| > 1200 where exp(-x^2) is
        # 0; evaluated as one product, inf * 0 made the estimate NaN
        cov = tmp_path / "diag.json"
        cov.write_text(json.dumps(cli.matrix_to_document(np.diag([1e6, 1.0]))))
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "polygauss", "k": 100, "s": 1},
                                   {"kind": "gaussbump", "s": 1}]))
        assert run(["verify", "--input", str(cov), "--p", "2", "--functions", str(fns),
                    "--samples", "100000", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert math.isfinite(doc["lhs_estimate"]) and doc["passed"] is True

    def test_gaussbump_near_the_float_limit_is_exact(self, tmp_path, capsys):
        # C + s/2 is 2.4e308, beyond the float range; the bump is integrated
        # at a quarter scale, with no overflow warning, to (1 + 2 C/s)^(-1/2)
        cov = tmp_path / "big.json"
        cov.write_text(json.dumps({"n": 1, "rows": [[1.5e308]]}))
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "gaussbump", "s": 1.79e308}]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--input", str(cov), "--p", "1.1",
                        "--functions", str(fns)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lhs_estimate"] == pytest.approx((1.0 + 2.0 * 1.5 / 1.79) ** -0.5, rel=1e-14)
        assert doc["lhs_stderr"] == 0.0 and doc["passed"] is True

    def test_gaussbump_norm_where_p_sigma2_overflows(self, tmp_path, capsys):
        # p sigma^2 = 3e308 leaves the float range, the marginal norm
        # (1 + 2 p sigma^2 / s)^(-1/(2p)) = 7^(-1/4) does not
        cov = tmp_path / "big.json"
        cov.write_text(json.dumps({"n": 1, "rows": [[1.5e308]]}))
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "gaussbump", "s": 1e308}]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--input", str(cov), "--p", "2",
                        "--functions", str(fns)]) == 0
        doc = json.loads(capsys.readouterr().out)
        q = decouple.q_new(decouple.from_covariance([[1.5e308]]), 2.0)
        assert doc["rhs_bound"] == pytest.approx(q * 7.0**-0.25, rel=1e-14)
        assert doc["lhs_estimate"] == pytest.approx(0.5, rel=1e-14) and doc["passed"] is True

    def test_polygauss_where_k_s_overflows(self, tmp_path, capsys):
        # k s = 2e308 and x*x overflow in the sampler; E X^2 exp(-X^2 / s)
        # is sigma^2 (1 + 2 sigma^2 / s)^(-3/2) = sigma^2 / 8 = 1.875e307
        cov = tmp_path / "big.json"
        cov.write_text(json.dumps({"n": 1, "rows": [[1.5e308]]}))
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "polygauss", "k": 2, "s": 1e308}]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--input", str(cov), "--p", "2",
                        "--functions", str(fns)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["lhs_estimate"] - 1.875e307) < 4.0 * doc["lhs_stderr"]
        assert doc["passed"] is True

    def test_classical_threshold_where_row_sums_overflow(self, tmp_path, capsys):
        # each row of 1e308 * Equicorrelated(3, 0.5) sums to 2e308, beyond
        # the float range; p(X) is 2, as unscaled, so p = 3 clears the
        # classical threshold, and the orthant probability is 1/4
        cov = tmp_path / "big.json"
        c = 1e308 * covgen.generate(covgen.Equicorrelated(3, 0.5))
        cov.write_text(json.dumps(cli.matrix_to_document(c)))
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "indicator", "a": 0, "b": "inf"}] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--input", str(cov), "--p", "3", "--constant", "old",
                        "--functions", str(fns), "--samples", "100000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert abs(doc["lhs_estimate"] - 0.25) < 4.0 * doc["lhs_stderr"]
        assert doc["passed"] is True

    def test_nothing_written_to_the_output_file(self, equi164_file, tmp_path):
        out = tmp_path / "bounds.json"
        assert run(["bounds", "--input", equi164_file, "--p", "200",
                    "--output", str(out)]) == 3
        assert not out.exists()


class TestJsonFileArguments:
    @pytest.mark.parametrize("content", [None, "{not json"])
    @pytest.mark.parametrize("command", ["verify", "sweep", "gen"])
    def test_bad_file_is_exit_2_naming_it(self, equi_file, tmp_path, capsys, command, content):
        path = tmp_path / "arg.json"
        if content is not None:
            path.write_text(content)
        args = {
            "verify": ["verify", "--input", equi_file, "--p", "3", "--functions", str(path)],
            "sweep": ["sweep", "--spec", str(path)],
            "gen": ["gen", "--family", f"@{path}"],
        }[command]
        assert run(args) == 2
        assert str(path) in capsys.readouterr().err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_alternating_calls_match_a_fresh_parser(self, equi_file, capsys, monkeypatch):
        calls = [
            ["analyze", "--input", equi_file, "--p", "3", "--optimal-beta"],
            ["analyze", "--input", equi_file, "--p", "3"],
            ["analyze", "--input", equi_file, "--p", "three"],
            ["region", "--input", equi_file, "--format", "json"],
            ["analyze", "--input", equi_file, "--p", "2.5", "--beta", "2"],
            ["region", "--input", equi_file],
            ["bounds", "--input", equi_file, "--p", "4"],
            ["analyze", "--input", equi_file, "--p", "3"],
        ]

        def outcomes():
            results = []
            for argv in calls:
                code = cli.main(argv)
                results.append((code, capsys.readouterr().out))
            return results

        cached = outcomes()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cached == outcomes()
        assert [code for code, _ in cached] == [0, 0, 2, 0, 0, 0, 0, 0]
        assert json.loads(cached[0][1])["q_old"] is not None
        assert json.loads(cached[1][1])["q_old"] is None
        assert cached[1] == cached[-1]


class TestRegion:
    def test_text_format(self, equi_file, tmp_path):
        out = tmp_path / "region.txt"
        assert run(["region", "--input", equi_file, "--output", str(out)]) == 0
        assert out.read_text() == "(1, 1.5) excluded\n(1.5, inf) admissible\n"

    def test_identity_region(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}))
        out = tmp_path / "region.txt"
        assert run(["region", "--input", str(path), "--output", str(out)]) == 0
        assert out.read_text() == "(1, inf) admissible\n"

    @pytest.mark.parametrize("variances", [(2.0, 3.0), (3.0, 5.0), (1e-5, 3.0)])
    def test_diagonal_region_has_no_spurious_interval(self, tmp_path, capsys, variances):
        # sqrt(gamma_i)^2 != gamma_i here; an inexact K_ii put a breakpoint at 1
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"n": 2, "rows": np.diag(variances).tolist()}))
        assert run(["region", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "(1, inf) admissible\n"

    def test_json_format(self, equi_file, tmp_path):
        out = tmp_path / "region.json"
        assert run(["region", "--input", equi_file, "--format", "json",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["intervals"][-1]["hi"] == "inf"
        assert doc["intervals"][-1]["admissible"] is True
        assert doc["breakpoints"] == pytest.approx([1.5, 0.5], abs=1e-12)


class TestBoundsCommand:
    def test_fields_present(self, equi_file, tmp_path):
        out = tmp_path / "bounds.json"
        assert run(["bounds", "--input", equi_file, "--p", "3", "--beta", "1.5",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["strictly_dominant"] is True
        assert doc["ostrowski_bound"] == pytest.approx(2.25)
        assert doc["cornerstone_bound"] == pytest.approx(1.0)
        assert doc["actual_det"] == pytest.approx(3.75)
        assert doc["taussky_verdict"] == "NonsingularByTaussky"

    def test_non_dominant_case(self, equi_file, tmp_path):
        out = tmp_path / "bounds.json"
        assert run(["bounds", "--input", equi_file, "--p", "1.2", "--beta", "1.5",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ostrowski_bound"] is None and doc["cornerstone_bound"] is None


class TestGenAndRoundTrip:
    def test_gen_matches_library(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["gen", "--family",
                    '{"kind":"ar1","n":3,"rho":0.5}', "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        lib = covgen.generate(covgen.AR1(3, 0.5))
        assert np.array_equal(np.array(doc["rows"]), lib)

    def test_gen_analyze_round_trip_bit_identical(self, tmp_path):
        fam = '{"kind":"randomspd","n":4,"seed":9,"cond":30.0}'
        m_path = tmp_path / "m.json"
        assert run(["gen", "--family", fam, "--output", str(m_path)]) == 0
        rep_path = tmp_path / "rep.json"
        assert run(["analyze", "--input", str(m_path), "--p", "2.5", "--beta", "1.5",
                    "--output", str(rep_path)]) == 0
        x = decouple.from_covariance(covgen.generate(covgen.RandomSPD(4, seed=9, cond=30.0)))
        lib_doc = decouple.analyze(x, 2.5, beta=1.5).to_json_dict()
        cli_doc = json.loads(rep_path.read_text())
        assert cli_doc == json.loads(json.dumps(lib_doc))  # identical after float round-trip

    def test_family_file_reference(self, tmp_path):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text('{"kind":"diagonal","gamma":[1.0,2.0]}')
        out = tmp_path / "m.json"
        assert run(["gen", "--family", f"@{fam_path}", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 2


class TestSweep:
    SPEC = {
        "family": {"kind": "equicorrelated", "n": 2, "rho": "0.0:0.4:0.2"},
        "p_grid": "2.0:3.0:1.0",
    }

    def test_header_and_rows(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", str(spec), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_HEADER)
        assert len(lines) == 1 + 3 * 2  # three rho values, two p values

    def test_identity_row_q_new(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        out = tmp_path / "sweep.csv"
        run(["sweep", "--spec", str(spec), "--output", str(out)])
        rows = out.read_text().splitlines()[1:]
        first = rows[0].split(",")  # rho = 0.0 (identity), p = 2.0
        assert float(first[0]) == 0.0 and float(first[1]) == 2.0
        assert first[2] == "true"
        assert float(first[3]) == pytest.approx(2.0 ** 0.5, rel=1e-15)  # 2^(n/4), n=2

    def test_region_containment_recorded(self, tmp_path):
        # on this family the classical condition implies region membership
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "family": {"kind": "equicorrelated", "n": 2, "rho": "0.1:0.9:0.1"},
            "p_grid": "1.1:5.1:0.5",
        }))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", str(spec), "--output", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = dict(zip(cli.SWEEP_HEADER, line.split(",")))
            if cells["classical_ok"] == "true":
                assert cells["in_region_new"] == "true"
            # the top-interval corollary, checkable from the recorded columns
            if float(cells["p"]) > float(cells["max_inv_xi"]) + 1e-6:
                assert cells["in_region_new"] == "true"

    @pytest.mark.parametrize("family, beta", [
        ({"kind": "ar1", "n": 4, "rho": "-0.6:0.6:0.6"}, 1.5),  # fixed beta
        ({"kind": "equicorrelated", "n": 3, "rho": "0.1:0.7:0.3"}, 1.0),  # degenerate
        ({"kind": "randomspd", "n": "3:5:1", "seed": 2, "cond": 30}, None),  # optimal
    ])
    def test_rows_are_analyze_reports(self, tmp_path, deadline, family, beta):
        spec = {"family": family, "p_grid": "1.1:9.1:0.4"}
        if beta is not None:
            spec["beta"] = beta
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        with deadline(60.0):
            assert run(["sweep", "--spec", str(path), "--output", str(out)]) == 0
        key = next(k for k, v in family.items() if isinstance(v, str) and ":" in v)
        rows = [dict(zip(cli.SWEEP_HEADER, line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3 * 21
        for cells in rows:
            doc = dict(family)
            doc[key] = float(cells["param"])
            x = decouple.from_covariance(covgen.generate(covgen.family_from_json(doc)))
            rep = decouple.analyze(x, float(cells["p"]), beta)
            assert cells["in_region_new"] == ("true" if rep.in_region else "false")
            assert cells["q_new"] == ("" if rep.q_new is None else repr(rep.q_new))
            assert cells["q_old"] == ("" if rep.q_old is None else repr(rep.q_old))
            assert cells["classical_ok"] == ("false" if rep.q_old is None else "true")
            assert float(cells["det_identity_residual"]) == rep.identity_residual

    def sweep_cells(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", str(path), "--output", str(out)]) == 0
        return [dict(zip(cli.SWEEP_HEADER, line.split(",")))
                for line in out.read_text().splitlines()[1:]]

    def test_degenerate_fixed_beta_prints_no_threshold(self, tmp_path):
        # unit variances and beta 1 give beta_bar 1, which no exponent meets
        rows = self.sweep_cells(tmp_path, dict(self.SPEC, beta=1))
        assert len(rows) == 3 * 2
        for cells in rows:
            assert cells["beta_bar_pX"] == ""
            assert cells["classical_ok"] == "false"

    @pytest.mark.parametrize("beta", [2.0, None])
    def test_classical_ok_obeys_the_printed_threshold(self, tmp_path, beta):
        spec = {"family": {"kind": "randomspd", "n": "3:5:1", "seed": 2, "cond": 30},
                "p_grid": "1.1:30.1:0.5"}
        if beta is not None:
            spec["beta"] = beta
        verdicts = set()
        for cells in self.sweep_cells(tmp_path, spec):
            p, threshold = float(cells["p"]), float(cells["beta_bar_pX"])
            if abs(p - threshold) > 1e-12 * threshold:
                assert (cells["classical_ok"] == "true") == (p >= threshold), cells
                verdicts.add(p >= threshold)
        assert verdicts == {True, False}

    def test_optimal_route_below_p_of_x_ends(self, tmp_path, deadline):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "family": {"kind": "randomspd", "n": "5:12:1", "seed": 3, "cond": 20},
            "p_grid": "1.5:30:2.5",
        }))
        out = tmp_path / "sweep.csv"
        with deadline(60.0):
            assert run(["sweep", "--spec", str(spec), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 8 * 12

    @pytest.mark.parametrize("p_grid", ["1.0:3.0:0.5", "0.5:3.0:0.5"])
    def test_p_grid_at_or_below_one_is_exit_2(self, tmp_path, capsys, p_grid):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "family": {"kind": "equicorrelated", "n": 2, "rho": "0.1:0.3:0.1"},
            "p_grid": p_grid, "beta": 2.0,
        }))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", str(spec), "--output", str(out)]) == 2
        assert not out.exists()
        assert run(["sweep", "--spec", str(spec)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("family, key", [
        ({"kind": "equicorrelated", "n": "2:4:0.5", "rho": 0.3}, "n"),
        ({"kind": "randomspd", "n": 3, "seed": "0:2:0.5"}, "seed"),
    ])
    def test_non_integral_grid_over_integer_field_is_exit_2(self, tmp_path, capsys,
                                                            family, key):
        # covgen judges integer fields: a grid landing on 2.5 is rejected,
        # not rounded into a row computed at another value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": family, "p_grid": "1.5:3.0:0.5"}))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", str(spec), "--output", str(out)]) == 2
        assert not out.exists()
        assert f"{key} must be an integer" in capsys.readouterr().err


class TestOptimalBeta:
    def test_below_p_of_x_gives_no_classical_constant(self, tmp_path, deadline):
        path = tmp_path / "ar1.json"
        c = covgen.generate(covgen.AR1(100, 0.5))
        path.write_text(json.dumps(cli.matrix_to_document(c)))
        out = tmp_path / "rep.json"
        with deadline(60.0):
            assert run(["analyze", "--input", str(path), "--p", "1.6", "--optimal-beta",
                        "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["q_old"] is None and doc["beta_bar"] is None

    def test_invalid_beta_still_rejected(self, equi_file):
        assert run(["analyze", "--input", equi_file, "--p", "3", "--beta", "0.5",
                    "--optimal-beta"]) == 2


class TestOneSpectrumPerCommand:
    """Every command takes the region, both constants and the identity from
    one values-only eigensolve of the correlation matrix per covariance, and
    none builds an eigenvector."""

    FAMILIES = [covgen.RandomSPD(5, seed=12, cond=30.0), covgen.Equicorrelated(2, 0.2)]

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"sym_eigvals": 0, "sym_eigen": 0}
        vectors = []
        for name in calls:
            original = getattr(matcore, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(matcore, name, wrapper)
        from_covariance = decouple.from_covariance

        def recording(c):
            vectors.append(from_covariance(c))
            return vectors[-1]

        monkeypatch.setattr(decouple, "from_covariance", recording)
        return calls, vectors

    def commands(self, tmp_path, family):
        c = covgen.generate(family)
        x = decouple.from_covariance(c)
        lam_max = float(x._eigenvalues[-1])
        threshold = decouple.least_beta_bar(x, 2.0) * decouple.decoupling_coefficient(x)
        p = 1.0 + max(lam_max, threshold)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cli.matrix_to_document(c)))
        fns = tmp_path / "fns.json"
        fns.write_text(json.dumps([{"kind": "indicator", "a": 0, "b": "inf"}] * x.n))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "family": {"kind": "ar1", "n": 4, "rho": "0.1:0.5:0.2"},
            "p_grid": "2.0:4.0:1.0",
        }))
        common = ["--input", str(path)]
        verify = ["verify", *common, "--p", repr(p), "--functions", str(fns),
                  "--samples", "10000"]
        return [
            ["analyze", *common, "--p", repr(p), "--beta", "2"],
            ["analyze", *common, "--p", repr(p), "--optimal-beta"],
            ["region", *common],
            ["bounds", *common, "--p", repr(p), "--beta", "2"],
            [*verify, "--constant", "new"],
            [*verify, "--constant", "old"],
            ["sweep", "--spec", str(spec)],
        ]

    @pytest.mark.parametrize("family", FAMILIES, ids=["randomspd", "equicorrelated"])
    def test_one_values_only_eigensolve(self, tmp_path, capsys, counted, family):
        calls, vectors = counted
        for argv in self.commands(tmp_path, family):
            calls.update(sym_eigvals=0, sym_eigen=0)
            vectors.clear()
            assert run(argv) == 0, argv
            assert vectors, argv
            assert calls["sym_eigvals"] <= len(vectors), argv
            assert calls["sym_eigen"] == 0, argv
        capsys.readouterr()

    @pytest.mark.parametrize("family", FAMILIES, ids=["randomspd", "equicorrelated"])
    def test_region_and_definiteness_read_the_cached_bits(self, family):
        x = decouple.from_covariance(covgen.generate(family))
        breakpoints = decouple.region_of(x).breakpoints
        assert breakpoints == tuple(reversed(x._eigenvalues))
        for direction in (-math.inf, math.inf):
            p = math.nextafter(float(x._eigenvalues[-1]), direction)
            rep = decouple.analyze(x, p, beta=2.0)
            assert rep.b_positive_definite == (p > breakpoints[0])
            assert rep.b_positive_definite == (direction > 0)


class TestMiscellaneous:
    def test_verify_classical_route(self, equi_file, functions_file, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--input", equi_file, "--p", "4", "--functions",
                    functions_file, "--samples", "20000", "--seed", "2",
                    "--constant", "old", "--beta", "2.0", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_log_env_var_does_not_change_output(self, equi_file, tmp_path, monkeypatch):
        quiet = tmp_path / "quiet.json"
        run(["analyze", "--input", equi_file, "--p", "3", "--output", str(quiet)])
        monkeypatch.setenv("GAUSSDEC_LOG", "DEBUG")
        loud = tmp_path / "loud.json"
        assert run(["analyze", "--input", equi_file, "--p", "3",
                    "--output", str(loud)]) == 0
        assert quiet.read_bytes() == loud.read_bytes()


class TestDeterminism:
    def test_all_commands_bit_deterministic(self, equi_file, functions_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TestSweep.SPEC))
        cases = [
            (["analyze", "--input", equi_file, "--p", "3", "--beta", "2"], "a"),
            (["region", "--input", equi_file, "--format", "json"], "r"),
            (["bounds", "--input", equi_file, "--p", "3", "--beta", "1.5"], "b"),
            (["verify", "--input", equi_file, "--p", "3", "--functions", functions_file,
              "--samples", "20000", "--seed", "7"], "v"),
            (["sweep", "--spec", str(spec)], "s"),
            (["gen", "--family", '{"kind":"randomspd","n":3,"seed":4,"cond":20.0}'], "g"),
        ]
        for args, tag in cases:
            first = tmp_path / f"{tag}1.out"
            second = tmp_path / f"{tag}2.out"
            assert run(args + ["--output", str(first)]) in (0, 4)
            assert run(args + ["--output", str(second)]) in (0, 4)
            assert first.read_bytes() == second.read_bytes(), f"{tag} not deterministic"


class TestGoldenFiles:
    """Frozen CLI outputs; regenerate deliberately via tests/make_golden.py."""

    def _check(self, args, golden_name, tmp_path):
        out = tmp_path / "out"
        assert run(args + ["--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()

    def test_analyze_golden(self, equi_file, tmp_path):
        self._check(["analyze", "--input", equi_file, "--p", "3", "--beta", "2"],
                    "analyze_equi.json", tmp_path)

    def test_region_text_golden(self, equi_file, tmp_path):
        self._check(["region", "--input", equi_file], "region_equi.txt", tmp_path)

    def test_region_json_golden(self, equi_file, tmp_path):
        self._check(["region", "--input", equi_file, "--format", "json"],
                    "region_equi.json", tmp_path)

    def test_sweep_golden(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TestSweep.SPEC))
        self._check(["sweep", "--spec", str(spec)], "sweep_equi.csv", tmp_path)


def fresh_interpreter(code):
    """Standard output of ``python -c code`` run with this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_thread_pool_unloaded():
    # the sampler forks with os and pickle, which numpy has loaded already:
    # importing concurrent.futures and its thread module, or multiprocessing,
    # would cost every command a few ms
    code = (
        "import sys, gaussdec.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert fresh_interpreter(code) == "[]"


def test_package_root_binds_no_public_name():
    # the modules are the only import path: `from gaussdec import decouple`
    code = "import gaussdec; print([k for k in vars(gaussdec) if not k.startswith('_')])"
    assert fresh_interpreter(code) == "[]"
