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

from gaussdec import cli, covgen, decouple, matcore
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

    def test_sweep_degenerate_grid_is_exit_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"family": {"kind": "equicorrelated", "n": 2, "rho": "0.9:0.1:0.2"},
             "p_grid": "1.5:3.0:0.5"}))
        assert run(["sweep", "--spec", str(spec)]) == 2

    @pytest.mark.parametrize("beta", ["abc", [1], {}])
    def test_sweep_non_numeric_beta_is_exit_2(self, tmp_path, capsys, beta):
        # float() raises TypeError on a list, which cli.main does not catch
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"family": {"kind": "equicorrelated", "n": 2, "rho": "0.1:0.3:0.1"},
             "p_grid": "1.5:3.0:0.5", "beta": beta}))
        assert run(["sweep", "--spec", str(spec)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_no_command_is_exit_2(self, capsys):
        assert run([]) == 2
        assert capsys.readouterr().err.startswith("usage: gaussdec")


@pytest.fixture(scope="module")
def equi164_file(tmp_path_factory):
    # Equicorrelated(164, 0.99): determinants of p*diag(gamma) - C leave
    # the float range at moderate p.
    path = tmp_path_factory.mktemp("equi164") / "equi.json"
    c = covgen.generate(covgen.Equicorrelated(164, 0.99))
    path.write_text(json.dumps(cli.matrix_to_document(c)))
    return str(path)


class TestNonFiniteResults:
    def test_overflow_is_exit_3_without_a_warning(self, equi164_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["analyze", "--input", equi164_file, "--p", "1e3"]) == 3
        assert "numerically unusable" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["200", "1e3"])
    def test_infinite_determinant_is_exit_3_with_empty_stdout(self, equi164_file, capsys, p):
        assert run(["bounds", "--input", equi164_file, "--p", p]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerically unusable" in captured.err

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
    # the sampler imports concurrent.futures and its thread module only when
    # it runs, which spares the commands that do not sample about 3 ms
    code = "import sys, gaussdec.cli; print('concurrent.futures' in sys.modules)"
    assert fresh_interpreter(code) == "False"


def test_package_root_binds_no_public_name():
    # the modules are the only import path: `from gaussdec import decouple`
    code = "import gaussdec; print([k for k in vars(gaussdec) if not k.startswith('_')])"
    assert fresh_interpreter(code) == "[]"
