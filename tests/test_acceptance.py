"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s``).  The randomized suite is
fully seeded, so outcomes are reproducible bit for bit.

Run:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import oracles
from gaussdec import bounds, cli, covgen, decouple, matcore, verify

GOLDEN = Path(__file__).parent / "golden"

P_GRID = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)


def _report(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS")


@lru_cache(maxsize=1)
def suite():
    """200 random SPD instances, n cycling over 2..8, seeds 1..200."""
    out = []
    for seed in range(1, 201):
        n = 2 + (seed - 1) % 7
        c = covgen.generate(covgen.RandomSPD(n, seed=seed, cond=10.0))
        out.append(decouple.from_covariance(c))
    return tuple(out)


def test_criterion_1_exact_determinant_identity():
    start = time.perf_counter()
    worst = 0.0
    for x in suite():
        for p in P_GRID:
            worst = max(worst, decouple.det_identity_residual(x, p))
            assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"det identity residual, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_xi_oracle_equivalence():
    for x in suite():
        inv_xi = 1.0 / decouple.simultaneous_diagonalization(x).xi
        oracle = oracles.correlation_eigs_oracle(x)
        a = np.sort(inv_xi)
        b = np.sort(oracle)
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))
        assert abs(float(np.sum(inv_xi)) - x.n) <= 1e-9
        lhs = float(np.prod(inv_xi))
        rhs = matcore.lu_det(x.c) / float(np.prod(x.gamma))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))
    _report(2, "1/xi multiset == correlation spectrum; trace and det identities")


def test_criterion_3_region_corollary_and_parity_signs():
    for x in suite():
        xi = decouple.simultaneous_diagonalization(x).xi
        region = decouple.region_of(x)
        top = float(np.max(1.0 / xi))
        eps_p = region.margin(max(1.0, top))
        for p in (max(top, 1.0) * (1.0 + 1e-6) + eps_p, top + 0.5, top + 5.0):
            if p > 1.0:
                assert region.contains(p), f"p={p} above every breakpoint must be admissible"
        for iv in region.intervals:
            p = iv.lo + 0.5 if math.isinf(iv.hi) else 0.5 * (iv.lo + iv.hi)
            value = p ** x.n * float(np.prod(x.gamma)) * float(np.prod(1.0 - 1.0 / (p * xi)))
            assert (value > 0.0) == iv.admissible and value != 0.0
    _report(3, "(max 1/xi, inf) admissible; interval signs match parity")


def test_criterion_4_closed_form_region_equicorrelated():
    x = decouple.from_covariance(covgen.generate(covgen.Equicorrelated(2, 0.5)))
    region = decouple.region_of(x)
    np.testing.assert_allclose(region.breakpoints, [1.5, 0.5], atol=1e-12)
    tags = [(iv.lo, iv.hi, iv.admissible) for iv in region.intervals]
    assert len(tags) == 2
    assert tags[0][0] == 1.0 and abs(tags[0][1] - 1.5) <= 1e-12 and not tags[0][2]
    assert abs(tags[1][0] - 1.5) <= 1e-12 and math.isinf(tags[1][1]) and tags[1][2]
    _report(4, "equicorrelated(2, 0.5): S = (1.5, inf), breakpoints {1.5, 0.5}")


def test_criterion_5_ostrowski_chain():
    checked = 0
    for x in suite():
        px = decouple.decoupling_coefficient(x)
        floor = max(decouple.variance_ratio(x), 1.0 + decouple.EPS_BETA)
        for factor in (1.01, 2.0, 5.0):
            p = factor * floor * px
            bb = decouple.optimal_beta_bar(x, p)
            assert bb > 1.0 and p >= bb * px
            m = decouple.shifted_matrix(x, p)
            det = matcore.lu_det(m)
            middle = bounds.ostrowski_lower_bound(m)
            corner = bounds.cornerstone_bound(x, p, bb)
            xi = decouple.simultaneous_diagonalization(x).xi
            exact = p ** x.n * float(np.prod(x.gamma)) * float(np.prod(1.0 - 1.0 / (p * xi)))
            tol = 1e-9 * max(1.0, abs(det), abs(middle), abs(corner), abs(exact))
            assert det + tol >= middle >= corner - tol
            assert exact + tol >= corner
            checked += 1
    _report(5, f"det >= row-dominance product >= cornerstone on {checked} cases")


def test_criterion_6_brascamp_lieb_bound():
    rng = np.random.default_rng(606)
    violations = 0
    total = 0
    mats = [np.array([[float(rng.uniform(0.5, 3.0))]])]
    for n in (2, 3, 4):
        for seed in (n, 10 + n):
            mats.append(covgen.generate(covgen.RandomSPD(n, seed=seed, cond=15.0)))
    for a in mats:
        n = a.shape[0]
        for p in (1.5, 2.0, 3.0):
            bound = oracles.bl_bound(a, p)
            bs = 10.0 ** rng.uniform(-2.0, 2.0, size=(1000, n))
            for b in bs:
                total += 1
                if oracles.bl_ratio(a, b, p) > bound * (1.0 + 1e-12):
                    violations += 1
    assert violations == 0
    _report(6, f"bl_ratio <= bl_bound in {total} samples, zero violations")


def _case_functions(n, rng):
    fs = []
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            edge = float(rng.uniform(-1.0, 1.0))
            fs.append(
                verify.Indicator(edge, math.inf)
                if rng.integers(0, 2)
                else verify.Indicator(-abs(edge) - 0.2, abs(edge) + 0.2)
            )
        elif kind == 1:
            fs.append(verify.PolyGauss(0, float(rng.uniform(0.5, 2.0))))
        else:
            fs.append(verify.PolyGauss(int(rng.integers(1, 3)), float(rng.uniform(0.5, 2.0))))
    return fs


def _case_covariance(i, rng):
    n = 2 + i % 3
    which = i % 3
    if which == 0:
        rho = float(rng.uniform(-0.8, 0.8))
        return covgen.generate(covgen.AR1(n, rho))
    if which == 1:
        low = -1.0 / (n - 1) + 0.1
        rho = float(rng.uniform(low, 0.85))
        return covgen.generate(covgen.Equicorrelated(n, rho))
    return covgen.generate(covgen.RandomSPD(n, seed=7000 + i, cond=float(rng.uniform(5.0, 40.0))))


def _admissible_p(region, rng):
    candidates = [iv for iv in region.intervals if iv.admissible]
    iv = candidates[int(rng.integers(0, len(candidates)))]
    if math.isinf(iv.hi):
        p = max(iv.lo, 1.0) + 0.5 + float(rng.uniform(0.0, 2.0))
    else:
        p = iv.lo + float(rng.uniform(0.25, 0.75)) * (iv.hi - iv.lo)
    if not region.contains(p):
        top = max(b for b in region.breakpoints)
        p = max(top, 1.0) + 1.0  # fall back to the unbounded interval
    return p


def test_criterion_7_end_to_end_inequality_region_constant():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    failures = []
    for i in range(100):
        x = decouple.from_covariance(_case_covariance(i, rng))
        p = _admissible_p(decouple.region_of(x), rng)
        fs = _case_functions(x.n, rng)
        res = verify.check_inequality(x, fs, p, samples=1_000_000, seed=7100 + i)
        if not res.passed:
            failures.append((i, p, res))
    assert not failures, f"{len(failures)} end-to-end failures: {failures[:3]}"

    # pinned case: equicorrelated(2, 0.5), p = 3, half-line indicators
    x = decouple.from_covariance(covgen.generate(covgen.Equicorrelated(2, 0.5)))
    fs = [verify.Indicator(0.0, math.inf)] * 2
    res = verify.check_inequality(x, fs, 3.0, samples=1_000_000, seed=4242)
    orthant = 0.25 + math.asin(0.5) / (2.0 * math.pi)  # = 1/3
    assert abs(res.lhs_estimate - orthant) <= 4.0 * res.lhs_stderr
    q = decouple.q_new(x, 3.0)
    assert res.rhs_bound == pytest.approx(q * 0.5 ** (2.0 / 3.0), rel=1e-12)
    assert res.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    _report(7, f"100/100 region-constant checks passed, {elapsed:.1f}s")


def test_criterion_8_end_to_end_inequality_classical_constant():
    rng = np.random.default_rng(808)
    failures = []
    for i in range(100):
        x = decouple.from_covariance(_case_covariance(i, rng))
        px = decouple.decoupling_coefficient(x)
        floor = max(decouple.variance_ratio(x), 1.0 + 2.0 * decouple.EPS_BETA)
        p = floor * px * float(rng.uniform(1.02, 2.5))
        fs = _case_functions(x.n, rng)
        res = verify.check_inequality(
            x, fs, p, samples=1_000_000, seed=8100 + i, constant="old"
        )
        if not res.passed:
            failures.append((i, p, res))
    assert not failures, f"{len(failures)} classical-constant failures: {failures[:3]}"
    _report(8, "100/100 classical-constant checks passed")


def test_criterion_9_eigensolver_cross_validation():
    rng = np.random.default_rng(909)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        v1 = matcore.sym_eigvals(a)
        v2 = matcore.jacobi_eigen(a)
        scale = max(1.0, float(np.max(np.abs(v1))))
        assert np.max(np.abs(v1 - v2)) <= 1e-10 * scale
        trace = float(np.trace(a))
        assert abs(trace - float(np.sum(v1))) <= 1e-10 * max(1.0, abs(trace))
        det = matcore.lu_det(a)
        prod = float(np.prod(v1))
        assert abs(det - prod) <= 1e-8 * max(abs(det), abs(prod))
    _report(9, "sym_eigvals vs jacobi_eigen agree; trace/det identities hold")


def test_criterion_10_taussky_cases():
    tridiag = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]]
    assert bounds.taussky_test(tridiag) is bounds.TausskyVerdict.NONSINGULAR
    assert abs(matcore.lu_det(tridiag) - 1.0) <= 1e-12
    flat = [[1.0, 1.0], [1.0, 1.0]]
    assert bounds.taussky_test(flat) is bounds.TausskyVerdict.NOT_APPLICABLE
    assert abs(matcore.lu_det(flat)) <= 1e-14
    reducible = [[1.0, 1.0], [0.0, 2.0]]
    assert bounds.taussky_test(reducible) is bounds.TausskyVerdict.NOT_APPLICABLE
    _report(10, "tridiagonal certificate + both NotApplicable counterexamples")


def test_criterion_11_cli_reproducibility(tmp_path):
    equi = tmp_path / "equi.json"
    equi.write_text(json.dumps({"n": 2, "rows": [[1.0, 0.5], [0.5, 1.0]]}))
    fns = tmp_path / "fns.json"
    fns.write_text(json.dumps([{"kind": "indicator", "a": 0, "b": "inf"}] * 2))
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "family": {"kind": "equicorrelated", "n": 2, "rho": "0.0:0.4:0.2"},
                "p_grid": "2.0:3.0:1.0",
            }
        )
    )
    commands = {
        "analyze": ["analyze", "--input", str(equi), "--p", "3", "--beta", "2"],
        "region": ["region", "--input", str(equi)],
        "region_json": ["region", "--input", str(equi), "--format", "json"],
        "bounds": ["bounds", "--input", str(equi), "--p", "3", "--beta", "1.5"],
        "verify": ["verify", "--input", str(equi), "--p", "3", "--functions", str(fns),
                   "--samples", "20000", "--seed", "11"],
        "sweep": ["sweep", "--spec", str(spec)],
        "gen": ["gen", "--family", '{"kind":"randomspd","n":4,"seed":5,"cond":25.0}'],
    }
    outputs = {}
    for tag, args in commands.items():
        first = tmp_path / f"{tag}.1"
        second = tmp_path / f"{tag}.2"
        assert cli.main(args + ["--output", str(first)]) == 0
        assert cli.main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{tag} not bit-deterministic"
        outputs[tag] = first.read_bytes()
    golden_map = {
        "analyze": "analyze_equi.json",
        "region": "region_equi.txt",
        "region_json": "region_equi.json",
        "sweep": "sweep_equi.csv",
    }
    for tag, name in golden_map.items():
        assert outputs[tag] == (GOLDEN / name).read_bytes(), f"{tag} golden mismatch"
    _report(11, "all commands bit-deterministic; analyze/region/sweep match goldens")
