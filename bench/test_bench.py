"""Self-tests of the benchmark: checker, deadline, input determinism and the
result line.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from gaussdec import covgen, decouple  # noqa: E402
from gaussdec.errors import NotAdmissibleClassical  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
EQUI = np.array([[1.0, 0.5], [0.5, 1.0]])


def test_checker_accepts_golden_equicorrelated_answers():
    assert check.check_analyze(EQUI, 3.0, 2.0, (GOLDEN / "analyze_equi.json").read_text()) is None
    assert check.check_region_text(EQUI, (GOLDEN / "region_equi.txt").read_text()) is None
    assert check.check_region_json(EQUI, (GOLDEN / "region_equi.json").read_text()) is None


def _analyze_doc(ref: check.Reference, p: float, beta: float, q_new: float) -> str:
    bb = ref.fixed_beta_bar(beta)
    return json.dumps(
        {
            "p": p,
            "p_of_X": ref.p_of_x,
            "beta_bar": bb,
            "in_region": True,
            "q_new": q_new,
            "q_old": math.exp(ref.log_q_old(p, bb)) if p >= bb * ref.p_of_x else None,
            "b_positive_definite": p > ref.lam_max,
            "identity_residual": 0.0,
        }
    )


def test_checker_rejects_zero_q_new():
    # RandomSPD(200, seed 1, cond 100): the analyze output reports q_new = 0.0
    # with exit 0, because det(C) overflows in linear space.
    c = covgen.generate(covgen.RandomSPD(200, 1, 100.0))
    ref = check.Reference(c)
    p = 1.5 * ref.lam_max
    right = math.exp(ref.log_q_new(p))
    assert check.check_analyze(c, p, 2.0, _analyze_doc(ref, p, 2.0, right)) is None
    reason = check.check_analyze(c, p, 2.0, _analyze_doc(ref, p, 2.0, 0.0))
    assert reason is not None and reason.startswith("q_new = 0.0")


def test_checker_rejects_inverted_region_parity():
    text = (GOLDEN / "region_equi.json").read_text()
    doc = json.loads(text)
    for iv in doc["intervals"]:
        iv["admissible"] = not iv["admissible"]
    assert check.check_region_json(EQUI, json.dumps(doc)) is not None


def test_deadline_cuts_a_pure_python_loop():
    def spin():
        while True:
            pass

    start = time.perf_counter()
    with pytest.raises(run.DeadlineExceeded):
        run.call_with_deadline(spin, 0.3)
    assert time.perf_counter() - start < 2.0


def test_deadline_bounds_the_optimal_beta_hang_repro():
    # optimal_beta_bar(AR1(100, 0.5), 1.6) loops forever when rounding puts
    # cap * p(X) above p; the deadline must end it either way.
    x = decouple.from_covariance(covgen.generate(covgen.AR1(100, 0.5)))
    start = time.perf_counter()
    with pytest.raises((run.DeadlineExceeded, NotAdmissibleClassical)):
        run.call_with_deadline(decouple.optimal_beta_bar, 0.5, x, 1.6)
    assert time.perf_counter() - start < 2.5


def _block_files(workload: str, seed: int, block: int, where: Path):
    ops = inputs.make_block(workload, seed, block, where)
    argv = [[a.replace(str(where), "") for a in op.argv] for op in ops]
    files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
    return argv, files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload, tmp_path):
    a = _block_files(workload, 7, 1, tmp_path / "a")
    b = _block_files(workload, 7, 1, tmp_path / "b")
    c = _block_files(workload, 8, 1, tmp_path / "c")
    assert a == b
    assert a[1] != c[1]


def test_fresh_inputs_stay_where_the_program_answers(tmp_path):
    # --optimal-beta takes p above p(X), where optimal_beta_bar cannot hang,
    # and the commands that form determinants keep p^n prod(gamma) in range.
    for block in (0, 1):
        for op in inputs.make_block("fresh-matrix", 5, block, tmp_path / str(block)):
            c, p = op.context["c"], op.context["p"]
            if op.kind == "analyze-optimal":
                assert p > inputs._p_of_x(c)
            if op.kind.startswith("region"):
                continue
            log_det_shift = np.linalg.slogdet(np.diag(p * np.diag(c)) - c)[1]
            assert c.shape[0] * math.log(p) + np.sum(np.log(np.diag(c))) <= inputs.LOG_RANGE
            assert log_det_shift <= inputs.LOG_RANGE


def test_verify_inputs_keep_polygauss_within_the_quadrature_range(tmp_path):
    for op in inputs.make_block("monte-carlo", 5, 0, tmp_path):
        for fn in op.context["functions"]:
            if fn["kind"] == "polygauss":
                assert fn["k"] * op.context["p"] <= inputs.KP_MAX


def test_scaling_uses_the_jobs_around_a_segment(monkeypatch):
    monkeypatch.setattr(run, "calibration_job", lambda: 0.03)
    segment = [run.Result(0, "w/0/0", "op", 0.2, None)]
    assert run._scale(segment, 0.01) == 0.03
    assert segment[0].scaled_s == pytest.approx(0.2 * run.CAL_REF_S / 0.02)


def test_tail_latency_keeps_ten_ops_beyond():
    value, q = run.tail_latency([float(i) for i in range(1, 101)])
    assert (value, q) == (90.0, 90)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    assert run.tail_latency([1.0, 2.0, 3.0]) == (2.0, 50)


def test_result_line(capsys):
    assert run.main(["--workload", "monte-carlo", "--seed", "3", "--seconds", "0.1"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(last)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] == inputs.MC_SIZES
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_tracer_spans_nest_and_uninstall(tmp_path):
    import spans
    from gaussdec import cli

    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"n": 2, "rows": EQUI.tolist()}))
    original = cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["analyze", "--input", str(doc), "--p", "3", "--beta", "2",
                         "--output", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.close()
    assert cli.main is original
    metrics = spans.report(tracer.spans, 1.0, 1.0)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["decouple.analyze.calls"][0] == 1
    assert metrics["matcore.jacobi_eigen.calls"][0] == 0
    # q_new, q_old and the identity residual each factorise; two of the
    # three lu_det calls see the same C.
    assert metrics["matcore.lu_det.calls"][0] == 3
    assert metrics["matcore.lu_det.useful_frac"][0] == pytest.approx(2 / 3)
    assert all(t >= 0.0 for t in spans.self_times(tracer.spans))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(metrics) | {"trace.ops_per_s_untraced", "trace.ops_per_s_traced"}
    assert names == {m["name"] for m in declared["per_layer"]}
