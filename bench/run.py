"""gaussdec benchmark: closed loop, one client, the real CLI in-process.

    python3 bench/run.py --workload fresh-matrix --seed 1 --seconds 30 --trace 0

Each op calls ``gaussdec.cli.main(argv)`` with ``--output`` inside a work
directory, under a per-op deadline, and its output is checked against an
independent numpy/scipy reference (``check.py``).  Ops run in whole blocks
(``inputs.py``) until the timed op wall time reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics; their times are scaled to a
reference machine speed (see CAL_REF_S), and the raw ones are in the record.  ``--trace 1`` runs the same
blocks twice, first untraced and then with spans around every public
function of each layer (``spans.py``), and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``correct`` is false when
any op exited normally with an output that failed its check; ``failed``
counts every failed op (exception, unexpected exit code, wrong output or
deadline overrun).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread on both sides of every comparison: the program's numpy
# calls are small, and a shared machine gives steadier times single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("GAUSSDEC_LOG", None)

SETUP_REPEATS = 9
# The machine's speed drifts: on a shared 2-vCPU VM the same interpretive
# code ran up to 2x slower for seconds to minutes at a time, which moved
# whole runs.  So the times behind the end-to-end metrics are scaled to a
# reference speed: every CAL_SEGMENT_S of op time the benchmark times a fixed
# job of its own (`calibration_job`), and each op's wall time is multiplied by
# CAL_REF_S over the mean of the job's times just before and after it.  The
# raw figures go into the run record.  CAL_REF_S is about the job's time on
# that VM when it ran fast; it sets only the scale.
CAL_SEGMENT_S = 0.25
CAL_REF_S = 0.010
# The job is interpretive Python like the fresh-matrix ops and every set-up.
# The monte-carlo sampler runs in numpy and slowed far less in those phases;
# scaled by the job its latency_p50_ms spread 0.14 over five seeds, against
# 0.06 raw, so its op times stay raw.
SCALED_OPS = ("fresh-matrix",)
SETUP_TIMEOUT_S = 60.0
TAIL_MIN_BEYOND = 10
MC_SAMPLES = 1_000_000  # the CLI default the monte-carlo workload uses


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, deadline_s: float, *args):
    """fn(*args), interrupted by DeadlineExceeded after deadline_s seconds.

    SIGALRM is delivered between bytecodes, so it also stops pure-Python
    loops; a one-shot timer fires at most once.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


_CAL_VECTOR = tuple(float(i) / 40.0 for i in range(40))


def calibration_job() -> float:
    """Fixed work in the program's style (a Python loop over small numpy
    vectors, plus dict updates); returns its wall time in seconds."""
    import numpy as np

    start = time.perf_counter()
    x = np.array(_CAL_VECTOR)
    acc = 0.0
    for i in range(3000):
        x = x * 0.999 + 0.001
        acc += float(x[i % 40])
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


@dataclass
class Result:
    block: int
    op_id: str
    label: str
    latency_s: float
    reason: str | None  # None when the op was answered correctly
    wrong_output: bool = False
    scaled_s: float = math.nan  # latency_s at the reference speed


def run_op(cli, check, op) -> Result:
    err = io.StringIO()
    wrong = False
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = call_with_deadline(lambda: cli.main(op.argv), op.deadline_s)
        latency = time.perf_counter() - start
        reason = None
    except DeadlineExceeded:
        latency = op.deadline_s
        reason = f"deadline of {op.deadline_s:.2f} s exceeded"
    except Exception as exc:  # the op under test crashed; record and go on
        latency = time.perf_counter() - start
        reason = f"uncaught {type(exc).__name__}: {exc}"
    if reason is None:
        reason, wrong = _check(check, op, rc, err.getvalue())
    op.output.unlink(missing_ok=True)
    return Result(op.block, op.op_id, op.label, latency, reason, wrong)


def _check(check, op, rc: int, stderr: str) -> tuple[str | None, bool]:
    """(reason or None, whether the op answered with a wrong output)."""
    expected = (0, 4) if op.workload == "monte-carlo" else (0,)
    if rc not in expected:
        return f"exit code {rc}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}", False
    try:
        text = op.output.read_text()
    except OSError as exc:
        return f"exit code {rc} but no output: {exc}", False
    reason = _check_output(check, op, rc, text)
    return reason, reason is not None


def _check_output(check, op, rc: int, text: str) -> str | None:
    ctx = op.context
    if op.kind == "analyze":
        return check.check_analyze(ctx["c"], ctx["p"], ctx["beta"], text)
    if op.kind == "analyze-optimal":
        return check.check_analyze(ctx["c"], ctx["p"], None, text)
    if op.kind == "region-text":
        return check.check_region_text(ctx["c"], text)
    if op.kind == "region-json":
        return check.check_region_json(ctx["c"], text)
    if op.kind == "bounds":
        return check.check_bounds(ctx["c"], ctx["p"], ctx["beta"], text)
    return check.check_verify(ctx["c"], ctx["p"], ctx["constant"], ctx["functions"], rc, text)


def run_blocks(workload, seed, seconds, blocks, workdir, tracer=None):
    """Closed loop over whole blocks: until the timed op wall time reaches
    ``seconds`` (when ``blocks`` is None) or for exactly ``blocks`` blocks.
    Returns (results, blocks run, wall seconds spent generating inputs)."""
    import check
    import inputs
    from gaussdec import cli

    results: list[Result] = []
    timed = 0.0
    gen_s = 0.0
    b = 0
    segment: list[Result] = []
    scaled = workload in SCALED_OPS
    cal_before = calibration_job() if scaled else math.nan
    while (timed < seconds) if blocks is None else (b < blocks):
        block_dir = workdir / f"b{b}"
        if tracer is not None:
            tracer.op_id = f"{workload}/{b}/inputs"
        t0 = time.perf_counter()
        ops = inputs.make_block(workload, seed, b, block_dir)
        gen_s += time.perf_counter() - t0
        for op in ops:
            if tracer is not None:
                tracer.op_id = op.op_id
            res = run_op(cli, check, op)
            timed += res.latency_s
            results.append(res)
            if not scaled:
                res.scaled_s = res.latency_s
                continue
            segment.append(res)
            if sum(r.latency_s for r in segment) >= CAL_SEGMENT_S:
                cal_before = _scale(segment, cal_before)
                segment = []
        shutil.rmtree(block_dir, ignore_errors=True)
        b += 1
    if segment:
        _scale(segment, cal_before)
    return results, b, gen_s


def _scale(segment: list[Result], cal_before: float) -> float:
    """Set scaled_s on a segment's results; returns the closing job time."""
    cal_after = calibration_job()
    factor = CAL_REF_S / (0.5 * (cal_before + cal_after))
    for r in segment:
        r.scaled_s = r.latency_s * factor
    return cal_after


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that each import gaussdec.cli and
    then generate and write the first block's input documents, raw and
    scaled to the reference speed."""
    times, scaled = [], []
    cal_before = calibration_job()
    for i in range(SETUP_REPEATS):
        out = workdir / f"setup{i}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(out)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        cal_after = calibration_job()
        scaled.append(times[-1] * CAL_REF_S / (0.5 * (cal_before + cal_after)))
        cal_before = cal_after
        shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return times, scaled


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """(value, whole percentile): the highest whole percentile with at least
    TAIL_MIN_BEYOND ops beyond it, nearest-rank, but never below the 50th
    (a run of fewer than 2 * TAIL_MIN_BEYOND ops reports its median)."""
    xs = sorted(latencies)
    n = len(xs)
    q = max(50, math.floor(100 * (n - TAIL_MIN_BEYOND) / n))
    rank = max(1, math.ceil(q / 100 * n))
    return xs[rank - 1], q


def blas_info() -> dict:
    import numpy as np

    info = {"blas_threads_env": BLAS_THREADS}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["blas"] = "unknown"
    return info


def run_record(workload, seed, seconds, trace, results, blocks, extra) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blocks": blocks,
        "ops": len(results),
        **extra,
        "failures": [
            {"op": r.op_id, "input": r.label, "reason": r.reason}
            for r in results
            if r.reason is not None
        ],
    }


def _time_figures(times: list[float], ok: int) -> tuple[float, float, float, int]:
    """(ops/s, p50 ms, tail ms, tail percentile) of per-op times."""
    tail, q = tail_latency(times)
    return ok / sum(times), 1e3 * statistics.median(times), 1e3 * tail, q


def e2e_metrics(results, setup) -> tuple[dict, dict]:
    setup_raw, setup_scaled = setup
    ok = sum(1 for r in results if r.reason is None)
    scaled = [r.scaled_s for r in results]
    ops, p50, tail, q = _time_figures(scaled, ok)
    raw_ops, raw_p50, raw_tail, _ = _time_figures([r.latency_s for r in results], ok)
    metrics = {
        "ops_per_s": (ops, "op/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Per-block throughput and speed factor show how much the machine's
    # speed drifted during the run; every block has the same mix of sizes.
    blocks: dict[int, list[Result]] = {}
    for r in results:
        blocks.setdefault(r.block, []).append(r)
    extra = {
        "timed_s": sum(r.latency_s for r in results),
        "raw": {
            "ops_per_s": raw_ops,
            "latency_p50_ms": raw_p50,
            "latency_tail_ms": raw_tail,
            "setup_s": statistics.median(setup_raw),
        },
        "block_ops_per_s": [
            sum(r.reason is None for r in b) / sum(r.latency_s for r in b) for b in blocks.values()
        ],
        "block_speed_factor": [
            sum(r.scaled_s for r in b) / sum(r.latency_s for r in b) for b in blocks.values()
        ],
        "block_failed": [sum(r.reason is not None for r in b) for b in blocks.values()],
        "tail_percentile": q,
        "tail_ops_beyond": sum(1 for x in scaled if x > tail / 1e3),
        "setup_runs_s": setup_raw,
        "fail_frac": (len(results) - ok) / len(results),
    }
    return metrics, extra


def workload_rates(workload, results) -> dict:
    """Throughputs that exist on one workload only, reported beside the
    contract metrics: Monte Carlo samples per second."""
    timed = sum(r.scaled_s for r in results)
    if workload == "monte-carlo":
        ok = sum(1 for r in results if r.reason is None)
        return {"mc_samples_per_s": (ok * MC_SAMPLES / timed, "sample/s")}
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fresh-matrix", "monte-carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaussdec" / "cli.py").is_file():
        print(f"error: no gaussdec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import check  # noqa: F401  (scipy is imported before the heap is frozen)
    import inputs  # noqa: F401
    import spans as tracing
    from gaussdec import cli  # noqa: F401

    # A fresh `gaussdec` process has a small heap.  Freezing what the benchmark
    # imported (numpy, scipy, ...) keeps full garbage collections inside an op
    # from walking it, so in-process ops cost what they would in the CLI.
    gc.collect()
    gc.freeze()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            payload = traced_run(args, workdir, tracing)
        else:
            payload = untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(payload))
    return 0


def _payload(results, metrics) -> dict:
    return {
        "correct": not any(r.wrong_output for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.reason is not None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def untraced_run(args, workdir) -> dict:
    setup = measure_setup(args.workload, args.seed, workdir)
    results, blocks, _ = run_blocks(args.workload, args.seed, args.seconds, None, workdir)
    metrics, extra = e2e_metrics(results, setup)
    rates = workload_rates(args.workload, results)
    extra["workload_rates"] = {k: v for k, (v, _) in rates.items()}
    record = run_record(args.workload, args.seed, args.seconds, 0, results, blocks, extra)
    _print_report(record, {**metrics, **rates})
    return _payload(results, metrics)


def traced_run(args, workdir, tracing) -> dict:
    results, blocks, _ = run_blocks(args.workload, args.seed, args.seconds / 2, None, workdir)
    untraced_ops_s = sum(r.reason is None for r in results) / sum(r.scaled_s for r in results)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, gen_s = run_blocks(args.workload, args.seed, None, blocks, workdir, tracer)
    finally:
        tracer.close()
    timed = sum(r.latency_s for r in traced)
    metrics = tracing.report(tracer.spans, timed + gen_s, timed)
    traced_ops_s = sum(r.reason is None for r in traced) / sum(r.scaled_s for r in traced)
    metrics["trace.ops_per_s_untraced"] = (untraced_ops_s, "op/s")
    metrics["trace.ops_per_s_traced"] = (traced_ops_s, "op/s")
    extra = {"spans": len(tracer.spans), "traced_base_s": timed + gen_s}
    record = run_record(args.workload, args.seed, args.seconds, 1, traced, blocks, extra)
    _print_report(record, metrics)
    return _payload(traced, metrics)


def _print_report(record: dict, metrics: dict) -> None:
    print("run record:")
    print(json.dumps(record, indent=2, default=float))
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
