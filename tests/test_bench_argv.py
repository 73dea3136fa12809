"""Every command line the benchmark builds must still parse, so that a change
that drops or renames a flag the benchmark passes fails here, not in a
benchmark run.  The ops are parsed only, never run."""

import importlib.util
import sys
from pathlib import Path

from gaussdec import cli

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def test_benchmark_argv_parse(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
    spec.loader.exec_module(inputs)
    parser = cli.build_parser()
    for workload in inputs.WORKLOADS:
        ops = inputs.make_block(workload, 1, 0, tmp_path / workload)
        assert ops
        for op in ops:
            assert parser.parse_args(op.argv).command == op.argv[0], op.label
