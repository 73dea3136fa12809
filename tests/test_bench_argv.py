"""Every command line the benchmark builds must still parse, and every input
document it writes must still read as the benchmark means it, so that a
change that drops or renames a flag, or reads a matrix or a test function
differently, fails here, not in a benchmark run.  The ops are parsed only,
never run."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussdec import cli, verify

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
# The benchmark writes an infinite indicator bound as one of these strings.
BOUNDS = {"-inf": -math.inf, "inf": math.inf}


@pytest.fixture
def inputs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def block_zero(inputs, tmp_path):
    for workload in inputs.WORKLOADS:
        ops = inputs.make_block(workload, 1, 0, tmp_path / workload)
        assert ops
        yield from ops


def test_benchmark_argv_parse(inputs, tmp_path):
    parser = cli.build_parser()
    for op in block_zero(inputs, tmp_path):
        assert parser.parse_args(op.argv).command == op.argv[0], op.label


def test_benchmark_documents_read_as_written(inputs, tmp_path):
    parser = cli.build_parser()
    for op in block_zero(inputs, tmp_path):
        args = parser.parse_args(op.argv)
        assert np.array_equal(cli.read_matrix_document(args.input), op.context["c"]), op.label
        if op.workload == "monte-carlo":
            written = json.loads(Path(args.functions).read_text())
            assert written == op.context["functions"], op.label
            parsed = verify.parse_test_functions(written)
            for f, doc in zip(parsed, written, strict=True):
                if doc["kind"] == "indicator":
                    a, b = (BOUNDS.get(doc[end], doc[end]) for end in ("a", "b"))
                    assert f == verify.Indicator(a, b), op.label
                else:
                    assert f == verify.PolyGauss(doc.get("k", 0), doc["s"]), op.label
