"""Spans around the public functions of each gaussdec layer.

Wrappers are installed from benchmark code by replacing module attributes,
so calls between modules (``decouple.q_new`` -> ``matcore.lu_det``) and
inside one module (``decouple.analyze`` -> ``q_new``) both go through them.
Spans (name, start, end, parent, op id) stay in memory until ``report``.
A span's self time is its duration minus the time its child spans cover.

The SimDiag assembly runs inside a cached property, so its own time lands in
the self time of whichever public ``decouple`` function first touched it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("cli", "covgen", "decouple", "matcore", "bounds", "verify")

TRACED = {
    "cli": ("main", "read_matrix_document"),
    "covgen": ("generate",),
    "decouple": (
        "from_covariance", "region_of", "simultaneous_diagonalization", "admissible_region",
        "analyze", "q_new", "q_old", "optimal_beta_bar", "det_identity_residual",
    ),
    "matcore": ("symmetrize", "sym_eigen", "jacobi_eigen", "cholesky", "lu_det"),
    "bounds": ("report", "dominance_profile", "taussky_test"),
    "verify": ("check_inequality", "marginal_pnorm", "mc_expectation"),
}

# Factorisations whose inputs are fingerprinted, for n^3 rates and for the
# share of calls that see a matrix not already factorised in the same op.
FACTORISATIONS = ("matcore.sym_eigen", "matcore.lu_det", "matcore.cholesky")

TRACED_NAMES = tuple(f"{m}.{f}" for m in MODULES for f in TRACED[m])


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op_id: str
    n: int = 0
    fingerprint: bytes = b""
    samples: int = 0


class Tracer:
    """Installs span-recording wrappers and removes them on ``close``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name in MODULES:
            module = importlib.import_module(f"gaussdec.{mod_name}")
            for fn_name in TRACED[mod_name]:
                original = getattr(module, fn_name)
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))

    def close(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        fingerprinted = name in FACTORISATIONS
        sampler = name == "verify.mc_expectation"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id)
            if fingerprinted:
                a = np.ascontiguousarray(args[0], dtype=float)
                span.n = a.shape[0]
                span.fingerprint = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
            elif sampler:
                span.samples = int(args[2] if len(args) > 2 else kwargs["samples"])
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def report(spans: list[Span], base_s: float, ops_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run.

    ``base_s`` is the traced wall time the spans were recorded in (ops plus
    input generation); module shares and the unwrapped remainder are
    fractions of it.  ``ops_s`` is the ops' part of it: the ``share.*``
    metrics count only spans inside ops (input generation runs under an op
    id ending in ``/inputs``) and are fractions of ``ops_s``.
    """
    own = self_times(spans)
    calls = {name: 0 for name in TRACED_NAMES}
    self_s = {name: 0.0 for name in TRACED_NAMES}
    n3 = {name: 0.0 for name in FACTORISATIONS}
    distinct: dict[str, set] = {name: set() for name in FACTORISATIONS}
    op_self = {name: 0.0 for name in TRACED_NAMES}
    op_incl = {name: 0.0 for name in TRACED_NAMES}
    samples = 0
    for s, t in zip(spans, own):
        calls[s.name] += 1
        self_s[s.name] += t
        if not s.op_id.endswith("/inputs"):
            op_self[s.name] += t
            op_incl[s.name] += s.end - s.start
        if s.name in n3:
            n3[s.name] += float(s.n) ** 3
            distinct[s.name].add((s.op_id, s.fingerprint))
        samples += s.samples

    out: dict[str, tuple[float, str]] = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    covered = 0.0
    for mod in MODULES:
        mod_self = sum(self_s[f"{mod}.{f}"] for f in TRACED[mod])
        covered += mod_self
        out[f"{mod}.self_frac"] = (mod_self / base_s, "1")
    out["unwrapped.self_frac"] = ((base_s - covered) / base_s, "1")
    for name in FACTORISATIONS:
        t = self_s[name]
        out[f"{name}.n3_per_s"] = (n3[name] / t if t > 0 else 0.0, "n3/s")
        out[f"{name}.useful_frac"] = (
            len(distinct[name]) / calls[name] if calls[name] else 0.0,
            "1",
        )
    mc = self_s["verify.mc_expectation"]
    out["verify.mc_expectation.samples_per_s"] = (samples / mc if mc > 0 else 0.0, "sample/s")
    # Shares of the ops' traced wall time named by the workload rationale.
    # SimDiag has no span of its own: its assembly sits in the self time of
    # the decouple function that first needed it (analyze or region_of on
    # the CLI's routes), so that share is an upper bound.
    eigen_simdiag = sum(op_self[f"matcore.{f}"] for f in ("sym_eigen", "cholesky")) + sum(
        op_self[f"decouple.{f}"] for f in ("region_of", "simultaneous_diagonalization", "analyze")
    )
    out["share.eigen_simdiag_frac"] = (eigen_simdiag / ops_s, "1")
    per_p = sum(
        op_incl[f"decouple.{f}"]
        for f in ("q_new", "q_old", "optimal_beta_bar", "det_identity_residual")
    )
    out["share.per_p_frac"] = (per_p / ops_s, "1")
    out["share.mc_sampler_frac"] = (op_self["verify.mc_expectation"] / ops_s, "1")
    return out
