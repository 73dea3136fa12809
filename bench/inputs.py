"""Seeded inputs for the benchmark workloads.

An op is one ``gaussdec`` CLI invocation.  Ops come in blocks.  Every block
covers the range of n with the same sizes (a log- or linearly spaced design,
jittered slightly by the seed) and spreads each command, family and route
evenly over them in the same layout, so blocks cost about the same and a
run sees the same mix whatever the seed and however many blocks it runs.
The seed picks every other parameter.  Inputs are never re-drawn: the
ranges are chosen so that the program answers every op (see FRESH_N).

A block is made in two stages.  ``write_documents`` draws the families and
writes the matrix documents, with matrices generated by ``gaussdec.covgen``
(the program's own generator); that is the set-up the benchmark times.
``make_block`` then draws each op's exponent and seed, which needs the
reference spectrum of each matrix, writes the ``verify`` test functions,
which depend on the exponent, and builds the ops.  Matrices are kept in
memory as the exact float64 arrays the program will read, for the checker.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gaussdec import covgen

WORKLOADS = ("fresh-matrix", "monte-carlo")

FRESH_VARIANTS = ("analyze", "analyze-optimal", "region-text", "region-json", "bounds")
FRESH_FAMILIES = ("ar1", "equicorrelated", "toeplitz", "randomspd", "scaled")
# The base of a Scaled family follows the size slot, so every block generates
# the same number of RandomSPD matrices at each size.
SCALED_BASES = ("ar1", "equicorrelated", "toeplitz", "randomspd")
FRESH_SIZES = 8
# The program forms det(C), prod(gamma_i), p^n and det(p*diag(gamma) - C) in
# linear space, and at the commit this benchmark was introduced with it fails
# once one of them leaves float64's range (about e^709): an uncaught
# OverflowError, q_new = 0.0 or an infinite determinant.  Below p(X),
# `analyze --optimal-beta` can also loop forever in optimal_beta_bar.  The
# workload keeps to inputs the program answers: n up to 64, p capped so that
# each of those products stays within e^LOG_RANGE, and `--optimal-beta` with
# p above p(X).  RandomSPD matrices from covgen have variances near n, so
# prod(gamma_i) alone nears e^709 from n = 130, and with p above p(X) the
# shifted determinant leaves e^LOG_RANGE from about n = 80.
FRESH_N = (20, 64)
LOG_RANGE = 600.0

# Cost grows linearly with n and sizes are far apart, so an odd count puts
# the median op among the middle size's ops instead of in the gap between two.
MC_SIZES = 9
MC_N = (2, 50)
MC_FUNCTION_KINDS = ("indicator", "gaussbump", "polygauss")

# Sizes drive cost (n^2.6 for the eigensolvers), so every block uses the same
# sizes, jittered by this much; the seed picks everything else.
SIZE_JITTER = 0.03

# Per-op deadline: DEADLINE_FACTOR times the op's predicted cost, never below
# DEADLINE_MIN_S.  The cost model below was fitted to single-threaded runs of
# the code this benchmark was introduced with, on a 2-core x86-64 machine.
DEADLINE_FACTOR = 5.0
DEADLINE_MIN_S = 0.5


@dataclass
class Doc:
    """One generated covariance document and the slot it fills."""

    variant: str  # fresh-matrix command variant, or the verify constant
    slot: int  # index of the size in the block's design
    family: dict
    c: np.ndarray
    matrix: Path


@dataclass
class Op:
    """One CLI invocation plus what the checker needs to judge its output."""

    workload: str
    block: int
    index: int
    kind: str
    argv: list[str]
    output: Path
    label: str
    cost_s: float
    context: dict = field(default_factory=dict)

    @property
    def deadline_s(self) -> float:
        return max(DEADLINE_MIN_S, DEADLINE_FACTOR * self.cost_s)

    @property
    def op_id(self) -> str:
        return f"{self.workload}/{self.block}/{self.index}"


def block_rng(workload: str, seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(block)])


def write_documents(workload: str, seed: int, block: int, workdir: Path):
    """Draw one block's families, generate their matrices with covgen and
    write the input documents.  Returns (the block's rng, its documents)."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = block_rng(workload, seed, block)
    if workload == "fresh-matrix":
        plan = _fresh_plan(rng)
    elif workload == "monte-carlo":
        plan = _mc_plan(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    docs = []
    for i, (variant, slot, fam) in enumerate(plan):
        c = covgen.generate(covgen.family_from_json(fam))
        path = workdir / f"op{i}-matrix.json"
        _write_json(path, {"n": int(c.shape[0]), "rows": c.tolist()})
        docs.append(Doc(variant, slot, fam, c, path))
    return rng, docs


def make_block(workload: str, seed: int, block: int, workdir: Path) -> list[Op]:
    """Generate, write and return the ops of one block of a workload."""
    rng, docs = write_documents(workload, seed, block, workdir)
    make_op = _fresh_op if workload == "fresh-matrix" else _mc_op
    ops = [make_op(rng, block, i, doc, workdir) for i, doc in enumerate(docs)]
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    for i, op in enumerate(ops):
        op.index = i
    return ops


# --------------------------------------------------------------------------
# helpers


def _design_size(rng, lo: int, hi: int, slot: int, slots: int, log: bool) -> int:
    """The slot-th of `slots` sizes spread over [lo, hi] (log- or linearly
    spaced, both ends included), jittered by +-SIZE_JITTER."""
    u = slot / (slots - 1)
    center = lo * (hi / lo) ** u if log else lo + u * (hi - lo)
    n = int(round(center * (1.0 + SIZE_JITTER * float(rng.uniform(-1.0, 1.0)))))
    return min(hi, max(lo, n))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _p_of_x(c: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(c), axis=1) / np.diag(c)))


def _corr_max_eig(c: np.ndarray) -> float:
    s = np.sqrt(np.diag(c))
    return float(np.linalg.eigvalsh(c / np.outer(s, s))[-1])


def _family_doc(rng, kind: str, n: int, slot: int) -> dict:
    """A covgen family descriptor of the given kind and dimension."""
    if kind == "ar1":
        return {"kind": "ar1", "n": n, "rho": round(float(rng.uniform(0.1, 0.9)), 6)}
    if kind == "equicorrelated":
        return {"kind": "equicorrelated", "n": n, "rho": round(float(rng.uniform(0.05, 0.9)), 6)}
    if kind == "toeplitz":
        # r^k cos(w k) has a positive spectral density (a sum of two Poisson
        # kernels), so every finite section is SPD with cond <= ((1+r)/(1-r))^2.
        r = float(rng.uniform(0.3, 0.9))
        w = float(rng.uniform(0.0, math.pi))
        return {"kind": "toeplitz", "first_row": [r**k * math.cos(w * k) for k in range(n)]}
    if kind == "randomspd":
        return {
            "kind": "randomspd",
            "n": n,
            "seed": int(rng.integers(0, 2**31)),
            "cond": round(_log_uniform(rng, 10.0, 1e3), 6),
        }
    if kind == "scaled":
        return {
            "kind": "scaled",
            "base": _family_doc(rng, SCALED_BASES[slot % len(SCALED_BASES)], n, slot),
            "variances": [_log_uniform(rng, 0.1, 10.0) for _ in range(n)],
        }
    raise ValueError(f"unknown family kind {kind!r}")


def describe_family(doc: dict) -> str:
    """Short human-readable form of a family descriptor (lists summarised)."""
    kind = doc["kind"]
    if kind == "toeplitz":
        row = doc["first_row"]
        return f"toeplitz(n={len(row)}, r={row[1] if len(row) > 1 else 0:.4g}...)"
    if kind == "scaled":
        return f"scaled({describe_family(doc['base'])}, {len(doc['variances'])} variances)"
    args = ", ".join(f"{k}={v}" for k, v in doc.items() if k != "kind")
    return f"{kind}({args})"


# --------------------------------------------------------------------------
# fresh-matrix: one command per new covariance document


def fresh_cost_s(n: int) -> float:
    """Predicted seconds of one fresh-matrix op (two sym_eigen calls dominate)."""
    return 0.02 + 1.6 * (n / 200.0) ** 2.6


def _fresh_plan(rng) -> list:
    plan = []
    for v, variant in enumerate(FRESH_VARIANTS):
        for s in range(FRESH_SIZES):
            n = _design_size(rng, *FRESH_N, s, FRESH_SIZES, log=True)
            fam = _family_doc(rng, FRESH_FAMILIES[(s + v) % len(FRESH_FAMILIES)], n, s)
            plan.append((variant, s, fam))
    return plan


def _det_log_cap(c: np.ndarray) -> float:
    """log of the largest p at which every product the program forms in
    linear space stays within e^LOG_RANGE.  Raises when the matrix alone
    leaves that range: the size design rules this out."""
    n = c.shape[0]
    log_gamma = float(np.sum(np.log(np.diag(c))))
    log_det = float(np.linalg.slogdet(c)[1])
    if max(abs(log_gamma), abs(log_det)) > LOG_RANGE:
        raise RuntimeError(f"n={n}: det(C) or prod(gamma) outside e^+-{LOG_RANGE:g}")
    return (LOG_RANGE - max(log_gamma, 0.0)) / n


def _fresh_op(rng, block: int, i: int, doc: Doc, workdir: Path) -> Op:
    c, variant = doc.c, doc.variant
    px = _p_of_x(c)
    hi = min(10.0 * max(px, _corr_max_eig(c)), math.exp(_det_log_cap(c)))
    if variant != "analyze-optimal":
        p = 1.0 + _log_uniform(rng, 0.02, hi - 1.0)
    else:
        # 1% above p(X), so that the program's own p(X) is below p too.
        if hi < 1.02 * px:
            raise RuntimeError(f"n={c.shape[0]}: no p above p(X) keeps det in range")
        p = px * _log_uniform(rng, 1.01, hi / px)
    beta = round(float(rng.uniform(1.2, 3.0)), 3)
    mpath = str(doc.matrix)
    out = workdir / f"op{i}-out"
    argv = {
        "analyze": ["analyze", "--input", mpath, "--p", repr(p), "--beta", repr(beta)],
        "analyze-optimal": ["analyze", "--input", mpath, "--p", repr(p), "--optimal-beta"],
        "region-text": ["region", "--input", mpath, "--format", "text"],
        "region-json": ["region", "--input", mpath, "--format", "json"],
        "bounds": ["bounds", "--input", mpath, "--p", repr(p), "--beta", repr(beta)],
    }[variant]
    label = f"{variant} {describe_family(doc.family)}"
    if variant not in ("region-text", "region-json"):
        label += f" p={p!r}" + ("" if variant == "analyze-optimal" else f" beta={beta}")
    return Op(
        workload="fresh-matrix",
        block=block,
        index=i,
        kind=variant,
        argv=argv + ["--output", str(out)],
        output=out,
        label=label,
        cost_s=fresh_cost_s(c.shape[0]),
        context={"c": c, "p": p, "beta": beta},
    )


# --------------------------------------------------------------------------
# monte-carlo: one verify per op, CLI default of 1e6 samples


def mc_cost_s(n: int) -> float:
    """Predicted seconds of one verify (the sampler dominates, linear in n)."""
    return 0.1 + 0.035 * n


# verify's 64-node Gauss-Hermite rule integrates |t|^(k p) exp(-t^2) to within
# 1e-8 up to k*p = 150 and loses digits fast beyond it (at k*p = 367 the
# program's rhs_bound came out 20% low), so a polygauss takes k <= KP_MAX / p.
KP_MAX = 150.0


def _test_function(rng, p: float) -> dict:
    kind = MC_FUNCTION_KINDS[int(rng.integers(len(MC_FUNCTION_KINDS)))]
    if kind == "indicator":
        a = "-inf" if rng.random() < 0.5 else round(float(rng.uniform(-1.5, 0.0)), 4)
        b = "inf" if rng.random() < 0.5 else round(float(rng.uniform(0.1, 1.5)), 4)
        return {"kind": "indicator", "a": a, "b": b}
    if kind == "gaussbump":
        return {"kind": "gaussbump", "s": round(float(rng.uniform(0.5, 4.0)), 4)}
    k = int(rng.integers(0, 1 + min(2, int(KP_MAX // p))))
    return {"kind": "polygauss", "k": k, "s": round(float(rng.uniform(0.5, 4.0)), 4)}


def _mc_plan(rng) -> list:
    plan = []
    for s in range(MC_SIZES):
        n = _design_size(rng, *MC_N, s, MC_SIZES, log=False)
        fam = _family_doc(rng, FRESH_FAMILIES[s % len(FRESH_FAMILIES)], n, s)
        plan.append((("new", "old")[s % 2], s, fam))
    return plan


def _mc_op(rng, block: int, i: int, doc: Doc, workdir: Path) -> Op:
    c, constant = doc.c, doc.variant
    # p is drawn inside the constant's admissible set, so that every op
    # reaches the sampler: above the top breakpoint for q_new, above the
    # classical threshold for q_old.
    if constant == "new":
        p = _corr_max_eig(c) * float(rng.uniform(1.2, 3.0))
    else:
        gamma = np.diag(c)
        floor = max(float(np.max(gamma) / np.min(gamma)), 1.0 + 1e-6)
        p = floor * _p_of_x(c) * float(rng.uniform(1.2, 3.0))
    mc_seed = int(rng.integers(0, 2**31))
    functions = [_test_function(rng, p) for _ in range(c.shape[0])]
    fns_path = workdir / f"op{i}-fns.json"
    _write_json(fns_path, functions)
    out = workdir / f"op{i}-out.json"
    argv = [
        "verify", "--input", str(doc.matrix), "--p", repr(p),
        "--functions", str(fns_path),
        "--constant", constant, "--seed", str(mc_seed), "--output", str(out),
    ]
    return Op(
        workload="monte-carlo",
        block=block,
        index=i,
        kind=f"verify-{constant}",
        argv=argv,
        output=out,
        label=f"verify --constant {constant} {describe_family(doc.family)} p={p!r} seed={mc_seed}",
        cost_s=mc_cost_s(c.shape[0]),
        context={"c": c, "p": p, "constant": constant, "functions": functions},
    )
