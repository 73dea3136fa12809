"""Independent reference checks of gaussdec CLI outputs.

Nothing here imports gaussdec.  Every quantity is recomputed from the input
matrix with numpy and scipy and compared in log space, with an allowance for
the conditioning of the quantity:

* breakpoints against ``eigvalsh`` of the correlation matrix
  K = diag(1/sigma) C diag(1/sigma);
* q_new and q_old against their closed forms, with ``slogdet``;
* the determinant of p*diag(gamma) - C against ``slogdet``, and the
  Ostrowski and cornerstone bounds against it (each must be <= |det|);
* the Taussky verdict against ``scipy.sparse.csgraph`` strong components;
* the ``verify`` right-hand side against closed-form marginal norms from
  ``scipy.special``, and ``passed`` against the exit code.

A value that is missing, zero or non-finite where the reference is finite
and nonzero is a failure.  Each check returns None when the output is right,
or a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special
from scipy.sparse import csgraph

EXIT_OK = 0
EXIT_CHECK_FAILED = 4

# The program's own membership margin and breakpoint-collapse tolerance are
# 1e-9 and 1e-10 (relative); inside AMBIGUOUS of a decision boundary either
# answer is accepted.
AMBIGUOUS = 1e-8
# Assumed relative accuracy of eigenvalues from the program's solver.
EIG_ACCURACY = 1e-9
LOG_RTOL = 1e-8
# Worst log error of 64-node Gauss-Hermite on |t|^a exp(-t^2) when a is not
# an even integer, over the exponents the monte-carlo workload draws.
GAUSS_HERMITE_ALLOWANCE = 5e-3


class Reference:
    """Reference quantities of one covariance matrix."""

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.shape[0]
        self.gamma = np.diag(self.c).copy()
        self.sigma = np.sqrt(self.gamma)
        k = self.c / np.outer(self.sigma, self.sigma)
        self.lam = np.linalg.eigvalsh((k + k.T) / 2.0)  # ascending; the breakpoints
        mu = np.linalg.eigvalsh(self.c)
        self.cond_c = float(mu[-1] / mu[0])
        sign, self.logdet_c = np.linalg.slogdet(self.c)
        if sign <= 0:
            raise ValueError("reference covariance is not positive definite")
        self.p_of_x = float(np.max(np.sum(np.abs(self.c), axis=1) / self.gamma))
        self.var_ratio = float(np.max(self.gamma) / np.min(self.gamma))
        self.floor = max(self.var_ratio, 1.0 + 1e-6)
        self.log_prod_sigma = float(np.sum(np.log(self.sigma)))

    @property
    def lam_max(self) -> float:
        return float(self.lam[-1])

    def near_breakpoint(self, p: float) -> bool:
        gap = float(np.min(np.abs(p - self.lam)))
        return gap <= AMBIGUOUS * max(1.0, p) + EIG_ACCURACY * self.lam_max

    def in_region(self, p: float) -> bool:
        return p > 1.0 and int(np.sum(self.lam > p)) % 2 == 0

    def breakpoint_amplification(self, p: float) -> float:
        """sum_j (eigenvalue error) / |p - lambda_j|: the log error of
        prod |1 - lambda_j / p| caused by eigenvalue errors."""
        return float(np.sum(EIG_ACCURACY * self.lam_max / np.abs(p - self.lam)))

    def log_q_new(self, p: float) -> float:
        log_factor = float(np.sum(np.log(np.abs(1.0 - self.lam / p))))
        return self.log_prod_sigma / p - self.logdet_c / (2.0 * p) - 0.5 * (1.0 - 1.0 / p) * log_factor

    def log_q_old(self, p: float, bb: float) -> float:
        return (
            self.log_prod_sigma / p
            - (self.n / 2.0) * (1.0 - 1.0 / p) * math.log1p(-1.0 / bb)
            - self.logdet_c / (2.0 * p)
        )

    def q_new_tol(self, p: float, value: float) -> float:
        det_err = 1e-12 * self.n * self.cond_c / (2.0 * p)
        return LOG_RTOL * (1.0 + abs(value)) + det_err + 0.5 * self.breakpoint_amplification(p)

    def q_old_tol(self, p: float, bb: float, value: float) -> float:
        beta_err = (self.n / 2.0) * 1e-15 / max(bb - 1.0, 1e-300)
        return LOG_RTOL * (1.0 + abs(value)) + 1e-12 * self.n * self.cond_c / (2.0 * p) + beta_err

    def shifted(self, p: float) -> np.ndarray:
        return np.diag(p * self.gamma) - self.c

    def shifted_condition(self, p: float) -> float:
        gaps = np.abs(p - self.lam)
        return float(np.max(gaps) / np.min(gaps)) * self.var_ratio

    def residual_tol(self, p: float) -> float:
        return 1e-8 + 1e-13 * self.n * self.shifted_condition(p) + self.breakpoint_amplification(p)

    def optimal_beta_bar(self, p: float) -> float | None:
        """p / p(X) when it clears the floor; None when no valid choice exists."""
        cap = p / self.p_of_x
        return cap if cap >= self.floor else None

    def near_optimal_floor(self, p: float) -> bool:
        return abs(p / self.p_of_x - self.floor) <= AMBIGUOUS * self.floor

    def fixed_beta_bar(self, beta: float) -> float | None:
        bb = max(self.var_ratio, float(beta))
        return bb if bb > 1.0 else None


# --------------------------------------------------------------------------
# comparison helpers


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _log_mismatch(name: str, value, ref_log: float, tol: float) -> str | None:
    """Compare a positive output value with a reference given as its log."""
    if not _is_number(value):
        return f"{name} is {value!r}; reference exp({ref_log:.10g})"
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        return f"{name} = {value!r} where the reference is exp({ref_log:.10g})"
    if abs(math.log(value) - ref_log) > tol:
        return f"{name} = {value!r}: log {math.log(value):.12g} vs reference {ref_log:.12g} (tol {tol:.2g})"
    return None


def _rel_mismatch(name: str, value, ref: float, rtol: float) -> str | None:
    if not _is_number(value) or not math.isfinite(float(value)):
        return f"{name} is {value!r}; reference {ref!r}"
    if abs(float(value) - ref) > rtol * max(1.0, abs(ref)):
        return f"{name} = {value!r} vs reference {ref!r}"
    return None


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def _check_q_new(ref: Reference, p: float, in_region, q) -> str | None:
    if ref.near_breakpoint(p):
        # Either membership is acceptable here; an answer given must be a number.
        if in_region and not (_is_number(q) and math.isfinite(float(q)) and float(q) > 0.0):
            return f"q_new={q!r} at p={p!r} next to a breakpoint"
        return None
    expected = ref.in_region(p)
    if bool(in_region) != expected:
        return f"in_region={in_region} at p={p!r}; reference {expected}"
    if not expected:
        return None if q is None else f"q_new={q!r} outside the region"
    log_q = ref.log_q_new(p)
    return _log_mismatch("q_new", q, log_q, ref.q_new_tol(p, log_q))


def _check_q_old(ref: Reference, p: float, bb, bb_expected, ok, q, ambiguous: bool) -> str | None:
    if ambiguous:
        if not ok:
            return None
        if not _is_number(bb):
            return f"q_old given without a valid beta_bar {bb!r}"
        log_q = ref.log_q_old(p, float(bb))
        return _log_mismatch("q_old", q, log_q, ref.q_old_tol(p, float(bb), log_q))
    expected_ok = bb_expected is not None and p >= bb_expected * ref.p_of_x
    if bool(ok) != expected_ok:
        return f"classical route {ok} at p={p!r}; reference {expected_ok}"
    if not expected_ok:
        return None if q is None else f"q_old={q!r} below the classical threshold"
    log_q = ref.log_q_old(p, bb_expected)
    return _log_mismatch("q_old", q, log_q, ref.q_old_tol(p, bb_expected, log_q))


def _check_residual(ref: Reference, p: float, value) -> str | None:
    if not _is_number(value) or not math.isfinite(float(value)) or float(value) < 0.0:
        return f"identity residual is {value!r} at p={p!r}; the identity is exact"
    tol = ref.residual_tol(p)
    if float(value) > tol:
        return f"identity residual {value!r} at p={p!r} exceeds {tol:.2g}"
    return None


# --------------------------------------------------------------------------
# analyze


def check_analyze(c, p: float, beta: float | None, text: str) -> str | None:
    """``analyze --p P --beta B`` (beta given) or ``--optimal-beta`` (beta None)."""
    ref = Reference(c)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"analyze output is not JSON: {exc}"
    if doc.get("p") != p:
        return f"p echoed as {doc.get('p')!r}, asked {p!r}"
    bad = _rel_mismatch("p_of_X", doc.get("p_of_X"), ref.p_of_x, 1e-12)
    if bad:
        return bad
    if beta is None:
        bb_expected = ref.optimal_beta_bar(p)
        ambiguous = ref.near_optimal_floor(p)
    else:
        bb_expected = ref.fixed_beta_bar(beta)
        ambiguous = False
    bb = doc.get("beta_bar")
    if not ambiguous:
        if bb_expected is None and bb is not None:
            return f"beta_bar={bb!r}; reference: no valid beta_bar"
        if bb_expected is not None:
            bad = _rel_mismatch("beta_bar", bb, bb_expected, 1e-12)
            if bad:
                return bad
    threshold_amb = (
        bb_expected is not None
        and abs(p - bb_expected * ref.p_of_x) <= AMBIGUOUS * p
    )
    q_old = doc.get("q_old")
    bpd_expected = p > ref.lam_max
    bpd_ambiguous = abs(p - ref.lam_max) <= AMBIGUOUS * max(1.0, p) + EIG_ACCURACY * ref.lam_max
    return _first(
        _check_q_new(ref, p, doc.get("in_region"), doc.get("q_new")),
        _check_q_old(ref, p, bb, bb_expected, q_old is not None, q_old, ambiguous or threshold_amb),
        None
        if bpd_ambiguous or doc.get("b_positive_definite") == bpd_expected
        else f"b_positive_definite={doc.get('b_positive_definite')!r}; reference {bpd_expected}",
        _check_residual(ref, p, doc.get("identity_residual")),
    )


# --------------------------------------------------------------------------
# region


def _check_intervals(ref: Reference, intervals: list[tuple[float, float, bool]], rtol: float) -> str | None:
    if not intervals:
        return "no intervals"
    if intervals[0][0] != 1.0 or not math.isinf(intervals[-1][1]):
        return f"intervals do not span (1, inf): {intervals[0][0]!r} .. {intervals[-1][1]!r}"
    tol = EIG_ACCURACY * ref.lam_max
    for (lo, hi, _), (lo2, _, _) in zip(intervals, intervals[1:]):
        if not lo < hi or hi != lo2:
            return f"intervals not contiguous and ascending at {hi!r}"
    ends = np.array([iv[1] for iv in intervals[:-1]])
    above = ref.lam[ref.lam > 1.0 + tol]
    for e in ends:
        if not np.any(np.abs(ref.lam - e) <= tol + rtol * e):
            return f"interval endpoint {e!r} is not a reference breakpoint"
    for lam in above:
        if not np.any(np.abs(ends - lam) <= tol + rtol * lam):
            return f"reference breakpoint {lam!r} missing from the intervals"
    for lo, hi, admissible in intervals:
        probe = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
        if math.isfinite(hi) and hi - lo <= 2.0 * (tol + rtol * hi):
            continue  # a sliver between near-coincident breakpoints
        expected = int(np.sum(ref.lam > probe)) % 2 == 0
        if admissible != expected:
            return f"interval ({lo!r}, {hi!r}) admissible={admissible}; reference {expected}"
    return None


def check_region_json(c, text: str) -> str | None:
    ref = Reference(c)
    try:
        doc = json.loads(text)
        bps = [float(b) for b in doc["breakpoints"]]
        intervals = [
            (float(iv["lo"]), math.inf if iv["hi"] == "inf" else float(iv["hi"]), iv["admissible"])
            for iv in doc["intervals"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed region JSON: {exc}"
    if len(bps) != ref.n:
        return f"{len(bps)} breakpoints for n={ref.n}"
    if not all(np.isfinite(bps)):
        return f"non-finite breakpoint in {bps[:3]}..."
    worst = float(np.max(np.abs(np.array(bps) - ref.lam[::-1])))
    if worst > EIG_ACCURACY * ref.lam_max:
        return f"breakpoints off the correlation eigenvalues by {worst:.3g}"
    return _check_intervals(ref, intervals, 0.0)


def check_region_text(c, text: str) -> str | None:
    ref = Reference(c)
    intervals = []
    for line in text.splitlines():
        try:
            span, verdict = line.rsplit(" ", 1)
            lo, hi = span.strip("()").split(", ")
            intervals.append((float(lo), float(hi), {"admissible": True, "excluded": False}[verdict]))
        except (ValueError, KeyError):
            return f"malformed region line {line!r}"
    # Text endpoints carry 12 significant digits.
    return _check_intervals(ref, intervals, 1e-11)


# --------------------------------------------------------------------------
# bounds


def _strongly_connected(m: np.ndarray) -> bool:
    pattern = (m != 0.0).astype(np.int8)
    np.fill_diagonal(pattern, 0)
    count, _ = csgraph.connected_components(pattern, directed=True, connection="strong")
    return count == 1


def check_bounds(c, p: float, beta: float, text: str) -> str | None:
    ref = Reference(c)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"bounds output is not JSON: {exc}"
    m = ref.shifted(p)
    sign, logdet = np.linalg.slogdet(m)
    diag = np.abs(np.diag(m))
    off = np.sum(np.abs(m - np.diag(np.diag(m))), axis=1)
    slack = diag - off
    tie = np.abs(slack) <= 1e-12 * diag
    strict = bool(np.all(slack > 0))
    det_tol = 1e-8 + 1e-13 * ref.n * ref.shifted_condition(p) + ref.breakpoint_amplification(p)

    if not np.any(tie) and doc.get("strictly_dominant") != strict:
        return f"strictly_dominant={doc.get('strictly_dominant')!r}; reference {strict}"
    actual = doc.get("actual_det")
    if not _is_number(actual) or not math.isfinite(float(actual)) or float(actual) == 0.0:
        return f"actual_det = {actual!r} where the reference is {'-' if sign < 0 else ''}exp({logdet:.10g})"
    if not ref.near_breakpoint(p) and math.copysign(1.0, float(actual)) != sign:
        return f"actual_det sign {actual!r}; reference sign {sign:+.0f}"
    bad = _log_mismatch("|actual_det|", abs(float(actual)), logdet, det_tol)
    if bad:
        return bad

    ost = doc.get("ostrowski_bound")
    if not np.any(tie):
        if strict != (ost is not None):
            return f"ostrowski_bound={ost!r} with strict dominance {strict}"
    if ost is not None:
        log_ost = float(np.sum(np.log(slack))) if strict else -math.inf
        bad = _log_mismatch("ostrowski_bound", ost, log_ost, LOG_RTOL * (1.0 + abs(log_ost)) + 1e-10 * ref.n)
        if bad:
            return bad
        if math.log(float(ost)) > logdet + det_tol:
            return f"ostrowski_bound {ost!r} exceeds |det| = exp({logdet:.10g})"

    bb = ref.fixed_beta_bar(beta)
    corner = doc.get("cornerstone_bound")
    if bb is not None and abs(p - bb * ref.p_of_x) > AMBIGUOUS * p:
        expected = p >= bb * ref.p_of_x
        if expected != (corner is not None):
            return f"cornerstone_bound={corner!r}; reference applicable={expected}"
    if corner is not None:
        if bb is None:
            return f"cornerstone_bound={corner!r} without a valid beta_bar"
        log_corner = ref.n * (math.log(p) + math.log1p(-1.0 / bb)) + float(np.sum(np.log(ref.gamma)))
        bad = _log_mismatch("cornerstone_bound", corner, log_corner, LOG_RTOL * (1.0 + abs(log_corner)))
        if bad:
            return bad
        if log_corner > logdet + det_tol:
            return f"cornerstone_bound exceeds |det| = exp({logdet:.10g})"

    weak = bool(np.all(slack >= 0))
    verdict = (
        "NonsingularByTaussky"
        if _strongly_connected(m) and weak and np.any(slack > 0)
        else "NotApplicable"
    )
    if not np.any(tie) and doc.get("taussky_verdict") != verdict:
        return f"taussky_verdict={doc.get('taussky_verdict')!r}; reference {verdict}"
    return None


# --------------------------------------------------------------------------
# verify


def log_marginal_norm(fn: dict, sigma: float, p: float) -> tuple[float, float]:
    """(log ||f(sigma Z)||_p, allowance for the program's quadrature)."""
    kind = fn["kind"]
    if kind == "indicator":
        a = -math.inf if fn["a"] == "-inf" else float(fn["a"])
        b = math.inf if fn["b"] == "inf" else float(fn["b"])
        mass = special.ndtr(b / sigma) - special.ndtr(a / sigma)
        return math.log(mass) / p, 1e-10
    k = int(fn.get("k", 0))
    s = float(fn["s"])
    # E |sigma Z|^(kp) exp(-p sigma^2 Z^2 / s)
    #   = sigma^(kp) Gamma((kp+1)/2) (1/2 + p sigma^2/s)^(-(kp+1)/2) / sqrt(2 pi)
    a = k * p
    alpha = 0.5 + p * sigma * sigma / s
    log_moment = (
        a * math.log(sigma) if a else 0.0
    ) + special.gammaln((a + 1.0) / 2.0) - ((a + 1.0) / 2.0) * math.log(alpha) - 0.5 * math.log(2.0 * math.pi)
    exact = k == 0 or (float(a).is_integer() and int(a) % 2 == 0 and a < 128)
    return log_moment / p, 1e-12 if exact else GAUSS_HERMITE_ALLOWANCE


def check_verify(c, p: float, constant: str, functions: list[dict], rc: int, text: str) -> str | None:
    ref = Reference(c)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"verify output is not JSON: {exc}"
    passed = doc.get("passed")
    if rc not in (EXIT_OK, EXIT_CHECK_FAILED) or (rc == EXIT_OK) != (passed is True):
        return f"exit code {rc} with passed={passed!r}"
    lhs, stderr, rhs = doc.get("lhs_estimate"), doc.get("lhs_stderr"), doc.get("rhs_bound")
    for name, v in (("lhs_estimate", lhs), ("lhs_stderr", stderr)):
        if not _is_number(v) or not math.isfinite(float(v)) or float(v) < 0.0:
            return f"{name} = {v!r}"
    if constant == "new":
        log_q = ref.log_q_new(p)
        tol = ref.q_new_tol(p, log_q)
    else:
        bb = ref.optimal_beta_bar(p)
        if bb is None:
            return f"p={p!r} is below the classical threshold; the workload never draws that"
        log_q = ref.log_q_old(p, bb)
        tol = ref.q_old_tol(p, bb, log_q)
    log_rhs = log_q
    for fn, sigma in zip(functions, ref.sigma):
        log_norm, allowance = log_marginal_norm(fn, float(sigma), p)
        log_rhs += log_norm
        tol += allowance
    bad = _log_mismatch("rhs_bound", rhs, log_rhs, tol + LOG_RTOL * abs(log_rhs))
    if bad:
        return bad
    if passed != (float(lhs) <= float(rhs) + 3.0 * float(stderr)):
        return f"passed={passed!r} disagrees with lhs {lhs!r}, rhs {rhs!r}, stderr {stderr!r}"
    return None
