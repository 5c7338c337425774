"""Output checks for every benchmark operation, and the oracle check on a
small companion instance.

Checks run outside the timed span.  Each returns a list of problems; an
empty list means the operation's output is correct.
"""

from __future__ import annotations

import math

import numpy as np

import score_kit as sk
from score_kit.core import ValidatedBatch

# The same one-sided relative guard as the test suite: a deployed e-value
# sits mathematically at exactly 1/level, so thresholded comparisons of
# independently computed values need it.
REL_GUARD = 1e-9
ORACLE_TOL = 1e-9
ORACLE_GRID = 101
# The oracles accept thresholds whose plug-in risk exceeds gamma by up to
# 1e-12 (score_kit.sdr._BOUNDARY_TOL); the library compares with no guard.
BOUNDARY_NUDGE = 1e-12


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def read_output(path, header):
    """Parse a CLI output CSV into a 2-d float array after checking its
    header; returns ``(array, problems)``."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first != ",".join(header):
        return None, [f"header {first!r}, expected {','.join(header)!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        return None, [f"{data.shape[1]} columns, expected {len(header)}"]
    return data, []


def check_rows(data, m, scores=None):
    """Row count, index order and echoed scores match the input."""
    if data.shape[0] != m:
        return [f"{data.shape[0]} rows, expected {m}"]
    problems = []
    if not np.array_equal(data[:, 0], np.arange(m)):
        problems.append("index column is not 0..m-1 in order")
    if scores is not None and not np.array_equal(data[:, 1], scores):
        problems.append("score column differs from the test input")
    return problems


def check_evalues(ev):
    problems = []
    if np.any(np.isnan(ev)):
        problems.append("nan e-value")
    if np.any(ev < 0.0):
        problems.append("negative e-value")
    return problems


def check_flags(flags, name):
    if not np.all((flags == 0.0) | (flags == 1.0)):
        return [f"{name} flag outside {{0, 1}}"]
    return []


def expected_selection(ev, alpha, boost, seed):
    """Selection the CLI must report, from the emitted e-values and the
    boost draws its seed gives."""
    rng = np.random.default_rng(seed)
    if boost == "none":
        res = sk.ebh(ev, alpha)
    elif boost == "hete":
        res = sk.boost_hete(ev, alpha, 1.0 - rng.uniform(size=ev.size))
    else:
        res = sk.boost_homo(ev, alpha, 1.0 - float(rng.uniform()))
    mask = np.zeros(ev.size)
    mask[list(res.selected)] = 1.0
    return mask


def check_metrics_rows(rows, config):
    """A ``run_experiment`` result: one row per level and method, in grid
    order, with finite values in range."""
    methods = [config.method] + [f"{config.method}_{b}" for b in config.baselines]
    expected = [(name, a) for name in methods for a in config.alpha_grid]
    got = [(r.method, r.alpha) for r in rows]
    if got != expected:
        return [f"rows {got[:3]}..., expected {expected[:3]}..."]
    problems = []
    for r in rows:
        values = (r.realized_risk, r.se_risk, r.mean_reward, r.mean_nsel, r.tdr)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite metric in row {r.method} {r.alpha}")
        elif not (0.0 <= r.realized_risk <= 1.0 and 0.0 <= r.mean_nsel <= config.m):
            problems.append(f"metric out of range in row {r.method} {r.alpha}")
    return problems


# ---------------------------------------------------------------------------
# Oracle check on a companion instance
# ---------------------------------------------------------------------------

def _agree(a, b):
    both_inf = np.isinf(a) & np.isinf(b)
    return bool(np.all(both_inf | np.isclose(a, b, rtol=ORACLE_TOL, atol=ORACLE_TOL)))


def _guarded_ebh(ev, alpha, guard):
    """eBH selection with every comparison ``e >= m / (alpha * tau)`` made as
    ``e * alpha * tau / m >= 1 - guard``."""
    m = ev.size
    ok = [tau for tau in range(1, m + 1) if np.sum(ev * alpha * tau / m >= 1.0 - guard) >= tau]
    tau = max(ok, default=0)
    if tau == 0:
        return np.zeros(m, dtype=bool)
    return ev * alpha * tau / m >= 1.0 - guard


def _sdr_disagrees(batch, alpha, gamma, lib_gamma):
    weighted = not batch.has_unit_weights
    lib = (sk.weighted_sdr_evalues if weighted else sk.sdr_evalues)(batch, None, gamma=lib_gamma)
    oracle = (sk.weighted_sdr_evalues_oracle if weighted else sk.sdr_evalues_oracle)(
        batch, None, gamma, ell_grid_size=ORACLE_GRID)
    if not _agree(lib.evalues, oracle.evalues):
        return True
    chosen = np.zeros(batch.m, dtype=bool)
    chosen[list(sk.ebh(lib.evalues, alpha).selected)] = True
    strict = _guarded_ebh(oracle.evalues, alpha, -REL_GUARD)
    loose = _guarded_ebh(oracle.evalues, alpha, REL_GUARD)
    return not (np.all(chosen >= strict) and np.all(chosen <= loose))


def _mdr_disagrees(batch, alpha, gamma, lib_gamma):
    # Nudge alpha along with gamma when they are equal, so the nudged run
    # stays on the gamma <= alpha path.
    levels = sk.Levels(alpha=lib_gamma if gamma == alpha else alpha, gamma=lib_gamma)
    mask = sk.deploy_mask(batch, levels)
    calib = list(zip(batch.calib_scores, batch.calib_risks, batch.calib_weights))
    for j in range(batch.m):
        if batch.has_unit_weights:
            e = sk.mdr_evalue_oracle(calib, float(batch.test_scores[j]), gamma,
                                     ell_grid_size=ORACLE_GRID)
        else:
            e = sk.weighted_mdr_evalue_oracle(
                calib, sk.TestPoint(batch.test_scores[j], batch.test_weights[j]), gamma,
                ell_grid_size=ORACLE_GRID)
        if bool(mask[j]) != bool(e * alpha >= 1.0 - REL_GUARD):
            return True
    return False


def oracle_check(kind, instance, alpha, gamma):
    """Compare the library with the brute-force oracle on a small instance.

    Returns ``"agree"``; ``"boundary"`` when the two disagree only because
    the library's feasibility comparison has no guard (the disagreement
    vanishes when the library runs at ``gamma * (1 + 1e-12)``, the tolerance
    the oracles apply); or ``"mismatch"`` for any other disagreement.
    """
    batch = ValidatedBatch(*instance)
    disagrees = _sdr_disagrees if kind == "sdr" else _mdr_disagrees
    if not disagrees(batch, alpha, gamma, gamma):
        return "agree"
    if not disagrees(batch, alpha, gamma, gamma * (1.0 + BOUNDARY_NUDGE)):
        return "boundary"
    return "mismatch"
