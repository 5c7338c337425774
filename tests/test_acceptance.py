"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete (they also appear in the failure report otherwise).

The heavy Monte-Carlo grids are shared through module-scoped fixtures; the
full module runs in a few minutes on a laptop-class machine.
"""

import zlib

import numpy as np
import pytest

import score_kit as sk
from score_kit.core import ValidatedBatch
from score_kit.mdr import _decide
from score_kit.sdr import _sdr_kernel
from helpers import (mc_bound_ok, random_mdr_instance, random_sdr_instance,
                     risk_evalue_products, thresholded)

GRID_ALPHAS = tuple(round(0.05 * k, 2) for k in range(1, 11))
DESK = dict(n=500, m=100, reps=100, train_size=1000, knn_k=25)


def _criterion(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _config(setting_id, **overrides):
    base = dict(
        setting=sk.DgpSetting(setting_id),
        risk=sk.canonical_risk(setting_id),
        reward=sk.RewardKind("constant"),
        shift=sk.ShiftModel("none"),
        alpha_grid=GRID_ALPHAS,
        method="mdr",
        seed=20_240_000 + setting_id,
        **DESK,
    )
    base.update(overrides)
    return sk.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Criterion 1: e-value validity, five constructions, 2,000 replicates each.
# ---------------------------------------------------------------------------

def _shifted_setup(rng, n, m, setting, shift):
    gen = lambda count, r: sk.generate_dataset(setting, count, r)
    calib_x, calib_y = gen(n, rng)
    test_x, test_y = sk.rejection_sample_shifted(gen, shift, m, rng)
    risk = sk.RiskKind("excess", c=2.0)
    score = lambda x: np.asarray(1.0 / (1.0 + np.exp(-(x[:, 0] + x[:, 1] + x[:, 3]))))
    return (score(calib_x), sk.risk_of(risk, 0.0, calib_y), sk.shift_weight(shift, calib_x),
            score(test_x), sk.risk_of(risk, 0.0, test_y), sk.shift_weight(shift, test_x))


def _exch_setup(rng, n, m, setting):
    gen = lambda count, r: sk.generate_dataset(setting, count, r)
    x, y = gen(n + m, rng)
    risk = sk.RiskKind("excess", c=2.0)
    s = np.asarray(1.0 / (1.0 + np.exp(-(x[:, 0] + x[:, 1] + x[:, 3]))))
    L = sk.risk_of(risk, 0.0, y)
    return s[:n], L[:n], s[n:], L[n:]


@pytest.mark.slow
def test_criterion_1_evalue_validity():
    n, m, reps, gamma = 200, 20, 2000, 0.2
    setting = sk.DgpSetting(2)
    shift = sk.ShiftModel("w1")
    rng = np.random.default_rng(101)
    ones_n, ones_m = np.ones(n), np.ones(m)
    sums = {k: [] for k in ("mdr", "sdr", "conservative", "wmdr", "wsdr")}

    # Each point's MDR e-value comes from one batch pass per replicate, with
    # the bits of one single-point kernel call per point
    # (test_mdr_batch_equals_one_point_kernel_calls).
    for _ in range(reps):
        cs, cl, ts, tl = _exch_setup(rng, n, m, setting)
        batch = ValidatedBatch(cs, cl, ones_n, ts, ones_m)
        sums["mdr"].append(risk_evalue_products(tl, _decide(batch, gamma, evalues=True)[2]).mean())
        sums["sdr"].append(risk_evalue_products(tl, _sdr_kernel(batch, gamma)[0]).mean())

        cons = sk.sdr_evalues_conservative(batch, None, alpha=gamma).evalues
        sums["conservative"].append(risk_evalue_products(tl, cons).mean())

        cs, cl, cw, ts, tl, tw = _shifted_setup(rng, n, m, setting, shift)
        batch = ValidatedBatch(cs, cl, cw, ts, tw)
        sums["wmdr"].append(risk_evalue_products(tl, _decide(batch, gamma, evalues=True)[2]).mean())
        sums["wsdr"].append(risk_evalue_products(tl, _sdr_kernel(batch, gamma)[0]).mean())

    details = []
    ok_all = True
    for name, vals in sums.items():
        ok, mean, se = mc_bound_ok(vals)
        ok_all = ok_all and ok
        details.append(f"{name}: {mean:.4f} (<= 1 + 3*{se:.4f})")
    _criterion(1, "e-value validity", ok_all, "; ".join(details))


# ---------------------------------------------------------------------------
# Criteria 2 and 3: realized risk control on the six-setting grid.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mdr_grid():
    return {s: sk.run_experiment(_config(s)) for s in range(1, 7)}


@pytest.fixture(scope="module")
def sdr_grids():
    return {(s, boost): sk.run_experiment(_config(s, method="sdr", boost=boost))
            for s in range(1, 7) for boost in ("none", "hete", "homo")}


@pytest.mark.slow
def test_criterion_2_mdr_control(mdr_grid):
    violations = []
    tight = 0
    for s, rows in mdr_grid.items():
        for r in rows:
            if r.realized_risk > r.alpha + 3.0 * r.se_risk:
                violations.append((s, r.alpha, r.realized_risk, r.se_risk))
            if r.alpha == 0.3 and r.realized_risk >= 0.2:
                tight += 1
    ok = not violations and tight >= 4
    _criterion(2, "realized MDR control",
               ok, f"violations={violations}; tight settings at 0.3: {tight}/6")


@pytest.mark.slow
def test_criterion_3_sdr_control(sdr_grids):
    violations = []
    superset_fails = []
    for (s, boost), rows in sdr_grids.items():
        for r in rows:
            if r.realized_risk > r.alpha + 3.0 * r.se_risk:
                violations.append((s, boost, r.alpha, r.realized_risk, r.se_risk))
    for s in range(1, 7):
        base = {r.alpha: r.mean_nsel for r in sdr_grids[(s, "none")]}
        for boost in ("hete", "homo"):
            for r in sdr_grids[(s, boost)]:
                if r.mean_nsel < base[r.alpha]:
                    superset_fails.append((s, boost, r.alpha))
    ok = not violations and not superset_fails
    _criterion(3, "realized SDR control + boosting supersets",
               ok, f"violations={violations}; superset fails={superset_fails}")


# ---------------------------------------------------------------------------
# Criterion 4: exact reductions.
# ---------------------------------------------------------------------------

def test_criterion_4a_shortcut_equals_oracle():
    rng = np.random.default_rng(104)
    mismatches = 0
    total = 0
    # 1,000 instances at matched levels plus 500 exercising the other regimes
    for trial in range(1500):
        calib, t = random_mdr_instance(rng, tied=trial % 5 == 0)
        alpha = float(rng.uniform(0.05, 0.95))
        gamma = alpha if trial < 1000 else (0.6 * alpha, min(0.99, 1.5 * alpha))[trial % 2]
        d = sk.mdr_decide(calib, t, sk.Levels(alpha=alpha, gamma=gamma))
        e = sk.mdr_evalue_oracle(calib, t, gamma, ell_grid_size=101)
        mismatches += d.deploy != thresholded(e, alpha)
        total += 1
    _criterion(4, "(a) marginal shortcut = thresholded oracle",
               mismatches == 0, f"{mismatches}/{total} mismatches")


def _agree(a, b, tol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_inf = np.isinf(a) & np.isinf(b)
    return bool(np.all(both_inf | np.isclose(a, b, rtol=tol, atol=tol)))


def test_criterion_4b_kernel_equals_oracle():
    rng = np.random.default_rng(105)
    bad = 0
    for trial in range(500):
        tied = trial % 2 == 0
        gamma = float(rng.uniform(0.05, 0.95))
        calib, tests = random_sdr_instance(rng, tied=tied)
        fast = sk.sdr_evalues(calib, tests, gamma).evalues
        slow = sk.sdr_evalues_oracle(calib, tests, gamma, ell_grid_size=101).evalues
        bad += not _agree(fast, slow)
        calib, tests = random_sdr_instance(rng, tied=tied, weighted=True)
        fast = sk.weighted_sdr_evalues(calib, tests, gamma).evalues
        slow = sk.weighted_sdr_evalues_oracle(calib, tests, gamma, ell_grid_size=101).evalues
        bad += not _agree(fast, slow)
    _criterion(4, "(b) selective kernels = grid oracles (1e-9)",
               bad == 0, f"{bad}/1000 instance checks disagreed")


def test_criterion_4c_binary_reduction_to_conformal_selection():
    rng = np.random.default_rng(106)
    bad = 0
    for _ in range(500):
        n = int(rng.integers(5, 60))
        m = int(rng.integers(2, 15))
        cs, ts = rng.normal(size=n), rng.normal(size=m)
        risks = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(float)
        alpha = float(rng.uniform(0.1, 0.9))
        e1 = sk.sdr_evalues_at(list(zip(cs, risks)), list(ts), gamma=alpha, ell=1.0)
        clipped = np.where(risks == 1.0, cs, np.inf)
        pv = sk.conformal_pvalues(clipped, ts)
        bad += sk.ebh(e1, alpha).selected != sk.bh(pv, alpha).selected
    _criterion(4, "(c) binary-risk eBH set = BH on conformal p-values",
               bad == 0, f"{bad}/500 set mismatches")


# ---------------------------------------------------------------------------
# Criterion 5: weighted procedures reduce and are scale invariant.
# ---------------------------------------------------------------------------

def test_criterion_5_weighted_reductions():
    rng = np.random.default_rng(107)
    worst_unit = 0.0
    worst_scale = 0.0
    decision_flips = 0
    for _ in range(200):
        calib, tests = random_sdr_instance(rng, max_n=20, max_m=10)
        gamma = float(rng.uniform(0.05, 0.95))
        plain = sk.sdr_evalues(calib, tests, gamma).evalues
        unit = sk.weighted_sdr_evalues([(s, r, 1.0) for s, r in calib],
                                       [(t, 1.0) for t in tests], gamma).evalues
        finite = ~(np.isinf(plain) & np.isinf(unit))
        if finite.any():
            worst_unit = max(worst_unit, float(np.max(np.abs(plain - unit)[finite])))

        wcalib, wtests = random_sdr_instance(rng, max_n=20, max_m=10, weighted=True)
        base = sk.weighted_sdr_evalues(wcalib, wtests, gamma).evalues
        alpha = min(0.95, gamma)
        d_base = sk.weighted_mdr_decide(wcalib, sk.TestPoint(*wtests[0]), sk.Levels(alpha)).deploy
        for c in (0.1, 7.0, 100.0):
            scaled = sk.weighted_sdr_evalues([(s, r, w * c) for s, r, w in wcalib],
                                             [(t, w * c) for t, w in wtests], gamma).evalues
            finite = ~(np.isinf(base) & np.isinf(scaled))
            if finite.any():
                rel = np.abs(base - scaled)[finite] / np.maximum(1.0, np.abs(base)[finite])
                worst_scale = max(worst_scale, float(np.max(rel)))
            t0 = wtests[0]
            d_scaled = sk.weighted_mdr_decide([(s, r, w * c) for s, r, w in wcalib],
                                              sk.TestPoint(t0[0], t0[1] * c),
                                              sk.Levels(alpha)).deploy
            decision_flips += d_scaled != d_base
    ok = worst_unit <= 1e-12 and worst_scale <= 1e-12 and decision_flips == 0
    _criterion(5, "weighted reductions",
               ok, f"unit gap {worst_unit:.2e}; scale gap {worst_scale:.2e}; "
                   f"decision flips {decision_flips}")


# ---------------------------------------------------------------------------
# Criterion 6: covariate-shift control with estimated weights.
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_shift_control_with_estimated_weights():
    violations = []
    for shift in ("w1", "w2", "w3"):
        for method in ("mdr", "sdr"):
            cfg = _config(2, method=method, shift=sk.ShiftModel(shift),
                          weighted="estimated", alpha_grid=(0.1, 0.2, 0.3),
                          seed=20_250_000 + zlib.crc32(shift.encode()) % 1000)
            for r in sk.run_experiment(cfg):
                if r.realized_risk > r.alpha + 3.0 * r.se_risk:
                    violations.append((shift, method, r.alpha, r.realized_risk, r.se_risk))
    _criterion(6, "estimated-weight shift control",
               not violations, f"violations={violations}")


# ---------------------------------------------------------------------------
# Criterion 7: concentration baselines never out-select the exact method.
# ---------------------------------------------------------------------------

def test_criterion_7_baseline_conservativeness():
    fails = []
    for setting in (1, 2):
        for method in ("mdr", "sdr"):
            cfg = _config(setting, method=method, alpha_grid=(0.3,),
                          baselines=("hoeffding", "rademacher"))
            rows = {r.method: r for r in sk.run_experiment(cfg)}
            for b in ("hoeffding", "rademacher"):
                if rows[f"{method}_{b}"].mean_nsel > rows[method].mean_nsel:
                    fails.append((setting, method, b,
                                  rows[f"{method}_{b}"].mean_nsel, rows[method].mean_nsel))
    _criterion(7, "baseline conservativeness", not fails, f"fails={fails}")


# ---------------------------------------------------------------------------
# Criterion 8: boosting cannot change a single marginal decision.
# ---------------------------------------------------------------------------

def test_criterion_8_mdr_boosting_noop():
    rng = np.random.default_rng(108)
    flips = 0
    for _ in range(1000):
        calib, t = random_mdr_instance(rng, max_n=40)
        alpha = float(rng.uniform(0.05, 0.95))
        xi = 1.0 - float(rng.uniform())
        e = sk.mdr_evalue(calib, t, gamma=alpha)
        flips += thresholded(e, alpha) != thresholded(e / xi, alpha)
    _criterion(8, "single-point boosting no-op", flips == 0, f"{flips}/1000 flips")


# ---------------------------------------------------------------------------
# Criterion 9: hand-derived fixtures.
# ---------------------------------------------------------------------------

def test_criterion_9_fixture_regressions():
    tol = 1e-9
    d = sk.mdr_decide([(0.1, 0.2), (0.2, 0.4), (0.9, 1.0)], 0.3, sk.Levels(0.5))
    ok_mdr = d.deploy and abs(d.empirical_stat - 0.4) <= tol

    calib = [(0.1, 0.0), (0.3, 0.0), (0.9, 0.5)]
    tests = [0.2, 0.4, 0.8]
    ev = sk.sdr_evalues(calib, tests, gamma=0.5).evalues
    ok_sdr = np.all(np.abs(ev - 8.0 / 3.0) <= tol)
    ok_sel = sk.ebh(ev, alpha=0.5).selected == {0, 1, 2}

    cons = sk.sdr_evalues_conservative(calib, tests, alpha=0.5).evalues
    ok_cons = np.all(np.abs(cons - 2.0) <= tol)

    ok = bool(ok_mdr and ok_sdr and ok_sel and ok_cons)
    _criterion(9, "fixture regressions", ok,
               f"mdr={ok_mdr}, sdr={ok_sdr}, selection={ok_sel}, conservative={ok_cons}")
