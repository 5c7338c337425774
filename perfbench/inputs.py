"""Seeded input generators for the benchmark workloads.

Every function draws from the generator it is given, so one ``--seed`` fixes
every file and array a run hands to score-kit.  Writing the files is the
benchmark's own cost and happens before any timed operation.
"""

from __future__ import annotations

import numpy as np


def score_risk_pairs(rng, n, m, tied, weighted=False, decimals=3):
    """Informative exchangeable pairs: ``risk = clip(score + noise, 0, 1)``.

    Informative data matters because the exact SDR kernel's cost depends on
    how many test points take the full breakpoint path; with risks unrelated
    to scores most points exit early.  ``tied`` rounds the scores to
    ``decimals`` places and makes about a quarter of the risks multiples of
    1/4, the tied/dyadic regime where decision boundaries are exact.
    Returns ``(calib_scores, calib_risks, calib_weights, test_scores,
    test_weights)``; the weights are 1 unless ``weighted``.
    """
    s = rng.uniform(size=n + m)
    risk = np.clip(s + 0.2 * rng.standard_normal(n + m), 0.0, 1.0)
    if tied:
        s = np.round(s, decimals)
        quarter = rng.uniform(size=n + m) < 0.25
        risk = np.where(quarter, np.round(risk * 4.0) / 4.0, risk)
    if weighted:
        w = np.exp(0.5 * rng.standard_normal(n + m))
    else:
        w = np.ones(n + m)
    return s[:n], risk[:n], w[:n], s[n:], w[n:]


def companion_instance(rng, weighted=False):
    """A small instance the brute-force oracles can check: n <= 60 and m <= 6,
    scores on a 0.1 grid (so pooled scores tie) and quarter-valued risks."""
    n = int(rng.integers(5, 61))
    m = int(rng.integers(1, 7))
    cs, cr, cw, ts, tw = score_risk_pairs(rng, n, m, tied=True, weighted=weighted, decimals=1)
    cr = np.round(cr * 4.0) / 4.0
    return cs, cr, cw, ts, tw


def write_calib_csv(path, scores, risks, weights=None):
    cols = [scores, risks] + ([weights] if weights is not None else [])
    header = "score,risk" + (",weight" if weights is not None else "")
    _write(path, header, cols)


def write_test_csv(path, scores, weights=None):
    cols = [scores] + ([weights] if weights is not None else [])
    header = "score" + (",weight" if weights is not None else "")
    _write(path, header, cols)


def feature_matrices(rng, rows, dim):
    """Source and target feature samples; the target mean is shifted along
    the first three coordinates, so the weight fit has signal."""
    src = rng.standard_normal((rows, dim))
    tgt = rng.standard_normal((rows, dim))
    tgt[:, :3] += 0.5
    return src, tgt


def write_feature_csv(path, x):
    _write(path, ",".join(f"x{i}" for i in range(x.shape[1])), list(x.T))


def _write(path, header, cols):
    # repr-exact floats, so the values score-kit parses equal the arrays the
    # checks hold.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*(c.tolist() for c in cols)):
            fh.write(",".join(repr(v) for v in row) + "\n")
