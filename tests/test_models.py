"""Tests for the k-NN regressor, the logistic weight estimator and ratio scores."""

import tracemalloc

import numpy as np
import pytest

from helpers import one_shot_knn_predict, per_step_loss_logistic_fit
from score_kit import models
from score_kit import (DgpSetting, DivergedFit, KTooLarge, Levels, LogisticWeightModel, ShiftModel,
                       generate_dataset, knn_fit, knn_predict, logistic_fit_weights,
                       mdr_decide, ratio_scores, rejection_sample_shifted, sdr_evalues,
                       shift_weight, weight_predict)


def test_knn_nearest_neighbor():
    model = knn_fit([[0.0], [1.0]], [0.0, 1.0], k=1)
    assert knn_predict(model, [0.2]) == 0.0


def test_knn_global_mean():
    model = knn_fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0], k=3)
    assert knn_predict(model, [100.0]) == pytest.approx(5.0 / 3.0)


def test_knn_two_nearest():
    model = knn_fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0], k=2)
    assert knn_predict(model, [0.9]) == pytest.approx(0.5)


def test_knn_k_too_large():
    with pytest.raises(KTooLarge):
        knn_fit([[0.0]], [1.0], k=2)


def test_knn_reproduces_training_targets():
    rng = np.random.default_rng(51)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    model = knn_fit(x, y, k=1)
    assert np.allclose(knn_predict(model, x), y)


def test_knn_distance_ties_lowest_index():
    # both training points are equidistant from the query
    model = knn_fit([[1.0], [-1.0]], [10.0, 20.0], k=1)
    assert knn_predict(model, [0.0]) == 10.0
    model2 = knn_fit([[-1.0], [1.0]], [20.0, 10.0], k=1)
    assert knn_predict(model2, [0.0]) == 20.0


def _knn_reference(x, y, k, q):
    """Full stable sort of every distance row: the literal tie-break."""
    q = np.atleast_2d(q)
    d2 = np.sum(q * q, axis=1)[:, None] - 2.0 * q @ x.T + np.sum(x * x, axis=1)[None, :]
    return y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)


def test_knn_matches_stable_sort_reference():
    # integer-grid features put many distance ties across the k-th neighbour
    rng = np.random.default_rng(58)
    for trial in range(400):
        n = int(rng.integers(1, 40))
        x = rng.integers(-2, 3, size=(n, 2)).astype(float)
        y = rng.normal(size=n)
        q = rng.integers(-2, 3, size=(int(rng.integers(1, 20)), 2)).astype(float)
        for k in {1, int(rng.integers(1, n + 1)), n}:
            model = knn_fit(x, y, k)
            assert knn_predict(model, q).tobytes() == _knn_reference(x, y, k, q).tobytes()
            single = knn_predict(model, q[0])
            assert isinstance(single, float)
            assert single == _knn_reference(x, y, k, q[0])[0]


BLOCK_N = 16384
BLOCK_ROWS = max(2, models._KNN_BLOCK_BYTES // (8 * BLOCK_N))


@pytest.mark.parametrize("with_nan", [False, True])
@pytest.mark.parametrize("features", ["continuous", "integer-grid", "mirrored"])
@pytest.mark.parametrize("q", sorted({0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      2 * BLOCK_ROWS + 1}))
def test_knn_blocks_match_one_shot_reference(q, features, with_nan):
    # n is large enough that a query block holds only a few rows, so q walks
    # across the block edges, including a lone trailing row.  Integer-grid
    # features tie distances exactly; mirrored ones pair the training points
    # about the last query, so that rounding decides their ties.
    rng = np.random.default_rng(59)
    dim = 8
    if features == "integer-grid":
        x = rng.integers(-2, 3, size=(BLOCK_N, dim)).astype(float)
        queries = rng.integers(-2, 3, size=(q, dim)).astype(float)
    else:
        queries = rng.normal(size=(q, dim))
        x = rng.normal(size=(BLOCK_N, dim))
        if features == "mirrored":
            centre = queries[-1] if q else 0.0
            half = x[:BLOCK_N // 2]
            x = np.concatenate([centre + half, centre - half])
    if with_nan:
        # one nan training row; a nan query row ranks every neighbour as tied
        x[int(rng.integers(BLOCK_N))] = np.nan
        if q > 1:
            queries[0] = np.nan
    y = rng.normal(size=BLOCK_N)
    for k in (1, int(rng.integers(2, BLOCK_N)), BLOCK_N):
        model = knn_fit(x, y, k)
        got = knn_predict(model, queries)
        assert got.tobytes() == one_shot_knn_predict(model, queries).tobytes()
        if q == 1:
            single = knn_predict(model, queries[0])
            assert np.float64(single).tobytes() == np.float64(
                one_shot_knn_predict(model, queries[0])).tobytes()


def test_knn_memory_is_bounded_by_the_query_block():
    # the one-shot distance matrix, its argpartition and tie mask take more
    # than 64 MB here
    rng = np.random.default_rng(60)
    x = rng.normal(size=(2000, 20))
    model = knn_fit(x, rng.normal(size=2000), 25)
    queries = rng.normal(size=(2000, 20))
    tracemalloc.start()
    try:
        knn_predict(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("count", [0, 4])
def test_knn_rejects_a_query_with_the_wrong_feature_count(count):
    model = knn_fit(np.zeros((5, 2)), np.arange(5.0), k=2)
    with pytest.raises(ValueError, match="query has 3 features, the model was fit on 2"):
        knn_predict(model, np.ones((count, 3)))


def test_logistic_weight_model_leaves_caller_arrays_writeable():
    arrays = [np.array([0.5, -0.2]), np.zeros(2), np.ones(2)]
    model = LogisticWeightModel(arrays[0], 0.1, 1.0, (0.05, 20.0), arrays[1], arrays[2], 0.3)
    assert all(a.flags.writeable for a in arrays)
    for a in (model.coef, model.feat_mean, model.feat_std):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_knn_fit_leaves_caller_arrays_writeable():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 4.0])
    model = knn_fit(x, y, k=2)
    assert x.flags.writeable and y.flags.writeable
    with pytest.raises(ValueError):
        model.train_y[0] = 1.0


def test_logistic_weights_near_one_without_shift():
    rng = np.random.default_rng(52)
    src = rng.uniform(-1, 1, size=(1000, 5))
    tgt = rng.uniform(-1, 1, size=(1000, 5))
    model = logistic_fit_weights(src, tgt)
    w = weight_predict(model, rng.uniform(-1, 1, size=(1000, 5)))
    assert np.mean(np.abs(w - 1.0)) < 0.15


def test_logistic_prior_ratio_scales_output():
    rng = np.random.default_rng(53)
    src = rng.uniform(-1, 1, size=(400, 3))
    tgt = rng.uniform(-1, 1, size=(200, 3))
    model = logistic_fit_weights(src, tgt, clip=(1e-6, 1e6))
    doubled = logistic_fit_weights(np.vstack([src, src]), tgt, clip=(1e-6, 1e6))
    assert doubled.prior_ratio == pytest.approx(2.0 * model.prior_ratio)


def test_logistic_clip_respected():
    rng = np.random.default_rng(54)
    src = rng.normal(0.0, 1.0, size=(300, 2))
    tgt = rng.normal(3.0, 1.0, size=(300, 2))
    model = logistic_fit_weights(src, tgt, clip=(0.5, 2.0))
    far = np.array([[50.0, 50.0], [-50.0, -50.0]])
    w = weight_predict(model, far)
    assert np.all(w >= 0.5) and np.all(w <= 2.0)


def test_logistic_diverged_fit():
    src = np.array([[np.inf, 1.0]])
    tgt = np.array([[0.0, 1.0]])
    with pytest.raises(DivergedFit):
        logistic_fit_weights(src, tgt)


def _fit_bytes(coef, intercept, loss):
    return coef.tobytes(), np.float64(intercept).tobytes(), np.float64(loss).tobytes()


@pytest.mark.parametrize("iters", [0, 1, 500])
@pytest.mark.parametrize("seed,n_src,n_tgt,dim,shift", [
    (0, 1, 1, 1, 0.0), (1, 40, 25, 3, 1.0), (2, 300, 200, 5, 0.5),
    (3, 1000, 1000, 20, 0.3), (4, 60, 90, 2, 4.0),
])
def test_logistic_fit_matches_per_step_loss_reference(seed, n_src, n_tgt, dim, shift, iters):
    rng = np.random.default_rng(seed)
    src = rng.normal(0.0, 1.0, size=(n_src, dim))
    tgt = rng.normal(shift, 1.5, size=(n_tgt, dim))
    if dim > 1:
        src[:, -1] = tgt[:, -1] = 2.0   # a constant feature: zero std
    model = logistic_fit_weights(src, tgt, iters=iters)
    expected = per_step_loss_logistic_fit(src, tgt, iters=iters)
    assert _fit_bytes(model.coef, model.intercept, model.final_loss) == _fit_bytes(*expected)
    if iters == 0:
        assert model.final_loss == np.inf


@pytest.mark.parametrize("src,lr,iters", [
    ([[np.inf, 1.0]], 0.1, 1),          # nan on the first step
    ([[np.inf, 1.0]], 0.1, 500),
    ([[0.0, 1.0], [1.0, 3.0]], np.inf, 2),   # finite first step, nan on the second
    ([[0.0, 1.0], [1.0, 3.0]], np.inf, 500),
])
def test_logistic_fit_diverges_like_per_step_loss_reference(src, lr, iters):
    tgt = [[0.0, 1.0], [2.0, 0.5]]
    with pytest.raises(DivergedFit) as expected:
        per_step_loss_logistic_fit(src, tgt, lr=lr, iters=iters)
    with pytest.raises(DivergedFit) as got:
        logistic_fit_weights(src, tgt, lr=lr, iters=iters)
    assert str(got.value) == str(expected.value)


def test_logistic_fit_infinite_step_size_finite_after_one_step():
    # One step from zero coefficients sees p = 1/2 everywhere, so the loss is
    # finite even though the update leaves infinite coefficients behind.
    src, tgt = [[0.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [2.0, 0.5]]
    model = logistic_fit_weights(src, tgt, lr=np.inf, iters=1)
    expected = per_step_loss_logistic_fit(src, tgt, lr=np.inf, iters=1)
    assert _fit_bytes(model.coef, model.intercept, model.final_loss) == _fit_bytes(*expected)
    assert model.final_loss == pytest.approx(np.log(2.0))


def test_weight_estimator_consistency_under_w1():
    # calibration-quality smoke test against the true logistic shift
    rng = np.random.default_rng(55)
    setting = DgpSetting(2)
    gen = lambda count, r: generate_dataset(setting, count, r)
    src, _ = gen(2000, rng)
    tgt, _ = rejection_sample_shifted(gen, ShiftModel("w1"), 2000, rng)
    model = logistic_fit_weights(src, tgt)
    eval_x, _ = gen(1500, rng)
    w_hat = weight_predict(model, eval_x)
    w_true = shift_weight(ShiftModel("w1"), eval_x)
    # the estimator targets dQ/dP = w / E[w]; rescale to the same normalization
    w_hat_density = w_hat / np.mean(weight_predict(model, src))
    w_true_density = w_true / np.mean(shift_weight(ShiftModel("w1"), src))
    assert np.mean(np.abs(w_hat_density - w_true_density)) < 0.15


def test_ratio_scores_arithmetic():
    assert ratio_scores([0.4], [2.0], alpha=0.1, method="mdr")[0] == pytest.approx(0.2)
    assert ratio_scores([0.4], [2.0], alpha=0.1, method="sdr")[0] == pytest.approx(0.15)


def test_ratio_scores_rejects_unknown_method():
    with pytest.raises(ValueError):
        ratio_scores([0.1], [1.0], 0.1, "other")


def test_monotone_transform_invariance():
    # decisions and e-values depend on scores only through their ordering
    rng = np.random.default_rng(57)
    for transform in (np.exp, lambda s: s ** 3, lambda s: 2.0 * s + 5.0):
        n, m = 40, 8
        cs = rng.normal(size=n)
        risks = rng.uniform(size=n)
        ts = rng.normal(size=m)
        gamma = 0.3
        base = sdr_evalues(list(zip(cs, risks)), list(ts), gamma).evalues
        mapped = sdr_evalues(list(zip(transform(cs), risks)), list(transform(ts)), gamma).evalues
        assert np.array_equal(base, mapped)
        d0 = mdr_decide(list(zip(cs, risks)), float(ts[0]), Levels(0.3))
        d1 = mdr_decide(list(zip(transform(cs), risks)), float(transform(ts[:1])[0]), Levels(0.3))
        assert d0.deploy == d1.deploy
