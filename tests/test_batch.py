import numpy as np
import pytest

from swapcal import (AdversarySpec, BmForecaster, cover_class, cover_thetas,
                     estimate_dsmcal, estimate_dsomni, estimate_saerr,
                     generate_stream, linear_ball, make_grid, mixture_predict,
                     run_online, select_snapshot, squared_loss, train_mixture)
from swapcal.batch import MixturePredictor, _bucket_weights
from swapcal.core import MEMBER_CAP

from oracles import constrained_lstsq


def _stream(rng, T, d=2):
    X, y = np.zeros((T, d)), np.zeros(T, dtype=int)
    for t in range(T):
        tail = rng.normal(size=d - 1) * 0.3
        nt = np.linalg.norm(tail)
        if nt > 0.8:
            tail *= 0.8 / nt
        X[t] = np.concatenate([[0.5], tail])
        y[t] = rng.integers(0, 2)
    return X, y


def _empty(d=2):
    return np.zeros((0, d)), np.zeros(0, dtype=int)


def test_snapshots_freeze_start_of_round_states():
    rng = np.random.default_rng(0)
    stream = _stream(rng, 20)
    mix = train_mixture(stream, 2)
    assert mix.size == 20
    assert mix.thetas.shape == (20, 3, 2)
    # replay the prefix: snapshot k equals the forecaster after k updates
    fc = BmForecaster(make_grid(2), 2, seed=5)
    for k in range(5):
        np.testing.assert_array_equal(mix.thetas[k], fc.thetas)
        x, y = stream[0][k], int(stream[1][k])
        fc.update(fc.predict(x), y, x)


def test_snapshot_distributions_match_online_run():
    rng = np.random.default_rng(1)
    stream = _stream(rng, 30)
    mix = train_mixture(stream, 3)
    tr = run_online(BmForecaster(make_grid(3), 2, seed=7), stream)
    for t in (0, 3, 11, 29):
        np.testing.assert_allclose(mix.cond_dist(t, tr.contexts[t]),
                                   tr.cond_dists[t], atol=1e-12)


def test_stride_keeps_every_kth_snapshot():
    rng = np.random.default_rng(2)
    stream = _stream(rng, 21)
    mix = train_mixture(stream, 2, stride=5)
    # snapshot k is the start of round 1 + 5k: rounds 1, 6, 11, 16, 21
    assert mix.size == 5
    every = train_mixture(stream, 2)
    np.testing.assert_array_equal(mix.thetas, every.thetas[::5])
    with pytest.raises(ValueError):
        train_mixture(stream, 2, stride=0)
    with pytest.raises(ValueError):
        train_mixture(_empty(), 2)


def _snapshots_by_hand(stream, n, seed, stride):
    """The mixture stack of the closed predict/update loop: the learners'
    thetas at the start of every stride-th round, the reference oracle for
    train_mixture."""
    X, y = stream
    fc, snaps = BmForecaster(make_grid(n), X.shape[1], seed=seed), []
    for t, (x, yt) in enumerate(zip(X, y)):
        if t % stride == 0:
            snaps.append(fc.thetas)
        fc.update(fc.predict(x), int(yt), x)
    return np.array(snaps)


@pytest.mark.parametrize("kind", ["iid-logistic", "iid-bernoulli",
                                  "anti-calibration"])
@pytest.mark.parametrize("d", [2, 5])
def test_train_mixture_matches_a_predict_update_loop(kind, d):
    """train_mixture runs the forecaster through lockstep_rounds; its
    snapshots equal the hand loop's bit for bit."""
    spec = AdversarySpec(kind=kind, noise=0.1, bias=0.3)
    for n in (1, 4, 9):
        stream = generate_stream(spec, 100, d, seed=n)
        for stride in (1, 3, 8):
            got = train_mixture(stream, n, stride=stride).thetas
            assert np.array_equal(got,
                                  _snapshots_by_hand(stream, n, n, stride))


def test_mixture_sampling_determinism_and_range():
    rng = np.random.default_rng(3)
    mix = train_mixture(_stream(rng, 15), 2)
    x = np.array([0.5, 0.1])
    a = [mixture_predict(mix, x, np.random.default_rng(9)) for _ in range(20)]
    b = [mixture_predict(mix, x, np.random.default_rng(9)) for _ in range(20)]
    assert a == b
    assert all(0 <= i <= 2 for i in a)


@pytest.mark.parametrize("x, message", [
    ([0.9, 0.9], "first coordinate must be exactly 0.5"),
    ([0.5, 0.1, 0.0], r"context dimension \(3,\) does not match 2"),
    ([0.5, np.nan], "non-finite"),
    ([0.5, 1.0], "context norm .* exceeds 1"),
], ids=["first-coordinate", "dimension", "nan", "norm"])
def test_one_context_is_checked_as_predict_checks_it(x, message):
    """mixture_predict and cond_dist on one context refuse what
    BmForecaster.predict refuses, with its message, and mixture_predict
    draws nothing from its rng first. They used to commit any such x."""
    mix = train_mixture(_stream(np.random.default_rng(3), 15), 2)
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    for call in (lambda: BmForecaster(mix.grid, 2).predict(x),
                 lambda: mixture_predict(mix, x, rng),
                 lambda: mix.cond_dist(0, x)):
        with pytest.raises(ValueError, match=message):
            call()
    assert rng.bit_generator.state == state


def test_select_snapshot_uniform():
    rng = np.random.default_rng(4)
    mix = train_mixture(_stream(rng, 8), 1)
    draws = np.array([select_snapshot(mix, np.random.default_rng(s))
                      for s in range(4000)])
    counts = np.bincount(draws, minlength=8)
    assert counts.min() > 0.7 * 4000 / 8
    assert counts.max() < 1.3 * 4000 / 8


@pytest.mark.parametrize("write", ["transcript"])
@pytest.mark.parametrize("existed", [False, True])
def test_failed_write_leaves_no_partial_file(tmp_path, write, existed):
    """A seed that json cannot encode, set on the transcript after it was
    built (the constructor stores an int), fails the write before the file
    is opened: no file appears, and an existing one keeps its bytes."""
    tr = run_online(BmForecaster(make_grid(2), 2),
                    _stream(np.random.default_rng(2), 5))
    tr.seed = np.int64(3)
    path = tmp_path / "out"
    if existed:
        path.write_bytes(b"previous contents\n")
    with pytest.raises(TypeError):
        tr.write_jsonl(path)
    assert path.read_bytes() == b"previous contents\n" if existed \
        else not path.exists()


def test_bucket_weights_exhaustive_matches_naive():
    rng = np.random.default_rng(6)
    mix = train_mixture(_stream(rng, 10), 2)
    X, _ = _stream(rng, 7)
    V = _bucket_weights(mix, X)
    want = np.zeros_like(V)
    for t in range(mix.size):
        for j in range(len(X)):
            want[:, j] += mix.cond_dist(t, X[j])
    want /= mix.size * len(X)
    np.testing.assert_allclose(V, want, atol=1e-12)
    assert V.sum() == pytest.approx(1.0, abs=1e-9)


def test_cond_dist_on_many_contexts_matches_one_at_a_time():
    rng = np.random.default_rng(14)
    mix = train_mixture(_stream(rng, 12), 3, stride=4)
    X, _ = _stream(rng, 9)
    for t in range(mix.size):
        P = mix.cond_dist(t, X)
        assert P.shape == (9, 4)
        np.testing.assert_array_equal(
            P, np.array([mix.cond_dist(t, x) for x in X]))
    assert mix.cond_dist(0, X[0]).shape == (4,)
    assert mix.cond_dist(0, X[:0]).shape == (0, 4)


@pytest.mark.parametrize("thetas, message", [
    (np.zeros((2, 4, 2)), r"shape \(S >= 1, 3, d\), got \(2, 4, 2\)"),
    (np.zeros((3, 2)), r"shape \(S >= 1, 3, d\), got \(3, 2\)"),
    (np.zeros((0, 3, 2)), r"shape \(S >= 1, 3, d\), got \(0, 3, 2\)"),
    (np.full((1, 3, 2), np.nan), "non-finite"),
    (np.array([[[0.0, 0.0]] * 2 + [[np.inf, 0.0]]]), "non-finite"),
], ids=["wrong-k", "two-axes", "empty", "nan", "inf"])
def test_mixture_rejects_a_bad_stack(thetas, message):
    """A saved stack is outside input: one that is not (S >= 1, K, d) or
    holds a NaN or inf raises ValueError when the mixture is built."""
    with pytest.raises(ValueError, match=message):
        MixturePredictor(make_grid(2), thetas)


def test_bucket_weights_exhaustive_in_chunks():
    # more test points than one commit takes (MEMBER_CAP // K^2 = 100 at
    # K = 100): the chunks must line up
    rng = np.random.default_rng(15)
    mix = train_mixture(_stream(rng, 6), 99, stride=3)
    X, _ = _stream(rng, MEMBER_CAP // mix.grid.size ** 2 + 37)
    V = _bucket_weights(mix, X)
    want = sum(mix.cond_dist(t, X).T for t in range(mix.size))
    np.testing.assert_allclose(V, want / (mix.size * len(X)), atol=1e-15)


def test_bucket_weights_memory_is_bounded_at_large_k():
    """A commit holds at most MEMBER_CAP rounding-matrix entries, whatever
    the number of test points: estimate_saerr on a one-snapshot mixture at
    K = 201 with M = 1024 test points, and cond_dist called on those points
    directly, each peak well under 64 MiB. With 1024 points a commit it
    peaked at 1267 MiB."""
    import tracemalloc

    rng = np.random.default_rng(16)
    mix = MixturePredictor(make_grid(200), rng.normal(scale=0.3,
                                                      size=(1, 201, 2)))
    test = _stream(rng, 1024)
    tracemalloc.start()
    try:
        report = estimate_saerr(mix, test)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        P = mix.cond_dist(0, test[0])
        direct = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.value) and P.shape == (1024, 201)
    assert peak < 64 * 2 ** 20 and direct < 64 * 2 ** 20


def test_bucket_weights_frozen_values():
    """V of a fixed-seed mixture, pinned to the values of the one-pair-at-a-
    time lstsq implementation this one replaced."""
    rng = np.random.default_rng(32)
    mix = train_mixture(_stream(rng, 60), 3, stride=6)
    X, _ = _stream(rng, 4)
    V = _bucket_weights(mix, X)
    want = [[0.22272010332115372, 0.22213118975269844, 0.2223653023606976,
             0.22098471639484715],
            [0.027279896678846293, 0.027868810247301517,
             0.027634697639302368, 0.0290152836051528],
            [1.1533558938223658e-17, 9.359628547923642e-18,
             5.0343719397596074e-18, 1.5359517428931067e-17],
            [1.2227448328614379e-17, 9.556321657218635e-18,
             6.026992823243846e-18, 1.6053406819321794e-17]]
    np.testing.assert_allclose(V, want, rtol=0, atol=1e-12)


def test_saerr_exhaustive_matches_naive_loops():
    rng = np.random.default_rng(8)
    mix = train_mixture(_stream(rng, 12), 2)
    test = _stream(rng, 9)
    rep = estimate_saerr(mix, test)
    X, y = test[0], test[1].astype(float)
    V = _bucket_weights(mix, X)
    z = mix.grid.points
    want = 0.0
    for c in range(3):
        w = V[c]
        if w.sum() == 0:
            continue
        learner = float(np.sum(w * (z[c] - y) ** 2))
        th = constrained_lstsq(X, y, w, 4.0)
        comp = float(np.sum(w * (X @ th - y) ** 2))
        want += learner - comp
    assert rep.value == pytest.approx(want, abs=1e-9)
    assert "per_cell_mass" in rep.extras


def test_saerr_cover_matches_dense_enumeration():
    rng = np.random.default_rng(9)
    mix = train_mixture(_stream(rng, 40), 3, stride=4)
    test = _stream(rng, 30)
    hc = cover_class(0.05, 4.0)
    X, y = test[0], test[1].astype(float)
    V = _bucket_weights(mix, X)
    z = mix.grid.points
    learner = np.sum(V * (z[:, None] - y[None, :]) ** 2, axis=1)
    vals = cover_thetas(hc.epsilon, hc.radius, 2) @ X.T
    comp = np.min(((vals - y[None, :]) ** 2) @ V.T, axis=0)
    nz = V.sum(axis=1) > 0
    want = float(np.sum(learner[nz] - comp[nz]))
    assert estimate_saerr(mix, test, hc=hc).value == pytest.approx(want,
                                                                  rel=1e-12)


def test_dsmcal_zero_for_degenerate_perfect_predictor():
    # untrained learners always commit the point mass at cell 0 (value 0);
    # if every test label is 0 the buckets carry no residual at all
    mix = train_mixture((np.array([[0.5, 0.0]]), np.array([0])), 2)
    test = (np.array([[0.5, 0.3], [0.5, -0.3]]), np.array([0, 0]))
    assert estimate_dsmcal(mix, test).value == pytest.approx(0.0, abs=1e-12)
    assert estimate_saerr(mix, test).value == pytest.approx(0.0, abs=1e-9)


def test_dsomni_runs_and_reports():
    rng = np.random.default_rng(10)
    mix = train_mixture(_stream(rng, 15), 2)
    test = _stream(rng, 10)
    rep = estimate_dsomni(mix, test, losses=[squared_loss()])
    assert rep.name == "dsomni"
    assert "squared" in rep.notes
    assert np.isfinite(rep.value)


def test_estimators_reject_empty_test():
    rng = np.random.default_rng(11)
    mix = train_mixture(_stream(rng, 5), 1)
    with pytest.raises(ValueError):
        estimate_saerr(mix, _empty())


def test_saerr_improves_with_training_on_learnable_stream():
    # labels follow a fixed linear rule; more training rounds must shrink
    # the batch swap error on held-out points from the same rule
    rng = np.random.default_rng(12)
    theta_true = np.array([1.0, -0.8])
    def make(T):
        X, y = np.zeros((T, 2)), np.zeros(T, dtype=int)
        for t in range(T):
            X[t] = [0.5, rng.uniform(-0.8, 0.8)]
            p = float(np.clip(theta_true @ X[t], 0.0, 1.0))
            y[t] = rng.random() < p
        return X, y
    test = make(300)
    small = estimate_saerr(train_mixture(make(30), 2, stride=1), test)
    large = estimate_saerr(train_mixture(make(1000), 2, stride=25),
                           test)
    assert large.value < small.value
