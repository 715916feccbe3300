import json

import numpy as np
import pytest

from swapcal import (BmForecaster, FormatError, cover_class, cover_thetas,
                     estimate_dsmcal, estimate_dsomni, estimate_saerr,
                     linear_ball, make_grid,
                     mixture_from_json, mixture_predict, mixture_to_json,
                     run_online, select_snapshot, squared_loss, train_mixture)
from swapcal.batch import COMMIT_CHUNK, _bucket_weights
from swapcal.metrics import constrained_lstsq


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
    mix = train_mixture(stream, 2, seed=5)
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
    mix = train_mixture(stream, 3, seed=7)
    tr = run_online(BmForecaster(make_grid(3), 2, seed=7), stream)
    for t in (0, 3, 11, 29):
        np.testing.assert_allclose(mix.cond_dist(t, tr.contexts[t]),
                                   tr.cond_dists[t], atol=1e-12)


def test_stride_keeps_every_kth_snapshot():
    rng = np.random.default_rng(2)
    stream = _stream(rng, 21)
    mix = train_mixture(stream, 2, seed=0, stride=5)
    # snapshot k is the start of round 1 + 5k: rounds 1, 6, 11, 16, 21
    assert mix.size == 5
    every = train_mixture(stream, 2, seed=0)
    np.testing.assert_array_equal(mix.thetas, every.thetas[::5])
    with pytest.raises(ValueError):
        train_mixture(stream, 2, stride=0)
    with pytest.raises(ValueError):
        train_mixture(_empty(), 2)


def test_mixture_sampling_determinism_and_range():
    rng = np.random.default_rng(3)
    mix = train_mixture(_stream(rng, 15), 2, seed=1)
    x = np.array([0.5, 0.1])
    a = [mixture_predict(mix, x, np.random.default_rng(9)) for _ in range(20)]
    b = [mixture_predict(mix, x, np.random.default_rng(9)) for _ in range(20)]
    assert a == b
    assert all(0 <= i <= 2 for i in a)


def test_select_snapshot_uniform():
    rng = np.random.default_rng(4)
    mix = train_mixture(_stream(rng, 8), 1, seed=0)
    draws = np.array([select_snapshot(mix, np.random.default_rng(s))
                      for s in range(4000)])
    counts = np.bincount(draws, minlength=8)
    assert counts.min() > 0.7 * 4000 / 8
    assert counts.max() < 1.3 * 4000 / 8


def test_mixture_json_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    mix = train_mixture(_stream(rng, 12), 2, seed=3, stride=2)
    path = tmp_path / "mix.json"
    mixture_to_json(mix, path)
    back = mixture_from_json(path)
    assert back.size == mix.size
    assert back.grid == mix.grid
    assert back.stride == 2
    assert back.seed == 3
    np.testing.assert_array_equal(back.thetas, mix.thetas)
    x = np.array([0.5, -0.2])
    np.testing.assert_allclose(back.cond_dist(4, x), mix.cond_dist(4, x),
                               atol=1e-15)


def test_mixture_json_reads_version_1(tmp_path):
    """A version-1 document (per-snapshot learner records) loads by its
    thetas alone and predicts like the same mixture written as version 2."""
    rng = np.random.default_rng(13)
    mix = train_mixture(_stream(rng, 9), 2, seed=4, stride=3)
    v1 = {"version": 1, "n": 2, "d": 2, "T": mix.size, "seed": 4,
          "stride": 3,
          "snapshots": [
              {"round": 1 + 3 * k,
               "learners": [{"theta": th.tolist(),
                             "inv_curvature": [[1.0, 0.0], [0.0, 1.0]],
                             "rounds_seen": 3 * k} for th in snap]}
              for k, snap in enumerate(mix.thetas)]}
    old, new = tmp_path / "v1.json", tmp_path / "v2.json"
    old.write_text(json.dumps(v1))
    mixture_to_json(mix, new)
    a, b = mixture_from_json(old), mixture_from_json(new)
    assert (a.size, a.d, a.stride, a.seed) == (3, 2, 3, 4)
    X, _ = _stream(rng, 6)
    for t in range(3):
        np.testing.assert_array_equal(a.cond_dist(t, X), b.cond_dist(t, X))


def test_mixture_json_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        mixture_from_json(bad)
    bad.write_text('{"version": 2}')
    with pytest.raises(FormatError):
        mixture_from_json(bad)
    bad.write_text('{"version": 1, "n": 2}')
    with pytest.raises(FormatError):
        mixture_from_json(bad)
    bad.write_text('{"version": 3, "n": 2, "d": 2, "thetas": [[[0, 0]]]}')
    with pytest.raises(FormatError, match="version 3"):
        mixture_from_json(bad)
    bad.write_text('{"version": 2, "n": 2, "d": 3, "thetas": '
                   '[[[0, 0], [0, 0], [0, 0]]]}')
    with pytest.raises(FormatError, match="dimension"):
        mixture_from_json(bad)


def test_bucket_weights_exhaustive_matches_naive():
    rng = np.random.default_rng(6)
    mix = train_mixture(_stream(rng, 10), 2, seed=2)
    X, _ = _stream(rng, 7)
    V, how = _bucket_weights(mix, X, None, 0)
    assert "exhaustive" in how
    want = np.zeros_like(V)
    for t in range(mix.size):
        for j in range(len(X)):
            want[:, j] += mix.cond_dist(t, X[j])
    want /= mix.size * len(X)
    np.testing.assert_allclose(V, want, atol=1e-12)
    assert V.sum() == pytest.approx(1.0, abs=1e-9)


def test_cond_dist_on_many_contexts_matches_one_at_a_time():
    rng = np.random.default_rng(14)
    mix = train_mixture(_stream(rng, 12), 3, seed=2, stride=4)
    X, _ = _stream(rng, 9)
    for t in range(mix.size):
        P = mix.cond_dist(t, X)
        assert P.shape == (9, 4)
        np.testing.assert_array_equal(
            P, np.array([mix.cond_dist(t, x) for x in X]))


def test_bucket_weights_exhaustive_in_chunks():
    # more test points than one commit takes: the chunks must line up
    rng = np.random.default_rng(15)
    mix = train_mixture(_stream(rng, 6), 2, seed=1, stride=2)
    X, _ = _stream(rng, COMMIT_CHUNK + 37)
    V, _ = _bucket_weights(mix, X, None, 0)
    want = sum(mix.cond_dist(t, X).T for t in range(mix.size))
    np.testing.assert_allclose(V, want / (mix.size * len(X)), atol=1e-15)


def test_bucket_weights_frozen_values():
    """V of a fixed-seed mixture, pinned to the values of the one-pair-at-a-
    time lstsq implementation this one replaced."""
    rng = np.random.default_rng(32)
    mix = train_mixture(_stream(rng, 60), 3, seed=32, stride=6)
    X, _ = _stream(rng, 4)
    V, _ = _bucket_weights(mix, X, None, 0)
    want = [[0.22272010332115372, 0.22213118975269844, 0.2223653023606976,
             0.22098471639484715],
            [0.027279896678846293, 0.027868810247301517,
             0.027634697639302368, 0.0290152836051528],
            [1.1533558938223658e-17, 9.359628547923642e-18,
             5.0343719397596074e-18, 1.5359517428931067e-17],
            [1.2227448328614379e-17, 9.556321657218635e-18,
             6.026992823243846e-18, 1.6053406819321794e-17]]
    np.testing.assert_allclose(V, want, rtol=0, atol=1e-12)


def test_bucket_weights_monte_carlo_matches_per_draw_loop():
    """Draws grouped by snapshot give the same counts as committing each
    draw on its own, in the same (test point, snapshot, uniform) rng order."""
    rng = np.random.default_rng(16)
    mix = train_mixture(_stream(rng, 14), 3, seed=3, stride=2)
    X, _ = _stream(rng, 6)
    V, _ = _bucket_weights(mix, X, 2000, seed=21)
    draw = np.random.Generator(np.random.PCG64(np.random.SeedSequence(21)))
    want = np.zeros_like(V)
    for _ in range(2000):
        xi = int(draw.integers(len(X)))
        t = select_snapshot(mix, draw)
        cum = np.cumsum(mix.cond_dist(t, X[xi]))
        cell = min(int(np.searchsorted(cum, draw.random(), side="right")),
                   mix.grid.n)
        want[cell, xi] += 1.0
    np.testing.assert_array_equal(V, want / 2000)


def test_bucket_weights_monte_carlo_converges():
    rng = np.random.default_rng(7)
    mix = train_mixture(_stream(rng, 10), 2, seed=2)
    X, _ = _stream(rng, 5)
    exact, _ = _bucket_weights(mix, X, None, 0)
    mc, how = _bucket_weights(mix, X, 200_000, seed=11)
    assert "Monte-Carlo" in how
    assert np.max(np.abs(mc - exact)) < 0.01
    with pytest.raises(ValueError):
        _bucket_weights(mix, X, 0, 0)


def test_saerr_exhaustive_matches_naive_loops():
    rng = np.random.default_rng(8)
    mix = train_mixture(_stream(rng, 12), 2, seed=4)
    test = _stream(rng, 9)
    rep = estimate_saerr(mix, test)
    X, y = test[0], test[1].astype(float)
    V, _ = _bucket_weights(mix, X, None, 0)
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
    mix = train_mixture(_stream(rng, 40), 3, seed=6, stride=4)
    test = _stream(rng, 30)
    hc = cover_class(0.05, 4.0)
    X, y = test[0], test[1].astype(float)
    for draws in (None, 400):
        V, _ = _bucket_weights(mix, X, draws, 0)
        z = mix.grid.points
        learner = np.sum(V * (z[:, None] - y[None, :]) ** 2, axis=1)
        vals = cover_thetas(hc.epsilon, hc.radius, 2) @ X.T
        comp = np.min(((vals - y[None, :]) ** 2) @ V.T, axis=0)
        nz = V.sum(axis=1) > 0
        want = float(np.sum(learner[nz] - comp[nz]))
        got = estimate_saerr(mix, test, hc=hc, mc_draws=draws).value
        assert got == pytest.approx(want, rel=1e-12)


def test_dsmcal_zero_for_degenerate_perfect_predictor():
    # untrained learners always commit the point mass at cell 0 (value 0);
    # if every test label is 0 the buckets carry no residual at all
    mix = train_mixture((np.array([[0.5, 0.0]]), np.array([0])), 2, seed=0)
    test = (np.array([[0.5, 0.3], [0.5, -0.3]]), np.array([0, 0]))
    assert estimate_dsmcal(mix, test).value == pytest.approx(0.0, abs=1e-12)
    assert estimate_saerr(mix, test).value == pytest.approx(0.0, abs=1e-9)


def test_dsmcal_monte_carlo_tracks_exhaustive():
    rng = np.random.default_rng(9)
    mix = train_mixture(_stream(rng, 25), 2, seed=6)
    test = _stream(rng, 15)
    exact = estimate_dsmcal(mix, test, mc_draws=None).value
    mc = estimate_dsmcal(mix, test, mc_draws=150_000, seed=3).value
    assert mc == pytest.approx(exact, abs=0.01)


def test_dsomni_runs_and_reports():
    rng = np.random.default_rng(10)
    mix = train_mixture(_stream(rng, 15), 2, seed=8)
    test = _stream(rng, 10)
    rep = estimate_dsomni(mix, test, losses=[squared_loss()])
    assert rep.name == "dsomni"
    assert "squared" in rep.notes
    assert np.isfinite(rep.value)


def test_estimators_reject_empty_test():
    rng = np.random.default_rng(11)
    mix = train_mixture(_stream(rng, 5), 1, seed=0)
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
    small = estimate_saerr(train_mixture(make(30), 2, seed=1, stride=1), test)
    large = estimate_saerr(train_mixture(make(1000), 2, seed=1, stride=25),
                           test)
    assert large.value < small.value
