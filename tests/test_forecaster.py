import numpy as np
import pytest

import swapcal
from swapcal import (AdversarySpec, BmForecaster, NumericFailure,
                     PreconditionError, ResourceLimitError, RoundOutput,
                     Transcript, choose_n, generate_stream, make_grid, rround,
                     lockstep_rounds, run_lockstep, run_online,
                     seed_streams, stationary_distribution, validate_stream)
from swapcal import linalg
from swapcal.core import JSONL_BLOCK
from swapcal.forecaster import commit_round, sample_cell
from swapcal.ons import ons_step


def _stream(rng, T, d):
    X, y = np.zeros((T, d)), np.zeros(T, dtype=int)
    for t in range(T):
        tail = rng.normal(size=d - 1) * 0.3
        nt = np.linalg.norm(tail)
        if nt > 0.8:
            tail *= 0.8 / nt
        X[t] = np.concatenate([[0.5], tail])
        y[t] = rng.integers(0, 2)
    return X, y


def test_seed_streams_reproducible():
    a1, b1 = seed_streams(42)
    a2, b2 = seed_streams(42)
    r1 = np.random.Generator(np.random.PCG64(a1)).random(5)
    r2 = np.random.Generator(np.random.PCG64(a2)).random(5)
    np.testing.assert_array_equal(r1, r2)
    # the two children differ from each other
    rb = np.random.Generator(np.random.PCG64(b1)).random(5)
    assert not np.array_equal(r1, rb)


def test_rround_hand_values():
    g = make_grid(2)
    np.testing.assert_allclose(rround(0.3, g), [0.4, 0.6, 0.0])
    np.testing.assert_allclose(rround(0.5, g), [0.0, 1.0, 0.0])
    np.testing.assert_allclose(rround(0.0, g), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(rround(1.0, g), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(rround(0.9, g), [0.0, 0.2, 0.8])
    # an array gives one column per entry, each the scalar rounding
    np.testing.assert_allclose(rround(np.array([0.3, 0.5, 0.0, 1.0, 0.9]), g),
                               [[0.4, 0.0, 1.0, 0.0, 0.0],
                                [0.6, 1.0, 0.0, 0.0, 0.2],
                                [0.0, 0.0, 0.0, 1.0, 0.8]])
    assert rround(np.array([0.3]), g).shape == (3, 1)
    assert rround(np.array([]), g).shape == (3, 0)


def test_rround_on_a_stack_of_proposal_vectors():
    g = make_grid(4)
    W = np.random.default_rng(3).random((6, 5))
    W[0, 0], W[1, 2], W[2, 4] = 0.0, 1.0, 0.5
    Q = rround(W, g)
    assert Q.shape == (6, 5, 5)
    for m in range(6):
        np.testing.assert_array_equal(Q[m], rround(W[m], g))
        for k in range(5):
            np.testing.assert_array_equal(Q[m, :, k], rround(W[m, k], g))
    assert rround(np.zeros((0, 5)), g).shape == (0, 5, 5)
    with pytest.raises(ValueError):
        rround(np.array([[0.2, 0.3], [0.4, 1.5]]), g)


def test_commit_round_on_many_contexts_matches_one_at_a_time():
    rng = np.random.default_rng(8)
    thetas = rng.normal(size=(4, 3))
    X, _ = _stream(rng, 12, 3)
    g = make_grid(3)
    w, Q, P = commit_round(thetas, X, g)
    assert (w.shape, Q.shape, P.shape) == ((12, 4), (12, 4, 4), (12, 4))
    for m in range(12):
        one = commit_round(thetas, X[m], g)
        for got, want in zip((w[m], Q[m], P[m]), one):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("R", [1, 2, 30])
def test_commit_round_solves_its_q_as_the_checked_entry_does(R, monkeypatch):
    """commit_round solves its own Q without stationary_distribution's input
    check, bit for bit the same P: on random proposals, proposals clamped
    to exactly 0 and 1, and proposals on grid points, whose point-mass
    columns give chains with several closed classes (the SVD path)."""
    svd_chains = []
    real = linalg._min_norm
    monkeypatch.setattr(linalg, "_min_norm",
                        lambda Q: svd_chains.append(len(Q)) or real(Q))
    rng = np.random.default_rng(R)
    g = make_grid(4)
    x = np.ones((R, 1))  # d = 1: each proposal is its theta, clamped
    on_grid = rng.integers(0, g.n + 1, size=(R, g.size)) / g.n
    on_grid[0] = g.points  # Q = I: every cell is its own closed class
    for w in (rng.random((R, g.size)),
              rng.choice([-0.5, 0.0, 0.3, 1.0, 1.5], size=(R, g.size)),
              on_grid):
        svd_chains.clear()
        _, Q, P = commit_round(w[..., None], x, g)
        assert np.array_equal(P, stationary_distribution(Q))
    # the grid-point chains, Q = I among them, took the SVD path in both
    assert len(svd_chains) == 2 and svd_chains[0] == svd_chains[1] >= 1


def test_commit_round_keeps_the_residual_check(monkeypatch):
    """A wrong square solve still fails the round: commit_round skips only
    the input check, and raises NumericFailure carrying the residual."""
    g = make_grid(4)
    w = np.random.default_rng(5).uniform(0.1, 0.9, size=(2, g.size))
    Q = commit_round(w[..., None], np.ones((2, 1)), g)[1]
    last = np.eye(g.size)[g.n]  # a point mass on the last cell
    monkeypatch.setattr(linalg, "_square_solve",
                        lambda Q: np.broadcast_to(last, Q.shape[:-1]).copy())
    with pytest.raises(NumericFailure) as info:
        commit_round(w[..., None], np.ones((2, 1)), g)
    assert info.value.residual == abs(Q @ last - last).max()
    assert info.value.residual > linalg.STATIONARY_TOL


def test_sample_cell_is_searchsorted_per_row():
    rng = np.random.default_rng(9)
    P = rng.random((50, 4)) ** 3
    P[::5, 1:] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    u = rng.random(50)
    u[:3] = [0.0, P[1, 0], np.nextafter(1.0, 0.0)]
    want = [min(int(np.searchsorted(np.cumsum(p), v, side="right")), 3)
            for p, v in zip(P, u)]
    np.testing.assert_array_equal(sample_cell(P, u), want)
    assert [int(sample_cell(p, v)) for p, v in zip(P, u)] == want


def test_rround_mean_preserving_two_sparse():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 9, 33):
        g = make_grid(n)
        for w in np.concatenate([rng.random(200), [0.0, 1.0]]):
            q = rround(float(w), g)
            assert q.min() >= 0.0
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(float(q @ g.points) - w) <= 1e-12
            support = np.nonzero(q)[0]
            assert len(support) <= 2
            if len(support) == 2:
                assert support[1] - support[0] == 1


def test_rround_excess_squared_loss_bound():
    # rounding costs at most 1/N^2 against either label, never negative
    rng = np.random.default_rng(4)
    for n in (1, 3, 8):
        g = make_grid(n)
        for w in rng.random(300):
            q = rround(float(w), g)
            for y in (0, 1):
                excess = float(q @ (g.points - y) ** 2) - (w - y) ** 2
                assert -1e-12 <= excess <= 1.0 / n ** 2 + 1e-12


def test_rround_rejects_out_of_range():
    with pytest.raises(ValueError):
        rround(1.2, make_grid(2))
    with pytest.raises(ValueError):
        rround(float("nan"), make_grid(2))
    with pytest.raises(ValueError):
        rround(np.array([0.2, -0.1]), make_grid(2))
    # the message names the first bad value in C order
    g = make_grid(3)
    with pytest.raises(ValueError, match=r"value -0\.1 outside"):
        rround(np.array([0.2, -0.1, 1.5]), g)
    with pytest.raises(ValueError, match=r"value 1\.5 outside"):
        rround(np.array([[0.2, 1.5], [-0.1, 0.3]]), g)
    with pytest.raises(ValueError, match="value nan outside"):
        rround(np.array([0.2, np.nan, -0.1]), g)
    with pytest.raises(ValueError, match="value inf outside"):
        rround(np.inf, g)


def test_fresh_forecaster_commits_point_mass_at_zero():
    # all learners start at theta = 0, so every proposal rounds to cell 0
    fc = BmForecaster(make_grid(3), 2, seed=0)
    x = np.array([0.5, 0.2])
    w = commit_round(fc.thetas, x, fc.grid)[0]
    out = fc.predict(x)
    np.testing.assert_allclose(out.cond_dist, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert out.sampled_index == 0
    np.testing.assert_array_equal(w, np.zeros(4))


@pytest.mark.parametrize("call, match", [
    (lambda: BmForecaster(2, 2), "grid must be a Grid"),
    (lambda: BmForecaster(make_grid(2), 2).predict([0.5, 0.0, 0.0]),
     "context dimension"),
    (lambda: BmForecaster(make_grid(2), 2).update(None, 1, []),
     "context dimension"),
], ids=["not-a-grid", "context-length", "update-context-length"])
def test_forecaster_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("x, message", [
    ([0.5, np.inf], "context has non-finite entries"),
    ([0.5, np.nan], "context has non-finite entries"),
    ([0.5, 3.0], "context norm 3.04"),
    ([0.4, 0.1], "context first coordinate must be exactly 0.5"),
], ids=["inf", "nan", "norm", "first-coordinate"])
def test_predict_and_update_check_the_stream_contract(x, message):
    """predict and update raise validate_stream's ValueError for a context
    off the stream contract, and leave the stacks, the round count and the
    sampling generator as they were."""
    fc = BmForecaster(make_grid(3), 2, seed=0)
    good = np.array([0.5, 0.2])
    fc.update(fc.predict(good), 1, good)
    out = fc.predict(good)
    with pytest.raises(ValueError) as want:
        validate_stream((np.array([x]), np.array([1])))
    assert message in str(want.value)
    state = (fc.thetas.copy(), fc.inv_curvatures.copy(), fc.rounds_seen,
             fc.rng.bit_generator.state)
    for call in (lambda: fc.predict(x), lambda: fc.update(out, 1, x)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == str(want.value)
    assert np.array_equal(fc.thetas, state[0])
    assert np.array_equal(fc.inv_curvatures, state[1])
    assert (fc.rounds_seen, fc.rng.bit_generator.state) == state[2:]


@pytest.mark.parametrize("n, bad", [
    (3, None), (9, None), (7, 1.5), (7, -0.25), (7, np.nan), (3, list),
    (7, list)],
    ids=["shorter", "longer", "above-one", "negative", "nan", "shorter-list",
         "list"])
def test_update_checks_cond_dist(n, bad):
    """update raises ValueError for a cond_dist that is not K weights in
    [0, 1]: another grid's RoundOutput, shorter or longer, as an array or a
    list, or an entry off [0, 1]. The forecaster keeps its stack objects,
    rounds_seen and rng. A valid list updates exactly as its array does."""
    fc = BmForecaster(make_grid(7), 2, seed=0)
    x = np.array([0.5, 0.2])
    fc.update(fc.predict(x), 1, x)
    out = BmForecaster(make_grid(n), 2, seed=1).predict(x)
    if bad is list:
        listed = RoundOutput(list(out.cond_dist), out.q_matrix,
                             out.sampled_index)
        if n == fc.grid.n:
            twin = BmForecaster(make_grid(7), 2, seed=0)
            twin.update(twin.predict(x), 1, x)
            twin.update(out, 1, x)
            fc.update(listed, 1, x)
            assert np.array_equal(fc.thetas, twin.thetas)
            assert np.array_equal(fc.inv_curvatures, twin.inv_curvatures)
            assert fc.rounds_seen == twin.rounds_seen == 2
            return
        out = listed
    elif bad is not None:
        P = out.cond_dist.copy()
        P[1] = bad
        out = RoundOutput(P, out.q_matrix, out.sampled_index)
    state = (fc.thetas, fc.inv_curvatures, fc.thetas.copy(),
             fc.inv_curvatures.copy(), fc.rng.bit_generator.state)
    with pytest.raises(ValueError, match="cond_dist"):
        fc.update(out, 1, x)
    assert fc.thetas is state[0] and fc.inv_curvatures is state[1]
    assert np.array_equal(fc.thetas, state[2])
    assert np.array_equal(fc.inv_curvatures, state[3])
    assert fc.rounds_seen == 1 and fc.rng.bit_generator.state == state[4]


def test_forecaster_rejects_a_grid_too_large_for_memory():
    """N = 10^7 would take 80 MB of grid points, 0.5 GB of learner stacks
    and a 10^14-entry rounding matrix a round: the grid raises before it
    allocates its points. The forecaster's own cap, K^2 rounding-matrix
    entries, falls between N = 999 and N = 1000 and also raises before any
    learner stack exists."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="grid points"):
            make_grid(10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    for n in (1000, 10 ** 5):
        grid = make_grid(n)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="rounding-matrix"):
                BmForecaster(grid, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    assert BmForecaster(make_grid(999), 1).thetas.shape == (1000, 1)


def test_round_output_q_matrix_columns_are_rrounds():
    rng = np.random.default_rng(5)
    fc = BmForecaster(make_grid(3), 2, seed=1)
    X, y = _stream(rng, 30, 2)
    for x, yt in zip(X, y):
        w = commit_round(fc.thetas, x, fc.grid)[0]
        out = fc.predict(x)
        for i in range(4):
            np.testing.assert_allclose(out.q_matrix[:, i],
                                       rround(float(w[i]), fc.grid),
                                       atol=1e-12)
        # committed distribution is stationary for the committed matrix
        resid = np.max(np.abs(out.q_matrix @ out.cond_dist - out.cond_dist))
        assert resid <= 1e-8
        fc.update(out, int(yt), x)


def test_trajectory_deterministic_given_seed():
    rng = np.random.default_rng(6)
    stream = _stream(rng, 50, 3)
    a = run_online(BmForecaster(make_grid(2), 3, seed=9), stream)
    b = run_online(BmForecaster(make_grid(2), 3, seed=9), stream)
    np.testing.assert_array_equal(a.cond_dists, b.cond_dists)
    np.testing.assert_array_equal(a.sampled_indices, b.sampled_indices)


def test_conditional_distributions_independent_of_sampling_seed():
    """The committed distributions never depend on the sampled cells: the
    update consumes the full distribution, not the draw."""
    rng = np.random.default_rng(7)
    stream = _stream(rng, 60, 2)
    a = run_online(BmForecaster(make_grid(3), 2, seed=1), stream)
    b = run_online(BmForecaster(make_grid(3), 2, seed=2), stream)
    np.testing.assert_array_equal(a.cond_dists, b.cond_dists)
    assert not np.array_equal(a.sampled_indices, b.sampled_indices)


def test_trajectory_frozen_values():
    """P rows and sampled cells of a fixed-seed run, pinned to the values of
    the lstsq-based solve this one replaced."""
    rng = np.random.default_rng(31)
    tr = run_online(BmForecaster(make_grid(4), 3, seed=31),
                    _stream(rng, 200, 3))
    want = {60: [0.740053259537018, 0.2599467404629817, 8.068532004887863e-17,
                 1.3619647128013645e-16, 1.0844089566450754e-16],
            120: [0.5451368105790455, 0.45486318942095455,
                  3.650654524040473e-17, 9.860042212889349e-17,
                  9.860042212889349e-17],
            199: [0.49652096009104113, 0.5034790399089584,
                  1.8808228253715192e-16, 8.335517165409155e-17,
                  1.3886632288534938e-16]}
    for t, row in want.items():
        np.testing.assert_allclose(tr.cond_dists[t], row, rtol=0, atol=1e-12)
    assert tr.sampled_indices[190:].tolist() == [0, 1, 1, 1, 0, 1, 0, 0, 1, 0]


def test_update_advances_all_learners():
    fc = BmForecaster(make_grid(2), 2, seed=0)
    x = np.array([0.5, 0.1])
    out = fc.predict(x)
    before = fc.thetas.copy()
    fc.update(out, 1, x)
    assert fc.rounds_seen == 1
    # the cell holding all the stationary mass moves; zero-mass cells do not
    assert not np.array_equal(fc.thetas[0], before[0])
    np.testing.assert_array_equal(fc.thetas[2], before[2])


@pytest.mark.parametrize("driver, d", [
    pytest.param("update", 2, id="2"), pytest.param("update", 5, id="5"),
    pytest.param("lockstep", 2, id="lockstep-2"),
    pytest.param("lockstep", 5, id="lockstep-5")])
def test_update_is_a_chain_of_per_cell_steps(driver, d, monkeypatch):
    """The stacks equal, bit for bit, a hand-written chain of ons_step calls
    per cell, over a stream with zero-weight cells and A-norm projections
    (learners started near the radius-4 sphere, pulled outward). The driver
    is update on one forecaster, or lockstep_rounds on three, whose one
    kernel call a round advances all their cells."""
    projections = []
    project = swapcal.ons.project_ball_a_norm

    def counted(*args):
        projections.append(1)
        return project(*args)

    monkeypatch.setattr(swapcal.ons, "project_ball_a_norm", counted)
    rng = np.random.default_rng(d)
    R, T = (1 if driver == "update" else 3), 200
    u = rng.normal(size=(R, 5, d))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    # both drivers check the contexts: x_0 = 1/2, norm <= 1
    tail = np.clip(0.1 * rng.normal(size=(R, T, d - 1)), -0.2, 0.2)
    X = np.concatenate([np.full((R, T, 1), 0.5), tail], axis=-1)
    fcs = [BmForecaster(make_grid(4), d, seed=d + r) for r in range(R)]
    for fc, ur in zip(fcs, u):
        fc.thetas = 3.999 * ur
    cells = [list(zip(fc.thetas, fc.inv_curvatures)) for fc in fcs]

    def by_update():
        for x in X[0]:
            out = fcs[0].predict(x)
            yield out.cond_dist[None]
            fcs[0].update(out, 1, x)

    rounds = by_update() if driver == "update" else (
        P for *_, P in lockstep_rounds(
            fcs, [(Xr, np.ones(T, dtype=int)) for Xr in X]))
    zero_cells = 0
    for t, P in enumerate(rounds):
        for r in range(R):
            cells[r] = [ons_step(theta, inv, X[r, t], p, 1)
                        for (theta, inv), p in zip(cells[r], P[r].tolist())]
        zero_cells += int((P == 0.0).sum())
    assert zero_cells and projections
    for fc, chain in zip(fcs, cells):
        assert fc.rounds_seen == T
        assert np.array_equal(fc.thetas, [theta for theta, _ in chain])
        assert np.array_equal(fc.inv_curvatures, [inv for _, inv in chain])


def test_update_is_all_or_nothing(monkeypatch):
    """An update that raises on any cell leaves the forecaster as it was,
    and a stack read from thetas never changes afterwards."""
    fc = BmForecaster(make_grid(4), 2, seed=1)
    x = np.array([0.5, 0.2])
    fc.update(fc.predict(x), 1, x)
    snap = fc.thetas
    frozen = snap.copy()
    state = fc.thetas.copy(), fc.inv_curvatures.copy(), fc.rounds_seen
    step, calls = swapcal.forecaster.ons_step, []

    def failing_step(*args):
        calls.append(1)
        if len(calls) == 3:
            raise NumericFailure("forced", residual=1.0)
        return step(*args)

    monkeypatch.setattr(swapcal.forecaster, "ons_step", failing_step)
    with pytest.raises(NumericFailure):
        fc.update(fc.predict(x), 0, x)
    assert np.array_equal(fc.thetas, state[0])
    assert np.array_equal(fc.inv_curvatures, state[1])
    assert fc.rounds_seen == state[2]
    monkeypatch.undo()
    for _ in range(5):
        fc.update(fc.predict(x), 0, x)
    assert fc.rounds_seen == state[2] + 5
    assert not np.array_equal(fc.thetas, frozen)
    assert np.array_equal(snap, frozen)


def _untouched(fcs, seeds, stacks):
    """Each forecaster still holds its stack objects, has counted no round
    and has drawn nothing from its fresh generator."""
    for fc, s, (thetas, invs) in zip(fcs, seeds, stacks):
        assert fc.thetas is thetas and fc.inv_curvatures is invs
        assert fc.rounds_seen == 0
        assert fc.rng.bit_generator.state == BmForecaster(
            fc.grid, fc.d, seed=s).rng.bit_generator.state


@pytest.mark.parametrize("end", ["raise", "close", "empty"])
def test_a_run_that_does_not_finish_writes_nothing(end, monkeypatch):
    """A kernel raise at round 3 of a three-forecaster run, a loop closed
    after 2 rounds and a run of T = 0 rounds all leave every forecaster as
    it was: the same stack objects, rounds_seen and rng state. The arrays
    yielded before a raise keep their values."""
    seeds = (1, 2, 3)
    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    fcs = [BmForecaster(make_grid(4), 2, seed=s) for s in seeds]
    stacks = [(fc.thetas, fc.inv_curvatures) for fc in fcs]
    T = 0 if end == "empty" else 10
    streams = [generate_stream(spec, T, 2, seed=s) for s in seeds]
    kernel, calls = swapcal.forecaster.ons_kernel, []

    def failing_kernel(*args):
        calls.append(1)
        if len(calls) == 3:
            raise NumericFailure("forced", residual=1.0)
        return kernel(*args)

    monkeypatch.setattr(swapcal.forecaster, "ons_kernel", failing_kernel)
    rounds = lockstep_rounds(fcs, streams)
    yielded, copies = [], []
    if end == "raise":
        with pytest.raises(NumericFailure):
            for arrays in rounds:
                yielded.append(arrays)
                copies.append([a.copy() for a in arrays])
        assert len(yielded) == 3
        assert all(np.array_equal(a, b) for got, want in zip(yielded, copies)
                   for a, b in zip(got, want))
        calls.clear()
        with pytest.raises(NumericFailure):
            run_lockstep(fcs, streams)
    elif end == "close":
        next(rounds), next(rounds)
        rounds.close()
    else:
        assert list(rounds) == []
        assert [tr.horizon for tr in run_lockstep(fcs, streams)] == [0] * 3
    _untouched(fcs, seeds, stacks)


def test_sampler_matches_committed_distribution():
    """Empirical cell frequencies over repeated predictions track the
    committed stationary distribution (fixed learners, fixed context)."""
    fc = BmForecaster(make_grid(2), 2, seed=11)
    rng = np.random.default_rng(12)
    x = np.array([0.5, 0.2])
    for _ in range(40):   # move the learners somewhere non-degenerate
        out = fc.predict(x)
        fc.update(out, int(rng.integers(0, 2)), x)
    draws = 100_000
    counts = np.zeros(3)
    P = None
    for _ in range(draws):
        out = fc.predict(x)
        P = out.cond_dist
        counts[out.sampled_index] += 1
    live = P > 1e-12
    assert live.sum() >= 2, "learner state collapsed; pick another seed"
    chi2 = float(np.sum((counts[live] - draws * P[live]) ** 2
                        / (draws * P[live])))
    # dof <= 2; anything below 15 is comfortably unsuspicious
    assert chi2 < 15.0
    assert counts[~live].sum() == 0


def test_run_online_records_everything():
    rng = np.random.default_rng(13)
    stream = _stream(rng, 25, 2)
    tr = run_online(BmForecaster(make_grid(2), 2, seed=3), stream)
    assert tr.horizon == 25
    assert tr.seed == 3
    np.testing.assert_array_equal(tr.outcomes, stream[1])
    # every round's proposals rebuild its matrix exactly
    fc = BmForecaster(make_grid(2), 2, seed=3)
    for x, yt, P in zip(*stream, tr.cond_dists):
        w = commit_round(fc.thetas, x, fc.grid)[0]
        out = fc.predict(x)
        assert np.array_equal(rround(w, fc.grid), out.q_matrix)
        assert np.array_equal(out.cond_dist, P)
        fc.update(out, int(yt), x)


def test_run_online_validates_stream():
    bad = (np.array([[0.4, 0.0]]), np.array([1]))
    with pytest.raises(ValueError):
        run_online(BmForecaster(make_grid(2), 2, seed=0), bad)
    pairs = [(np.array([0.5, 0.0]), 1)]
    with pytest.raises(ValueError, match="pair of arrays"):
        run_online(BmForecaster(make_grid(2), 2, seed=0), pairs)
    wrong_d = (np.array([[0.5, 0.0, 0.0]]), np.array([1]))
    with pytest.raises(ValueError, match="dimension"):
        run_online(BmForecaster(make_grid(2), 2, seed=0), wrong_d)


def _learner_state(fc):
    return fc.thetas, fc.inv_curvatures, fc.rounds_seen


def _assert_same_run(a, fa, b, fb):
    """Two transcripts and their forecasters' final states agree bit for
    bit."""
    for got, want in ((a.cond_dists, b.cond_dists),
                      (a.sampled_indices, b.sampled_indices)):
        assert np.array_equal(got, want)
    got, want = _learner_state(fa), _learner_state(fb)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_run_online_matches_predict_update_loop():
    """run_online is the closed loop of predict then update, nothing else."""
    stream = generate_stream(AdversarySpec(kind="iid-logistic", noise=0.1),
                             300, 5, seed=4)
    fc = BmForecaster(make_grid(7), 5, seed=4)
    tr = run_online(fc, stream)
    ref = BmForecaster(make_grid(7), 5, seed=4)
    P, pi = [], []
    for x, yt in zip(*stream):
        out = ref.predict(x)
        P.append(out.cond_dist)
        pi.append(out.sampled_index)
        ref.update(out, int(yt), x)
    want = Transcript(ref.grid, stream[0], P, pi, stream[1], seed=4)
    _assert_same_run(tr, fc, want, ref)
    assert fc.rounds_seen == 300
    assert fc.rng.random() == ref.rng.random()


@pytest.mark.parametrize("reps", [1, 2, 5])
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("kind", ["iid-logistic", "iid-bernoulli",
                                  "anti-calibration", "csv"])
def test_lockstep_matches_run_online_per_rep(tmp_path, kind, d, reps):
    """R forecasters run together equal each run alone, bit for bit: P, the
    sampled cells and the final learner states."""
    path = tmp_path / "stream.csv"
    feats = np.random.default_rng(d).normal(size=(200, d - 1))
    path.write_text("".join(",".join(f"{v:.4f}" for v in row)
                            + f",{t % 3 % 2}\n" for t, row in enumerate(feats)))
    spec = AdversarySpec(kind=kind, noise=0.1, bias=0.3, path=str(path))
    n = {2: 4, 5: 7}[d]
    seeds = [11 * r + d for r in range(reps)]
    streams = [generate_stream(spec, 150, d, seed=s) for s in seeds]
    fcs = [BmForecaster(make_grid(n), d, seed=s) for s in seeds]
    trs = run_lockstep(fcs, streams)
    for s, stream, tr, fc in zip(seeds, streams, trs, fcs):
        alone = BmForecaster(make_grid(n), d, seed=s)
        _assert_same_run(tr, fc, run_online(alone, stream), alone)
        assert tr.seed == s and np.array_equal(tr.contexts, stream[0])


def test_lockstep_rejects_mismatched_runs():
    X, y = generate_stream(AdversarySpec(kind="iid-logistic"), 20, 2, seed=0)
    fc = BmForecaster(make_grid(2), 2, seed=0)
    with pytest.raises(ValueError, match="share"):
        run_lockstep([fc, BmForecaster(make_grid(3), 2)], [(X, y)] * 2)
    with pytest.raises(ValueError, match="share"):
        run_lockstep([fc, BmForecaster(make_grid(2), 3)], [(X, y)] * 2)
    with pytest.raises(ValueError, match="streams"):
        run_lockstep([fc, BmForecaster(make_grid(2), 2)], [(X, y)])
    with pytest.raises(ValueError, match="one length"):
        run_lockstep([fc, BmForecaster(make_grid(2), 2)],
                     [(X, y), (X[:10], y[:10])])
    assert fc.rounds_seen == 0


def test_lockstep_caps_the_rounding_stack_before_it_allocates():
    """R forecasters at K cells commit an (R, K, K) rounding stack a round,
    about 32 B per entry at its peak: R K^2 over MEMBER_CAP raises before
    the first round. At N = 299 that is 12 forecasters, whose first round
    would peak near 35 MB."""
    import tracemalloc

    grid = make_grid(299)
    fcs = [BmForecaster(grid, 2, seed=s) for s in range(12)]
    streams = [generate_stream(AdversarySpec(kind="iid-logistic"), 1, 2,
                               seed=s) for s in range(12)]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="12 forecasters"):
            run_lockstep(fcs, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert all(fc.rounds_seen == 0 for fc in fcs)
    assert len(run_lockstep(fcs[:11], streams[:11])) == 11


@pytest.mark.parametrize("reps", [1, 3])
def test_lockstep_rounds_contract(reps):
    """Each round yields the stack it committed from, which later rounds
    never touch; the forecasters keep their own stacks, uncounted, until
    the last round, after which they hold the final stacks and T rounds.
    The yielded P are run_lockstep's transcripts, the learners end as
    run_lockstep leaves them, and the loop draws nothing from any rng
    (run_lockstep samples after it). Replacing a forecaster's learners
    mid-run (new thetas, an update call) raises PreconditionError once the
    last round is done, and no forecaster is written."""
    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    seeds = [3 * r + 1 for r in range(reps)]
    streams = [generate_stream(spec, 80, 3, seed=s) for s in seeds]
    fcs = [BmForecaster(make_grid(5), 3, seed=s) for s in seeds]
    stacks = [(fc.thetas, fc.inv_curvatures) for fc in fcs]
    copies, rounds = [], []
    for thetas, w, P in lockstep_rounds(fcs, streams):
        assert thetas.shape == (reps, 6, 3) and w.shape == P.shape == (reps, 6)
        _untouched(fcs, seeds, stacks)
        copies.append(thetas.copy())
        rounds.append((thetas, w, P))
    assert len(rounds) == 80 and fcs[0].rounds_seen == 80
    assert np.array_equal(rounds[0][0], [theta for theta, _ in stacks])
    assert all(np.array_equal(th, want)
               for (th, *_), want in zip(rounds, copies))
    refs = [BmForecaster(make_grid(5), 3, seed=s) for s in seeds]
    trs = run_lockstep(refs, streams)
    for r, (s, tr, fc, ref) in enumerate(zip(seeds, trs, fcs, refs)):
        assert np.array_equal([P[r] for *_, P in rounds], tr.cond_dists)
        got, want = _learner_state(fc), _learner_state(ref)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert fc.rng.random() == BmForecaster(fc.grid, 3, seed=s).rng.random()
    assert "lockstep_rounds" in swapcal.__all__
    x0 = streams[-1][0][0]
    for touch in (lambda fc: setattr(fc, "thetas", fc.thetas.copy()),
                  lambda fc: fc.update(fc.predict(x0), 1, x0)):
        fcs = [BmForecaster(make_grid(5), 3, seed=s) for s in seeds]
        stacks = [(fc.thetas, fc.inv_curvatures) for fc in fcs]
        rounds = lockstep_rounds(fcs, streams)
        next(rounds)
        touch(fcs[-1])
        touched, later = _learner_state(fcs[-1]), []
        with pytest.raises(PreconditionError, match="replaced"):
            for arrays in rounds:
                later.append(arrays)
        assert len(later) == 79
        _untouched(fcs[:-1], seeds, stacks)
        assert all(a is b for a, b in zip(_learner_state(fcs[-1])[:2],
                                          touched[:2]))
        assert fcs[-1].rounds_seen == touched[2]


@pytest.mark.parametrize("reps, T", [(1, 0), (1, 2 * JSONL_BLOCK + 5),
                                     (3, 0), (3, 2 * JSONL_BLOCK + 5)])
def test_run_lockstep_samples_each_round_from_its_own_rng(reps, T):
    """run_lockstep samples after the loop, JSONL_BLOCK rounds at a time;
    its cells are searchsorted(cumsum(P_t), u, "right") with u a scalar draw
    from a fresh copy of each forecaster's generator, and each generator
    ends exactly T draws on. A run that raises mid-loop draws nothing."""
    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    seeds = [5 * r + 2 for r in range(reps)]
    streams = [generate_stream(spec, T, 2, seed=s) for s in seeds]
    fcs = [BmForecaster(make_grid(4), 2, seed=s) for s in seeds]
    trs = run_lockstep(fcs, streams)

    def fresh(s):
        return np.random.Generator(np.random.PCG64(seed_streams(s)[0]))

    for s, tr, fc in zip(seeds, trs, fcs):
        rng = fresh(s)
        want = [min(int(np.searchsorted(np.cumsum(p), rng.random(), "right")),
                    4) for p in tr.cond_dists]
        assert tr.sampled_indices.tolist() == want and len(want) == T
        assert fc.rng.bit_generator.state == rng.bit_generator.state
    if T == 0:
        return
    kernel, calls = swapcal.forecaster.ons_kernel, []

    def failing_kernel(*args):
        calls.append(1)
        if len(calls) == 3:
            raise NumericFailure("forced", residual=1.0)
        return kernel(*args)

    fcs = [BmForecaster(make_grid(4), 2, seed=s) for s in seeds]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(swapcal.forecaster, "ons_kernel", failing_kernel)
        calls.clear()
        with pytest.raises(NumericFailure):
            run_lockstep(fcs, streams)
    assert [fc.rng.bit_generator.state for fc in fcs] == [
        fresh(s).bit_generator.state for s in seeds]


def test_choose_n_values():
    assert choose_n(1000, 2, "smcal") == 4
    assert choose_n(1000, 2, "somni") == 4
    assert choose_n(1000, 2, "sreg") == 2
    assert choose_n(16384, 2, "smcal") == 9
    assert choose_n(1, 5, "smcal") == 1
    assert choose_n(10 ** 6, 1, "smcal") > choose_n(10 ** 6, 1, "sreg")
    with pytest.raises(ValueError):
        choose_n(100, 2, "mystery")
    with pytest.raises(ValueError):
        choose_n(0, 2, "smcal")
