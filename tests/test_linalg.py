import numpy as np
import pytest

from swapcal import (BmForecaster, NumericFailure, check_column_stochastic,
                     make_grid, project_ball_a_norm, stationary_distribution)
from swapcal import linalg


def _random_column_stochastic(rng, n):
    Q = rng.random((n, n)) ** 2 + 1e-12
    return Q / Q.sum(axis=0, keepdims=True)


def test_check_column_stochastic():
    check_column_stochastic(np.array([[0.3, 1.0], [0.7, 0.0]]))
    with pytest.raises(ValueError):
        check_column_stochastic(np.array([[0.3, 0.3], [0.8, 0.7]]))
    with pytest.raises(ValueError):
        check_column_stochastic(np.array([[-0.1, 0.0], [1.1, 1.0]]))
    with pytest.raises(ValueError):
        check_column_stochastic(np.ones((2, 3)))


def test_check_column_stochastic_names_each_fault():
    good = np.array([[0.3, 1.0], [0.7, 0.0]])
    for stack in (False, True):
        for bad_value, message in ((np.nan, "non-finite"),
                                   (np.inf, "non-finite"),
                                   (-np.inf, "non-finite"),
                                   (-0.1, "negative entry -0.1"),
                                   (0.2, "columns must sum")):
            Q = good.copy()
            Q[0, 0] = bad_value
            if bad_value == -0.1:
                Q[1, 0] = 1.1   # columns still sum to 1
            if stack:
                Q = np.array([good, Q, good])
            with pytest.raises(ValueError, match=message):
                check_column_stochastic(Q)
    # a tiny negative entry within -1e-12 is roundoff, not a fault
    check_column_stochastic(np.array([[-1e-13, 0.0], [1.0 + 1e-13, 1.0]]))


def test_stationary_known_chains():
    # constant columns: the column itself is stationary
    p = stationary_distribution(np.array([[0.4, 0.4], [0.6, 0.6]]))
    np.testing.assert_allclose(p, [0.4, 0.6], atol=1e-10)
    # swap chain averages out
    p = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-8)
    # identity fixes everything; the solver settles on uniform
    p = stationary_distribution(np.eye(3))
    np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-8)
    # three-cycle permutation
    C = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p = stationary_distribution(C)
    np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-8)


def test_stationary_single_state():
    np.testing.assert_array_equal(stationary_distribution(np.array([[1.0]])),
                                  [1.0])


def test_stationary_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        Q = _random_column_stochastic(rng, n)
        p = stationary_distribution(Q)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(Q @ p - p)) <= 1e-8


def test_stationary_near_degenerate():
    # two nearly absorbing states: mass splits by the tiny leak rates
    eps = 1e-9
    Q = np.array([[1.0 - eps, 2 * eps], [eps, 1.0 - 2 * eps]])
    p = stationary_distribution(Q)
    assert np.max(np.abs(Q @ p - p)) <= 1e-8
    np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-4)


def test_stationary_point_mass_columns():
    # every learner proposes cell 0: stationary must be the point mass
    Q = np.zeros((4, 4))
    Q[0] = 1.0
    p = stationary_distribution(Q)
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def _eig_stationary(Q):
    """Eigenvalue-1 eigenvector of Q, normalized to sum 1 (the oracle)."""
    vals, vecs = np.linalg.eig(Q)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return v / v.sum()


def test_stationary_tie_break_on_reducible_chains():
    """Several closed classes: the result is the minimum-norm stationary
    distribution, sum_i v_i / ||v_i||^2 normalized, where v_i is closed class
    i's own stationary distribution; transient states get no mass."""
    rng = np.random.default_rng(19)
    for _ in range(300):
        sizes = list(rng.integers(1, 4, size=int(rng.integers(2, 4))))
        n_closed = sum(sizes)
        n = n_closed + int(rng.integers(1, 4))
        Q = np.zeros((n, n))
        want = np.zeros(n)
        start = 0
        for k in sizes:
            block = _random_column_stochastic(rng, k)
            Q[start:start + k, start:start + k] = block
            v = _eig_stationary(block)
            want[start:start + k] = v / (v @ v)
            start += k
        # transient columns leak mass everywhere, closed classes included
        Q[:, n_closed:] = _random_column_stochastic(rng, n)[:, n_closed:]
        want /= want.sum()
        perm = rng.permutation(n)
        p = stationary_distribution(Q[np.ix_(perm, perm)])
        np.testing.assert_allclose(p, want[perm], atol=1e-10)


def test_stationary_matches_eigenvector_on_forecaster_matrices():
    rng = np.random.default_rng(23)
    T, d = 300, 3
    X = np.hstack([np.full((T, 1), 0.5), rng.uniform(-0.4, 0.4, (T, d - 1))])
    y = rng.integers(0, 2, T)
    fc = BmForecaster(make_grid(5), d, seed=23)
    checked = 0
    for x, yt in zip(X, y):
        out = fc.predict(x)
        fc.update(out, int(yt), x)
        Q, P = out.q_matrix, out.cond_dist
        if np.sum(np.abs(np.linalg.eigvals(Q) - 1.0) < 1e-6) != 1:
            continue  # eigenvalue 1 repeated: the eigenvector is not unique
        np.testing.assert_allclose(P, _eig_stationary(Q), atol=1e-10)
        checked += 1
    assert checked >= T // 2


def test_stationary_rejects_bad_input():
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[0.5, 0.5], [0.4, 0.5]]))


def _oracle_project(theta, A, radius, grid=4_000_000):
    """Independent bisection on ||(A + lam I)^{-1} A theta|| = radius."""
    if np.linalg.norm(theta) <= radius:
        return np.asarray(theta, dtype=float)
    lo, hi = 0.0, 1.0
    norm_at = lambda lam: np.linalg.norm(
        np.linalg.solve(A + lam * np.eye(len(theta)), A @ theta))
    while norm_at(hi) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > radius:
            lo = mid
        else:
            hi = mid
    return np.linalg.solve(A + hi * np.eye(len(theta)), A @ theta)


def test_projection_identity_curvature():
    out = project_ball_a_norm(np.array([5.0, 0.0]), np.eye(2), 4.0)
    np.testing.assert_allclose(out, [4.0, 0.0], atol=1e-8)


def test_projection_no_op_inside_ball():
    theta = np.array([1.0, -2.0])
    out = project_ball_a_norm(theta, np.eye(2) * 3.0, 4.0)
    np.testing.assert_array_equal(out, theta)


def test_projection_anisotropic_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        B = rng.normal(size=(d, d))
        A = B @ B.T + np.eye(d) * 0.05
        theta = rng.normal(size=d) * 3.0
        r = float(rng.uniform(0.5, 2.0))
        got = project_ball_a_norm(theta, np.linalg.inv(A), r)
        want = _oracle_project(theta, A, r)
        np.testing.assert_allclose(got, want, atol=1e-6)
        assert np.linalg.norm(got) <= r + 1e-7


def test_projection_is_optimal_in_a_norm():
    rng = np.random.default_rng(17)
    B = rng.normal(size=(3, 3))
    A = B @ B.T + 0.1 * np.eye(3)
    theta = rng.normal(size=3) * 4.0
    r = 1.5
    proj = project_ball_a_norm(theta, np.linalg.inv(A), r)
    dist = lambda u: float((u - theta) @ A @ (u - theta))
    base = dist(proj)
    for _ in range(500):
        cand = rng.normal(size=3)
        cand *= min(1.0, r / np.linalg.norm(cand))
        assert dist(cand) >= base - 1e-6


def _mixed_chain_stack(rng, count, n):
    """Random, reducible (closed classes first, then transient states) and
    point-mass chains of size n, with the transient cells of each."""
    Qs, transient = [], []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            Qs.append(_random_column_stochastic(rng, n))
            transient.append(np.zeros(n, dtype=bool))
        elif kind == 1:
            n_closed = int(rng.integers(2, n))
            Q = np.zeros((n, n))
            cut = int(rng.integers(1, n_closed))
            Q[:cut, :cut] = _random_column_stochastic(rng, cut)
            Q[cut:n_closed, cut:n_closed] = _random_column_stochastic(
                rng, n_closed - cut)
            Q[:, n_closed:] = _random_column_stochastic(rng, n)[:, n_closed:]
            Qs.append(Q)
            transient.append(np.arange(n) >= n_closed)
        else:
            Q = np.zeros((n, n))
            cell = int(rng.integers(n))
            Q[cell] = 1.0
            Qs.append(Q)
            transient.append(np.arange(n) != cell)
    return np.array(Qs), np.array(transient)


def test_stationary_on_a_stack_matches_per_matrix_calls():
    """Stacked and one-at-a-time solves agree bit for bit and match the
    eigenvector oracle. Transient cells get no mass: exactly 0 on the
    point-mass chains, and at most a few K eps of roundoff on random
    reducible ones, where about 1 % of chains keep an entry above the
    K eps cutoff."""
    rng = np.random.default_rng(29)
    for n in (3, 5, 8):
        Qs, transient = _mixed_chain_stack(rng, 60, n)
        # the stack mixes chains of both solve paths
        assert set(linalg.single_closed_class(Qs).tolist()) == {True, False}
        P = stationary_distribution(Qs)
        assert P.shape == (60, n)
        np.testing.assert_array_equal(
            P, np.array([stationary_distribution(Q) for Q in Qs]))
        assert (P[2::3][transient[2::3]] == 0.0).all()
        assert P[transient].max() <= 4 * n * np.finfo(float).eps
        for Q, p in zip(Qs, P):
            if np.sum(np.abs(np.linalg.eigvals(Q) - 1.0) < 1e-6) == 1:
                np.testing.assert_allclose(p, _eig_stationary(Q), atol=1e-10)
    stack = stationary_distribution(Qs.reshape(6, 10, 8, 8))
    np.testing.assert_array_equal(stack.reshape(60, 8), P)


def test_stationary_stack_failure_carries_the_worst_residual(monkeypatch):
    rng = np.random.default_rng(31)
    Qs = np.array([_random_column_stochastic(rng, 6) for _ in range(20)])
    P = stationary_distribution(Qs)
    worst = float(np.max(np.abs(np.einsum("kij,kj->ki", Qs, P) - P)))
    monkeypatch.setattr(linalg, "STATIONARY_TOL", worst / 2)
    with pytest.raises(NumericFailure) as info:
        stationary_distribution(Qs)
    assert info.value.residual == pytest.approx(worst, rel=1e-6)


EPS = np.finfo(float).eps


def _gth(Q):
    """Stationary distribution of an irreducible column-stochastic Q by
    Grassmann-Taksar-Heyman elimination (1985). It never subtracts, so it is
    accurate entry by entry even on nearly reducible chains: the oracle."""
    P = np.array(Q, dtype=float).T  # row-stochastic
    n = len(P)
    for k in range(n - 1, 0, -1):
        P[:k, k] /= P[k, :k].sum()
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ P[:k, k]
    return pi / pi.sum()


def _svd_path(Q):
    """stationary_distribution of one chain as the SVD path gives it."""
    p = linalg._min_norm(Q[None])[0]
    p[p <= len(Q) * EPS] = 0.0
    return p / p.sum()


def test_certificate_reads_reachability():
    """One closed class (some state reachable from all) is certified:
    irreducible chains, a closed class with transient states, a point mass.
    Q = I, two closed classes, and a link of at most K eps are not."""
    cycle = np.roll(np.eye(6), 1, axis=0)  # the longest path takes 5 steps
    absorbing = np.triu(np.ones((4, 4))) / np.arange(1, 5)
    point = np.zeros((3, 3))
    point[1] = 1.0
    two = np.kron(np.eye(2), [[0.5, 0.5], [0.5, 0.5]])
    weak = two.copy()
    weak[:, 0] = [0.5 - 4 * EPS, 0.5, 4 * EPS, 0.0]  # 4 eps = K eps
    for Q, want in ((cycle, True), (absorbing, True), (point, True),
                    (np.eye(3), False), (two, False), (weak, False),
                    (np.array([[1.0]]), True)):
        assert bool(linalg.single_closed_class(Q)) is want
    weak[:, 0] = [0.5 - 5 * EPS, 0.5, 5 * EPS, 0.0]
    weak[:, 2] = [5 * EPS, 0.0, 0.5 - 5 * EPS, 0.5]
    assert linalg.single_closed_class(np.array([weak, two])).tolist() == [
        True, False]


def _one_closed_class_by_search(Q):
    """Breadth-first search from each state over the links j -> i with
    Q[i, j] > K eps: whether some state is reachable from every state."""
    K = len(Q)
    reached_by = np.zeros((K, K), dtype=bool)  # [i, j]: j reaches i
    for j in range(K):
        seen, frontier = {j}, [j]
        while frontier:
            frontier = [i for k in frontier
                        for i in np.flatnonzero(Q[:, k] > K * EPS)
                        if i not in seen]
            seen.update(frontier)
        reached_by[sorted(seen), j] = True
    return bool(reached_by.all(axis=1).any())


def test_certificate_matches_reachability_search():
    """The certificate's squarings reach every path the search does: random
    sparse chains at K = 1..12 (stacked and one by one), and the paths
    i -> i - 1 into an absorbing state 0, whose last state needs all K - 1
    steps, at K = 1..20."""
    rng = np.random.default_rng(43)
    seen = set()
    for K in range(1, 13):
        odds = rng.choice([0.0, 0.1, 0.3], size=(40, 1, 1))
        Q = rng.random((40, K, K)) * (rng.random((40, K, K)) < odds)
        # each column links to one random state, and to each other w.p. odds
        Q[np.arange(40)[:, None], rng.integers(K, size=(40, K)),
          np.arange(K)] += 1.0
        Q /= Q.sum(axis=1, keepdims=True)
        want = [_one_closed_class_by_search(q) for q in Q]
        assert linalg.single_closed_class(Q).tolist() == want
        assert [bool(linalg.single_closed_class(q)) for q in Q] == want
        seen.update(want)
    assert seen == {True, False}
    for K in range(1, 21):
        path = np.eye(K, k=1)
        path[0, 0] = 1.0
        assert _one_closed_class_by_search(path)
        assert bool(linalg.single_closed_class(path))


def test_square_solve_matches_gth_on_irreducible_chains():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        Q = _random_column_stochastic(rng, n)
        Q[rng.random((n, n)) < 0.5] = 0.0  # sparse, mostly irreducible
        Q += np.roll(np.eye(n), 1, axis=0)  # a cycle keeps it irreducible
        Q /= Q.sum(axis=0)
        assert linalg.single_closed_class(Q)
        p = stationary_distribution(Q)
        np.testing.assert_allclose(p, _gth(Q), atol=1e-12)
        np.testing.assert_allclose(p, _svd_path(Q), atol=1e-12)


def test_near_reducible_chains_on_both_paths():
    """Two irreducible blocks, each column leaking c to the other block,
    for c from 1e-17 to 1e-8. A leak above K eps is certified and solved
    square: it agrees with the GTH oracle and with the SVD path to about
    eps / c, the conditioning of the chain. A leak at most K eps is read as
    0: the chain takes the SVD path and its min-norm tie-break, bit for
    bit."""
    rng = np.random.default_rng(43)
    for c in 10.0 ** np.arange(-17, -7):
        for _ in range(30):
            n1, n2 = (int(v) for v in rng.integers(1, 4, size=2))
            K = n1 + n2
            Q = np.zeros((K, K))
            Q[:n1, :n1] = _random_column_stochastic(rng, n1)
            Q[n1:, n1:] = _random_column_stochastic(rng, n2)
            Q *= 1.0 - c
            for j in range(K):
                Q[int(rng.integers(n1, K)) if j < n1
                  else int(rng.integers(n1)), j] = c
            perm = rng.permutation(K)
            Q = Q[np.ix_(perm, perm)]
            square = bool(linalg.single_closed_class(Q))
            assert square == (c > K * EPS)
            p = stationary_distribution(Q)
            if square:
                tol = K * EPS / c
                np.testing.assert_allclose(p, _gth(Q), atol=tol)
                np.testing.assert_allclose(p, _svd_path(Q), atol=tol)
            else:
                np.testing.assert_array_equal(p, _svd_path(Q))


def test_linalg_error_sends_only_its_chain_to_the_svd_path(monkeypatch):
    """A certified chain whose square solve raises LinAlgError takes the SVD
    path, chain by chain: the other chains of its stack keep their square
    solves, and the stack equals the one-at-a-time calls bit for bit."""
    rng = np.random.default_rng(47)
    Qs = np.array([_random_column_stochastic(rng, 4) for _ in range(4)]
                  + [np.eye(4)])
    before = stationary_distribution(Qs)
    solve, failing = np.linalg.solve, Qs[2] - np.eye(4)
    failing[-1] = 1.0

    def flaky_solve(A, b):
        if any(np.array_equal(a, failing) for a in A):
            raise np.linalg.LinAlgError("forced")
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", flaky_solve)
    P = stationary_distribution(Qs)
    np.testing.assert_array_equal(
        P, np.array([stationary_distribution(Q) for Q in Qs]))
    for i in (0, 1, 3):
        np.testing.assert_array_equal(P[i], before[i])
    for i in (2, 4):
        np.testing.assert_array_equal(P[i], _svd_path(Qs[i]))
    np.testing.assert_allclose(P[2], before[2], atol=1e-12)
    # without the certified chain that fails, no chain is routed
    np.testing.assert_array_equal(stationary_distribution(Qs[[0, 1, 3, 4]]),
                                  before[[0, 1, 3, 4]])

    def batch_failing_solve(A, b):
        if len(A) > 1:
            raise np.linalg.LinAlgError("forced")
        return solve(A, b)

    # a batched solve that fails for the stack's sake alone: every chain
    # still solves square, alone
    monkeypatch.setattr(np.linalg, "solve", batch_failing_solve)
    np.testing.assert_array_equal(stationary_distribution(Qs), before)


def test_stationary_empty_stack_and_single_state():
    assert stationary_distribution(np.zeros((0, 3, 3))).shape == (0, 3)
    assert stationary_distribution(np.zeros((2, 0, 3, 3))).shape == (2, 0, 3)
    np.testing.assert_array_equal(stationary_distribution(np.ones((4, 1, 1))),
                                  np.ones((4, 1)))
    assert linalg.single_closed_class(np.ones((2, 1, 1))).tolist() == [
        True, True]


def test_check_column_stochastic_on_a_stack():
    good = np.array([np.eye(2), [[0.3, 1.0], [0.7, 0.0]]])
    np.testing.assert_array_equal(check_column_stochastic(good), good)
    bad = good.copy()
    bad[1, 0, 0] = 0.4
    with pytest.raises(ValueError, match="sum to 1"):
        check_column_stochastic(bad)
    with pytest.raises(ValueError, match="square"):
        check_column_stochastic(np.ones((2, 2, 3)))


def test_ridge_to_sphere_stall_paths(monkeypatch):
    """A badly conditioned A (eigenvalues 1 and 1e-3) cut off after a few
    halvings: the best iterate is returned when it is within 1e-6 of the
    sphere, and a gap above that raises NumericFailure carrying it."""
    A, b = np.diag([1.0, 1e-3]), np.array([3.0, 1.0])
    monkeypatch.setattr(linalg, "RIDGE_MAX_ITER", 2)
    with pytest.raises(NumericFailure, match="stalled") as info:
        linalg.ridge_to_sphere(A, b, 1.0)
    assert info.value.residual == pytest.approx(0.0155, abs=1e-4)
    monkeypatch.setattr(linalg, "RIDGE_MAX_ITER", 20)
    gap = abs(np.linalg.norm(linalg.ridge_to_sphere(A, b, 1.0)) - 1.0)
    assert linalg.RIDGE_TOL < gap <= 1e-6
    assert gap == pytest.approx(4.8e-7, rel=0.01)
