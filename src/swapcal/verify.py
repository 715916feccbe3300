"""Self-contained checks of the guarantees the library is built on.

Each check prints one [PASS]/[FAIL] line; run_all returns a process exit
code. Check k draws its data from its own generator, check_rng(k), so it
runs the same alone as in the suite, which finishes in about a second.

The claims that the acceptance checklist also states are public here and
sized by their arguments; the checklist runs them on its own seeds and
larger data: rounding, decomposition, witness, cal_below_reg, norm_chain
and determinism, with post_process shared by the unit tests.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

import numpy as np

from .core import LinearFn, Transcript, finite_class, linear_ball, make_grid
from .forecaster import rround
from .harness import AdversarySpec, simulate_run
from .linalg import (RIDGE_TOL, project_ball_a_norm, single_closed_class,
                     stationary_distribution)
from .metrics import (DEFAULT_LOSSES, bm_external_regrets, psmcal, psreg,
                      smcal, witness_f_prime)
from .ons import OMEGA, RADIUS, ons_kernel, ons_step

SEED = 123


def ball_point(rng, d, radius):
    """Uniform draw from the radius ball in d dimensions."""
    v = rng.normal(size=d)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros(d)
    return v * (radius * rng.random() ** (1.0 / d) / norm)


def random_transcript(rng, T, d, n):
    """Transcript with arbitrary simplex rows, not tied to any forecaster;
    contexts keep the pinned first coordinate 1/2."""
    tails = [ball_point(rng, d - 1, 0.85) for _ in range(T)] if d > 1 else []
    X = np.hstack([np.full((T, 1), 0.5), np.reshape(tails, (T, d - 1))])
    P = rng.random((T, n + 1))
    P /= P.sum(axis=1, keepdims=True)
    idx = rng.integers(0, n + 1, size=T)
    y = rng.integers(0, 2, size=T)
    return Transcript(make_grid(n), X, P, idx, y)


def _rotating_spec(rng, k):
    """Run k's adversary: logistic, Bernoulli and anti-calibration in turn,
    the first two with a drawn noise or bias."""
    kind = ("iid-logistic", "iid-bernoulli", "anti-calibration")[k % 3]
    if kind == "iid-logistic":
        return AdversarySpec(kind, noise=float(rng.random() * 0.3))
    if kind == "iid-bernoulli":
        return AdversarySpec(kind, bias=float(0.1 + 0.8 * rng.random()))
    return AdversarySpec(kind)


def rounding(ns, points):
    """For each N in ns and `points` p evenly over [0, 1], rounding keeps
    the mean and costs 0..1/N^2 extra squared loss against either label,
    and the per-cell identity (p - z_i)(z_{i+1} - p) = (p - z_i)/N -
    (p - z_i)^2 holds in floating point; all to 1e-12."""
    ps = np.linspace(0.0, 1.0, points)
    min_excess = min_margin = np.inf
    mean_gap = identity = 0.0
    for n in ns:
        grid = make_grid(n)
        z = grid.points
        lo = np.minimum((ps * n).astype(int), n - 1)
        off = ps - z[lo]
        resid = np.abs(off * (z[lo + 1] - ps) - (off / n - off * off))
        identity = max(identity, float(resid.max()))
        q = rround(ps, grid)
        mean_gap = max(mean_gap, float(np.max(np.abs(z @ q - ps))))
        for y in (0.0, 1.0):
            excess = (z - y) ** 2 @ q - (ps - y) ** 2
            min_excess = min(min_excess, float(excess.min()))
            min_margin = min(min_margin, float((1.0 / (n * n) - excess).min()))
    ok = (mean_gap <= 1e-12 and min_excess >= -1e-12 and min_margin >= -1e-12
          and identity <= 1e-12)
    return ok, (f"min excess {min_excess:.1e}, identity residual "
                f"{identity:.1e}, mean gap {mean_gap:.1e}")


def _check_stationary(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        Q = rng.random((n, n)) ** 2
        Q /= Q.sum(axis=0, keepdims=True)
        p = stationary_distribution(Q)
        res = float(np.max(np.abs(Q @ p - p)))
        if res > 1e-8 or abs(p.sum() - 1.0) > 1e-12 or p.min() < 0:
            return False, f"residual {res:.2e}"
    # known fixed points, one stack: constant columns (0.4, 0.6), swap chain
    p = stationary_distribution([[[0.4, 0.4], [0.6, 0.6]],
                                 [[0.0, 1.0], [1.0, 0.0]]])
    if (abs(p - [[0.4, 0.6], [0.5, 0.5]]).max(axis=1) > [1e-10, 1e-8]).any():
        return False, f"known chains gave {p.tolist()}"
    # chains off the square solve, by the min-norm tie-break: Q = I is
    # uniform; closed classes (0.4, 0.6) and (0.5, 0.5) over a transient
    # column split in proportion to 1 / ||v_i||^2; a point mass is certified
    two_block = np.zeros((5, 5))
    two_block[:2, :2] = [[0.4, 0.4], [0.6, 0.6]]
    two_block[2:4, 2:4] = [[0.0, 1.0], [1.0, 0.0]]
    two_block[:, 4] = 0.2
    point_mass = np.zeros((5, 5))
    point_mass[2] = 1.0
    chains = np.array([np.eye(5), two_block, point_mass])
    want = np.array([[0.2] * 5, [0.4 / 0.52, 0.6 / 0.52, 1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0, 0.0]])
    want[1] /= want[1].sum()
    p = stationary_distribution(chains)
    if single_closed_class(chains).tolist() != [False, False, True] or \
            abs(p - want).max() > 1e-10:
        return False, f"reducible chains gave {p.tolist()}"
    return True, "residuals within 1e-8, both solve paths"


def _check_rank_one(rng):
    # the learner kernel's stored inverse, from a fresh learner on random
    # rounds, against the dense inverse of omega I + sum g g^T, relative to
    # what the updates changed, which omega I would swamp
    for _ in range(25):
        d = int(rng.integers(1, 9))
        A = OMEGA * np.eye(d)
        theta, inv = np.zeros((1, d)), np.eye(d)[None] / OMEGA
        for _ in range(60):
            x, alpha = ball_point(rng, d, 1.0), float(rng.random())
            y = float(rng.integers(0, 2))
            g = 2.0 * alpha * (theta[0] @ x - y) * x
            A += np.outer(g, g)
            theta, inv = ons_kernel(theta, inv, x, alpha, y)
        dense = np.linalg.inv(A)
        err = (np.linalg.norm(inv[0] - dense)
               / np.linalg.norm(dense - np.eye(d) / OMEGA))
        if err > 1e-8:
            return False, f"relative drift {err:.2e}"
    return True, "matches dense inverse to 1e-8"


def _check_projection(rng):
    for _ in range(40):
        d = int(rng.integers(1, 7))
        B = rng.normal(size=(d, d))
        A = B @ B.T + np.eye(d) * 0.1
        Minv = np.linalg.inv(A)
        theta = rng.normal(size=d) * 4.0
        r = 2.0
        proj = project_ball_a_norm(theta, Minv, r)
        if np.linalg.norm(proj) > r + 1e-7:
            return False, f"left the ball: {np.linalg.norm(proj):.6f}"

        def a_dist(u):
            v = u - theta
            return float(v @ A @ v)

        base = a_dist(proj)
        for _ in range(30):
            cand = rng.normal(size=d)
            nc = np.linalg.norm(cand)
            if nc > r:
                cand = cand / nc * r
            if a_dist(cand) < base - 1e-6:
                return False, "a feasible point beat the projection"
    return True, "optimal among sampled feasible points"


def _check_ons(rng):
    # one hand-checked step
    theta, _ = ons_step(np.zeros(1), np.eye(1) / OMEGA, np.array([0.5]),
                        1.0, 1)
    want = 640.0 / 102401.0
    if abs(theta[0] - want) > 1e-15:
        return False, f"first step gave {theta[0]!r}, wanted {want!r}"
    # short contexts along theta with y = 1 pull theta outward from near the
    # sphere, so the A-norm projection runs: the stored inverse curvature
    # must stay the inverse of omega I + sum g g^T, and theta in the ball
    on_sphere, runs = 0, {}
    for _ in range(10):
        d = int(rng.integers(1, 5))
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        theta, inv, A = 3.95 * u, np.eye(d) / OMEGA, OMEGA * np.eye(d)
        X, alphas = np.empty((300, d)), np.empty(300)
        for t in range(300):
            X[t] = x = 0.2 * u + 0.05 * rng.normal(size=d)
            alphas[t] = alpha = float(rng.random())
            g = 2.0 * alpha * (theta @ x - 1.0) * x
            A += np.outer(g, g)
            theta, inv = ons_step(theta, inv, x, alpha, 1)
            nrm = float(np.linalg.norm(theta))
            if nrm > RADIUS + RIDGE_TOL:
                return False, f"theta left the ball: norm {nrm!r}"
            on_sphere += nrm > RADIUS - 1e-6
        dense = np.linalg.inv(A)
        # relative to what the updates changed, which omega I would swamp
        err = (np.linalg.norm(inv - dense)
               / np.linalg.norm(dense - np.eye(d) / OMEGA))
        if err > 1e-8:
            return False, f"inverse curvature off the dense one by {err:.2e}"
        runs.setdefault(d, []).append(
            (3.95 * u, np.eye(d) / OMEGA, X, alphas, theta, inv))
    if not on_sphere:
        return False, "no step reached the sphere"
    # the scenarios of one dimension, run as one stack through the round
    # loop's kernel, must give the scalar chain's learners bit for bit
    for d, group in runs.items():
        thetas, invs, X, alphas, *want = map(np.array, zip(*group))
        for t in range(300):
            thetas, invs = ons_kernel(thetas, invs, X[:, t], alphas[:, t], 1.0)
        if not all(map(np.array_equal, (thetas, invs), want)):
            return False, f"stacked kernel left the ons_step chain at d={d}"
    return True, (f"hand value, dense inverse to 1e-8, ball kept over "
                  f"{on_sphere} steps on the sphere, stacked kernel bitwise")


def decomposition_runs(rng, runs, max_T):
    """`runs` forecaster runs, T in 20..max_T, each with a finite class of
    1..20 points of the radius-4 ball: pairs (transcript, class)."""
    pairs = []
    for k in range(runs):
        n, T = int(rng.integers(1, 5)), int(rng.integers(20, max_T + 1))
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 21))
        hc = finite_class([ball_point(rng, d, 4.0) for _ in range(m)])
        pairs.append((simulate_run(_rotating_spec(rng, k), T, d, n,
                                   seed=1000 + k), hc))
    return pairs


def decomposition(pairs):
    """Pseudo swap regret never exceeds the summed per-cell learner regrets
    of the reduction (to 1e-8)."""
    worst = max(psreg(tr, hc).value - np.sum(bm_external_regrets(tr, hc))
                for tr, hc in pairs)
    return worst <= 1e-8, f"worst violation {worst:.1e}"


def witness(rng, instances):
    """On `instances` (cell, weights) pairs of random transcripts, pseudo and
    realized weights in turn, a unit-ball f with cell correlation alpha
    (at least 1e-6) distills to a witness bounded by 2 that improves the
    weighted squared loss by at least alpha^2 (to 1e-9)."""
    count, worst_range, worst_margin = 0, 0.0, np.inf
    while count < instances:
        T, d, n = (int(rng.integers(10, 80)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 5)))
        tr = random_transcript(rng, T, d, n)
        v = rng.normal(size=d)
        theta = v / max(1.0, float(np.linalg.norm(v)))
        y = tr.outcomes.astype(float)
        fx = tr.contexts @ theta
        for cell, pseudo in itertools.product(range(n + 1), (True, False)):
            if count >= instances:
                break
            w = (tr.cond_dists[:, cell] if pseudo
                 else (tr.sampled_indices == cell).astype(float))
            mass = float(w.sum())
            if mass <= 0.0:
                continue
            corr = float(np.sum(w * fx * (y - tr.grid.points[cell]))) / mass
            if abs(corr) < 1e-6:
                continue
            fn, improvement = witness_f_prime(
                tr, cell, LinearFn(theta if corr > 0 else -theta),
                use_pseudo=pseudo)
            worst_range = max(worst_range,
                              float(np.max(np.abs(fn(tr.contexts)))))
            worst_margin = min(worst_margin, improvement - corr ** 2)
            count += 1
    ok = worst_range <= 2.0 + 1e-12 and worst_margin >= -1e-9
    return ok, f"max |f'| {worst_range:.4f}, min margin {worst_margin:.1e}"


def cal_transcripts(rng, runs, max_T):
    """`runs` transcripts: of every five, three random (T in 20..max_T) and
    two forecaster runs (T in 30..max_T), up to 6 cells."""
    out = []
    for k in range(runs):
        if k % 5 < 3:
            out.append(random_transcript(
                rng, int(rng.integers(20, max_T + 1)), int(rng.integers(1, 4)),
                int(rng.integers(1, 7))))
        else:
            spec = _rotating_spec(rng, k)
            out.append(simulate_run(
                spec, int(rng.integers(30, max_T + 1)),
                int(rng.integers(1, 4)), int(rng.integers(1, 7)),
                seed=5000 + k))
    return out


def cal_below_reg(transcripts):
    """Pseudo calibration against the unit ball (q=2) never exceeds pseudo
    swap regret against the radius-4 ball (to 1e-6)."""
    worst = max(psmcal(tr, linear_ball(1.0), 2).value
                - psreg(tr, linear_ball(4.0)).value for tr in transcripts)
    return worst <= 1e-6, f"worst violation {worst:.1e}"


def norm_chain(transcripts):
    """The q=1 calibration errors, realized and pseudo, are at most
    sqrt(T times the q=2 ones) against the unit ball (to 1e-9)."""
    b1 = linear_ball(1.0)
    worst = np.inf
    for tr in transcripts:
        T = tr.horizon
        worst = min(worst,
                    float(np.sqrt(T * smcal(tr, b1, 2).value)) + 1e-9
                    - smcal(tr, b1, 1).value,
                    float(np.sqrt(T * psmcal(tr, b1, 2).value)) + 1e-9
                    - psmcal(tr, b1, 1).value)
    return worst >= 0.0, f"min margin {worst:.1e}"


def post_process(rng, losses, qs):
    """For qs uniform draws of q per loss, post_process(q) does as well as
    the best k on a 1e-4 grid of [0, 1] (to 1e-12)."""
    grid01 = np.linspace(0.0, 1.0, 10001)
    for loss in losses:
        for q in rng.random(qs):
            k = loss.post_process(float(q))
            best = float(np.min(q * loss(grid01, 1)
                                + (1 - q) * loss(grid01, 0)))
            got = q * loss(k, 1) + (1 - q) * loss(k, 0)
            if got > best + 1e-12:
                return False, f"post_process lost {got - best:.2e} on " \
                              f"{loss.name}"
    return True, "matches exhaustive grid minimum"


def determinism(T, d, n):
    """Two runs on seed 7 write byte-identical transcript files; seed 8
    moves the sampled cells or the outcomes."""
    spec = AdversarySpec("iid-logistic", noise=0.1)
    runs = [simulate_run(spec, T, d, n, seed=s) for s in (7, 7, 8)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"{k}.jsonl") for k in range(3)]
        for tr, path in zip(runs, paths):
            tr.write_jsonl(path)
        same = paths[0].read_bytes() == paths[1].read_bytes()
    a, _, c = runs
    moved = not (np.array_equal(a.sampled_indices, c.sampled_indices)
                 and np.array_equal(a.outcomes, c.outcomes))
    return same and moved, (f"transcripts {'==' if same else '!='}, seeds "
                            f"{'differ' if moved else 'agree'}")


CHECKS = (
    ("rounding keeps means, bounded excess",
     lambda rng: rounding((1, 2, 3, 7, 16, 64), 201)),
    ("stationary distributions", _check_stationary),
    ("rank-one inverse updates", _check_rank_one),
    ("curvature-norm ball projection", _check_projection),
    ("newton-step learner", _check_ons),
    ("swap regret decomposition",
     lambda rng: decomposition(decomposition_runs(rng, 12, 80))),
    ("halfspace witness improvement", lambda rng: witness(rng, 200)),
    ("calibration below swap regret",
     lambda rng: cal_below_reg(cal_transcripts(rng, 10, 120))),
    ("norm inequality chains",
     lambda rng: norm_chain([tr for tr, _ in decomposition_runs(rng, 6, 80)]
                            + cal_transcripts(rng, 5, 120))),
    ("loss post-processing",
     lambda rng: post_process(rng, DEFAULT_LOSSES, 40)),
    ("seeded determinism", lambda rng: determinism(60, 2, 3)),
)


def check_rng(k):
    """Check k's own generator, child k of SeedSequence(SEED): its data does
    not depend on the checks that run before it."""
    return np.random.default_rng(
        np.random.SeedSequence(SEED).spawn(len(CHECKS))[k])


def run_all():
    failures = 0
    for k, (name, check) in enumerate(CHECKS):
        try:
            ok, detail = check(check_rng(k))
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(run_all())
