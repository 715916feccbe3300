#!/usr/bin/env python3
"""Time one forecaster round layer by layer, and sweep rows, for one or
more source trees.

    python tools/bench_round.py --src src --label change
    python tools/bench_round.py --src OLD/src --label parent \
        --src src --label change --reps 7 --out BENCH_round.json

Each source tree is timed in its own worker process, which imports swapcal
from that tree only. The workers of the trees alternate, rep by rep, so a
machine whose speed drifts slows every tree alike. The oldest tree a worker
can time is one whose BmForecaster keeps its learners as the arrays thetas
(K, d) and inv_curvatures (K, d, d) and whose ons_step takes (theta,
inv_curvature, x, alpha, y). A worker that fails stops the run: the tool
prints the tree's label and the last lines of the worker's stderr and
exits 1.

A worker replays a fixed iid-logistic stream (seed 0, noise 0.1, d = 5,
N = 7): 256 warm-up rounds, then the inputs of the next 256 rounds are
recorded and each kernel is timed on them, in microseconds per call, as the
best of three passes:

- stationary_distribution, rround, sample_cell and commit_round, once per
  round;
- ons_step with alpha > 0 and with alpha = 0, once per (round, cell); the
  alpha > 0 timing is the ONS update layer, rank-one update included.

It then times whole rounds (predict + update) of a fresh forecaster over
1024 rounds at (d = 2, N = 4) and (d = 5, N = 7), in microseconds per round,
and metrics.per_cell_omni_gap (affine class, default loss menu), in
microseconds per call, on two fixed inputs:

- somni-shaped: realized weights of a T = 4096, d = 2 iid-logistic
  transcript (seed 3, N = choose_n(4096, 2, "smcal"));
- dsomni-shaped: exhaustive bucket weights of a mixture trained on
  T = 512 rounds (stride 8, seed 10) over M = 32 test points (seed 11).

On the somni-shaped transcript it also times Transcript.write_jsonl and
Transcript.read_jsonl, in microseconds per call, on a file in a temporary
directory.

It times the stacked learner kernel of the round loop (ons.ons_kernel,
or ons.ons_steps in a tree whose loop calls that), in microseconds per
call, on the arguments lockstep_rounds passes it (recorded by wrapping it
where the loop looks it up, in swapcal.forecaster) in the 256 lockstep
rounds that follow 256 warm-up rounds of R forecasters (seeds 0..R-1,
iid-logistic streams with noise 0.1 on the same seeds) at (R, K, d) =
(1, 8, 5), (2, 5, 2) and (30, 5, 2); the entry is null for a tree without
the stacked kernel. From the same recording it takes the Q stacks the loop
passes its stationary solve (linalg.stationary_solve, or
stationary_distribution in a tree whose loop calls that). It times
linalg.single_closed_class, the certificate that picks each chain's path,
on them at all three shapes (null for a tree without it); at (R, K) =
(2, 5) and (30, 5) it times the loop's solve and counts the chains that
reach the batched SVD (by wrapping numpy.linalg.svd) against those solved
square.

Last, it times harness.run_sweep on a fresh table for one horizon,
T = 1024, d = 2, smcal2:ball1 with auto-smcal N, seeds 0..reps-1, at 2 and
at 30 reps, in microseconds per sweep row: at 2 reps as the best of
PASSES calls, like every other kernel, since one call is short enough for
a swing in host speed to decide it; at 30 reps in one call (it runs for
seconds).

The result holds, per label, the median, quartiles and minimum over the
reps (null for a kernel the tree lacks), the stationary path counts of
the first rep (they are the same in every rep), and the ratio of each later
label's median to the first one's (null when either side is null), with
the core count and the Python and numpy versions. Next to that ratio it
gives the paired ratios: in each rep, a later label's time over the first
label's time from the worker that ran just before it. Each time is already
a best of passes, and a swing in host speed slows both sides of a pair,
so the median paired ratio and the count of pairs the later label won
hold up where the ratio of medians does not. A ratio is listed as
unresolved when the later median lies inside the first label's
interquartile range: the reps cannot tell the two apart. Below
MIN_SPREAD_REPS reps that range rests on one to three values and says
nothing, so the unresolved entry is null. Only numpy and the source trees
are needed.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from unittest import mock

import numpy as np

WARMUP, RECORD, ROUND_T, PASSES = 256, 256, 1024, 3
ROUND_SHAPES = ((2, 4), (5, 7))
SWEEP_T, SWEEP_CALLS = 1024, {2: PASSES, 30: 1}  # reps: calls, best kept
KERNEL_SHAPES = ((1, 7, 5), (2, 4, 2), (30, 4, 2))  # (R, N, d), K = N + 1
STATIONARY_SHAPES = ((2, 4, 2), (30, 4, 2))
MIN_SPREAD_REPS = 4
STDERR_TAIL = 12  # lines of a failed worker's stderr to show


def _best_us(fn, args_list):
    """Best over PASSES of the mean time per call of fn over args_list."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter_ns()
        for args in args_list:
            fn(*args)
        best = min(best, (time.perf_counter_ns() - t0) / len(args_list))
    return best / 1e3


def summary(values):
    """Median, quartiles and minimum of one kernel's times over the reps,
    or None when a rep has no time for it."""
    if None in values:
        return None
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median_us": float(median), "q1_us": float(q1),
            "q3_us": float(q3), "min_us": min(values)}


def unresolved(base, other):
    """Kernels whose median in other lies inside base's interquartile range,
    so their ratio is within the noise of the base reps."""
    return [k for k, s in other.items() if s and base[k]
            and base[k]["q1_us"] <= s["median_us"] <= base[k]["q3_us"]]


def compare(results, labels, reps):
    """The ratio of each later label's medians to the first label's, and
    the kernels whose ratio is unresolved (None below MIN_SPREAD_REPS
    reps), keyed by the first label as the output document holds them."""
    base = results[labels[0]]
    return {
        "median_ratio_to_" + labels[0]: {
            label: {k: round(results[label][k]["median_us"]
                             / base[k]["median_us"], 4)
                    if results[label][k] and base[k] else None for k in base}
            for label in labels[1:]},
        "unresolved_vs_" + labels[0]: None if reps < MIN_SPREAD_REPS else {
            label: unresolved(base, results[label]) for label in labels[1:]},
    }


def paired(base, other):
    """For one kernel, other's time over base's time in each rep, their
    median and the reps other was faster; None when a rep of either side
    has no time."""
    if None in base or None in other:
        return None
    ratios = [round(b / a, 4) for a, b in zip(base, other)]
    return {"median": float(np.median(ratios)), "per_rep": ratios,
            "wins": sum(r < 1.0 for r in ratios)}


def paired_ratios(runs, labels):
    """paired() for each later label and kernel against the first label,
    keyed by the first label as the output document holds them."""
    base = runs[labels[0]]
    return {"paired_ratio_to_" + labels[0]: {
        label: {k: paired([r["us"][k] for r in base],
                          [r["us"][k] for r in runs[label]])
                for k in base[0]["us"]}
        for label in labels[1:]}}


def sweep_us(reps):
    """Microseconds per row of one run_sweep call on a fresh table."""
    from swapcal import SweepConfig, run_sweep
    cfg = SweepConfig(T_list=[SWEEP_T], d=2, reps=reps, metric="smcal2:ball1",
                      n_rule="auto-smcal")
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter_ns()
        run_sweep(cfg, out_path=os.path.join(tmp, "rows.csv"))
        return (time.perf_counter_ns() - t0) / reps / 1e3


def loop_kernel():
    """The name of the stacked learner kernel lockstep_rounds calls, or
    None for a tree whose loop has none."""
    import swapcal.forecaster
    return next((name for name in ("ons_kernel", "ons_steps")
                 if hasattr(swapcal.forecaster, name)), None)


def loop_solve():
    """The name of the stationary solve commit_round calls: the unchecked
    stationary_solve, or stationary_distribution in a tree without it."""
    import swapcal.forecaster
    return next(name for name in ("stationary_solve",
                                  "stationary_distribution")
                if hasattr(swapcal.forecaster, name))


def loop_rows(R, n, d):
    """The arguments of the learner kernel and of the stationary solve
    calls that lockstep_rounds makes for R forecasters, recorded from the
    loop itself, after WARMUP rounds."""
    import swapcal.forecaster
    from swapcal import (AdversarySpec, BmForecaster, generate_stream,
                         lockstep_rounds, make_grid)
    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    streams = [generate_stream(spec, WARMUP + RECORD, d, seed=r)
               for r in range(R)]
    fcs = [BmForecaster(make_grid(n), d, seed=r) for r in range(R)]
    loop, name, solve = swapcal.forecaster, loop_kernel(), loop_solve()
    with mock.patch.object(loop, name, wraps=getattr(loop, name)) as kernel, \
            mock.patch.object(loop, solve,
                              wraps=getattr(loop, solve)) as stat:
        for _ in lockstep_rounds(fcs, streams):
            pass
    return ([call.args for call in kernel.call_args_list[WARMUP:]],
            [call.args for call in stat.call_args_list[WARMUP:]])


def svd_chains(solve, rows):
    """How many chains of the stacks in rows solve solves without
    ("square") and with ("svd") the batched SVD."""
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        for args in rows:
            solve(*args)
    chains = sum(args[0][..., 0, 0].size for args in rows)
    svd = sum(call.args[0][..., 0, 0].size for call in svd.call_args_list)
    return {"square": chains - svd, "svd": svd}


def run_worker(src, label):
    """{kernel: us} from one worker process on the source tree src. If the
    worker fails, print label and its stderr's last lines and exit 1."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker", "--src", src],
                          capture_output=True, text=True)
    if proc.returncode:
        tail = proc.stderr.strip().splitlines()[-STDERR_TAIL:]
        sys.exit(f"error: the worker for {label} ({src}) exited "
                 f"{proc.returncode}:\n" + "\n".join(tail))
    return json.loads(proc.stdout)


def worker(src):
    """Time every kernel once from the source tree src; return {name: us}."""
    sys.path.insert(0, os.path.abspath(src))
    import swapcal
    if os.path.dirname(os.path.dirname(swapcal.__file__)) != \
            os.path.abspath(src):
        raise ImportError(f"swapcal was imported from {swapcal.__file__}, "
                          f"not from {src}")
    from swapcal import (AdversarySpec, BmForecaster, Transcript,
                         generate_stream, make_grid, rround, simulate_run,
                         stationary_distribution, train_mixture)
    from swapcal.batch import _bucket_weights
    from swapcal.core import affine_restricted
    from swapcal.forecaster import choose_n, commit_round, sample_cell
    from swapcal.metrics import (DEFAULT_LOSSES, per_cell_omni_gap,
                                 realized_weights)
    from swapcal.ons import ons_step

    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    X, y = generate_stream(spec, WARMUP + RECORD, 5, seed=0)
    fc = BmForecaster(make_grid(7), 5, seed=0)
    grid = fc.grid
    rows = {k: [] for k in ("stat", "rround", "sample", "commit", "step",
                            "step0")}
    for t in range(WARMUP + RECORD):
        x, yt = X[t], int(y[t])
        if t >= WARMUP:
            thetas = fc.thetas
            w, Q, P = commit_round(thetas, x, grid)
            rows["stat"].append((Q,))
            rows["rround"].append((w, grid))
            rows["sample"].append((P, float(t % 97) / 97.0))
            rows["commit"].append((thetas, x, grid))
            for theta, inv, p in zip(thetas, fc.inv_curvatures, P.tolist()):
                rows["step" if p > 0.0 else "step0"].append(
                    (theta, inv, x, p, yt))
        fc.update(fc.predict(x), yt, x)

    out = {
        "stationary_distribution": _best_us(stationary_distribution,
                                            rows["stat"]),
        "rround": _best_us(rround, rows["rround"]),
        "sample_cell": _best_us(sample_cell, rows["sample"]),
        "commit_round": _best_us(commit_round, rows["commit"]),
        "ons_step_alpha_pos": _best_us(ons_step, rows["step"]),
        "ons_step_alpha_zero": _best_us(ons_step, rows["step0"]),
    }
    for d, n in ROUND_SHAPES:
        Xr, yr = generate_stream(spec, ROUND_T, d, seed=1)
        best = float("inf")
        for _ in range(PASSES):
            fc = BmForecaster(make_grid(n), d, seed=1)
            t0 = time.perf_counter_ns()
            for x, yt in zip(Xr, yr.tolist()):
                fc.update(fc.predict(x), yt, x)
            best = min(best, (time.perf_counter_ns() - t0) / ROUND_T)
        out[f"round_d{d}_n{n}"] = best / 1e3

    tr = simulate_run(spec, 4096, 2, choose_n(4096, 2, "smcal"), seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        out["write_jsonl_T4096"] = _best_us(tr.write_jsonl, [(path,)])
        out["read_jsonl_T4096"] = _best_us(Transcript.read_jsonl, [(path,)])
    mix = train_mixture(generate_stream(spec, 512, 2, seed=10),
                        choose_n(512, 2, "smcal"), stride=8)
    Xm, ym = generate_stream(spec, 32, 2, seed=11)
    omni_inputs = {
        "omni_somni_T4096": (tr.contexts, tr.outcomes.astype(float),
                             realized_weights(tr).T, tr.grid.points),
        "omni_dsomni_M32": (Xm, ym.astype(float),
                            _bucket_weights(mix, Xm, None, 0)[0],
                            mix.grid.points),
    }
    for name, (Xo, yo, CW, z) in omni_inputs.items():
        out[name] = _best_us(
            lambda: per_cell_omni_gap(Xo, yo, CW, z, DEFAULT_LOSSES,
                                      affine_restricted()), [()])
    name, paths = loop_kernel(), {}
    solve = getattr(swapcal.linalg, loop_solve())
    certificate = getattr(swapcal.linalg, "single_closed_class", None)
    for R, n, d in KERNEL_SHAPES:
        kernel_args, stat_args = loop_rows(R, n, d) if name else (None, None)
        out[f"ons_steps_R{R}_K{n + 1}_d{d}"] = name and _best_us(
            getattr(swapcal.ons, name), kernel_args)
        out[f"single_closed_class_R{R}_K{n + 1}"] = (
            name and certificate and _best_us(certificate, stat_args))
        if (R, n, d) in STATIONARY_SHAPES:
            out[f"stationary_R{R}_K{n + 1}"] = name and _best_us(
                solve, stat_args)
            paths[f"R{R}_K{n + 1}"] = name and svd_chains(solve, stat_args)
    for reps, calls in SWEEP_CALLS.items():
        out[f"sweep_T{SWEEP_T}_r{reps}"] = min(sweep_us(reps)
                                               for _ in range(calls))
    return {"us": out, "stationary_paths": paths}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="source tree holding the swapcal package; repeat "
                         "to compare trees")
    ap.add_argument("--label", action="append", default=None,
                    help="name of each --src in the output (default: the "
                         "path)")
    ap.add_argument("--reps", type=int, default=5,
                    help="worker runs per tree")
    ap.add_argument("--out", default=None, help="JSON output path")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.src[0])))
        return 0
    labels = args.label or args.src
    if len(labels) != len(args.src) or args.reps < 1:
        ap.error("give one --label per --src and --reps >= 1")

    runs = {label: [] for label in labels}
    for rep in range(args.reps):
        for src, label in zip(args.src, labels):
            runs[label].append(run_worker(src, label))
            print(f"rep {rep + 1}/{args.reps} {label} done", file=sys.stderr)

    kernels = list(runs[labels[0]][0]["us"])
    results = {label: {k: summary([r["us"][k] for r in rs]) for k in kernels}
               for label, rs in runs.items()}
    doc = {
        "machine": {"cpu_count": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "method": {"reps": args.reps, "passes": PASSES, "warmup": WARMUP,
                   "recorded_rounds": RECORD, "round_T": ROUND_T,
                   "stream": "iid-logistic noise 0.1, d 5, N 7, seed 0",
                   "omni": "per_cell_omni_gap, affine class, default menu: "
                           "omni_somni_T4096 on a T 4096, d 2 transcript, "
                           "omni_dsomni_M32 on exhaustive bucket weights, "
                           "M 32",
                   "ons_steps": "the loop's learner kernel "
                                "(ons.ons_kernel, else ons.ons_steps) on "
                                "the arguments lockstep_rounds passed it in "
                                f"{RECORD} rounds after {WARMUP} "
                                "warm-up rounds of R forecasters, "
                                "iid-logistic noise 0.1, seeds 0..R-1; null "
                                "for a tree without a stacked kernel",
                   "stationary": "the loop's stationary solve "
                                 "(linalg.stationary_solve, else "
                                 "stationary_distribution) on the Q stacks "
                                 "lockstep_rounds passed it in the same "
                                 "rounds; stationary_paths counts the "
                                 "chains solved square and by the batched "
                                 "SVD (numpy.linalg.svd wrapped)",
                   "single_closed_class": "linalg.single_closed_class on "
                                          "the same Q stacks, null for a "
                                          "tree without it",
                   "jsonl": "Transcript.write_jsonl and read_jsonl on "
                            "the omni_somni_T4096 transcript",
                   "paired": "per kernel and later label, the median over "
                             "reps of its time over the first label's time "
                             "in the same rep, the per-rep ratios, and the "
                             "reps it was faster",
                   "sweep": f"run_sweep on a fresh table, T {SWEEP_T}, "
                            "d 2, smcal2:ball1, auto-smcal N, seeds from 0; "
                            "best of " + ", ".join(
                                f"{c} calls at {r} reps"
                                for r, c in SWEEP_CALLS.items()),
                   "unit": "us per call (round_*: us per round, sweep_*: "
                           "us per sweep row), best of passes within a "
                           "worker, median, quartiles and min over reps",
                   "unresolved": "kernels whose later median lies inside "
                                 "the first label's interquartile range; "
                                 f"null below {MIN_SPREAD_REPS} reps, where "
                                 "that range rests on one to three values"},
        "results": results,
        "stationary_paths": {label: rs[0]["stationary_paths"]
                             for label, rs in runs.items()},
    }
    if len(labels) > 1:
        doc.update(compare(results, labels, args.reps))
        doc.update(paired_ratios(runs, labels))
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
