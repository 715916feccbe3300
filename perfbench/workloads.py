"""The benchmark's three workloads.

Each workload makes its inputs from a seed in `setup`, runs one closed-loop
operation per `step` (timing only the calls into swapcal), and checks each
operation's outputs in `check`, outside the timed section. Step i is of kind
i % pass_steps, so every `pass_steps` consecutive steps make one pass over
the workload's fixed list of calls. The benchmark runs its speed probe after
every `probe_steps` steps. `reference` recomputes small fixed-seed outputs
that `reference.json` froze from the code as it was when the benchmark was
added.

The benchmark calls swapcal only through its public entry points:
`BmForecaster.predict`/`update` (with `make_grid` and `choose_n` to build the
forecaster), `harness.run_sweep` with a `SweepConfig`, and `cli.main`. Each
is looked up on its module at call time, so the traced run sees the wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import swapcal.cli
import swapcal.core
import swapcal.forecaster
import swapcal.harness

SIMPLEX_TOL = 1e-9
FIXED_POINT_TOL = 1e-8
# Tolerance against the frozen reference outputs: |got - want| <= ATOL +
# RTOL |want| for floats, exact for integers.
REF_RTOL = 1e-8
REF_ATOL = 1e-10
REF_SEED = 0

_TAIL_RADIUS = math.sqrt(3.0) / 2.0


def derive_seed(*keys):
    """A 31-bit seed derived from non-negative integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0] >> 1)


def logistic_stream(T, d, seed):
    """iid-logistic contexts and outcomes: x = (1/2, tail) with the tail
    uniform in the radius sqrt(3)/2 ball, P(y = 1) = 1/2 + <theta*, x>/2 for
    a random unit theta*. Needs d >= 2."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=d)
    theta /= max(float(np.linalg.norm(theta)), 1e-12)
    g = rng.normal(size=(T, d - 1))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    radii = _TAIL_RADIUS * rng.random(T) ** (1.0 / (d - 1))
    X = np.hstack([np.full((T, 1), 0.5), g / norms[:, None] * radii[:, None]])
    probs = np.clip(0.5 + (X @ theta) / 2.0, 0.0, 1.0)
    y = (rng.random(T) < probs).astype(int)
    return X, y


def reference_mismatches(got, want):
    """Keys of `want` whose value `got` misses, recursing into lists."""
    return [key for key, w in want.items()
            if got.get(key) is None or not _close(got[key], w)]


def _close(g, w):
    if isinstance(w, list):
        return (isinstance(g, list) and len(g) == len(w)
                and all(_close(a, b) for a, b in zip(g, w)))
    if isinstance(w, int):
        return g == w
    return math.isfinite(g) and abs(g - w) <= REF_ATOL + REF_RTOL * abs(w)


def _finite_value(text):
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def _cli(argv):
    """Run `swapcal.cli.main(argv)`; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = swapcal.cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _cli_value(rc, stdout):
    """The finite "value" of a report printed by the CLI, or None."""
    if rc != 0:
        return None
    try:
        value = json.loads(stdout.strip().splitlines()[-1])["value"]
    except (IndexError, KeyError, TypeError, ValueError):
        return None
    return value if _finite_value(value) else None


# ---------------------------------------------------------------------------
# online: one client, rounds through predict then update


@dataclass(frozen=True)
class OnlineParams:
    T: int = 16384
    d: int = 5
    warmup: int = 32
    probe_steps: int = 128


class Online:
    """One client streams iid-logistic rounds through BmForecaster.predict
    then update, closed loop. A step is one round; when a stream of T rounds
    ends, a new one starts from the next derived seed."""

    name = "online"
    item = "round"
    kind_names = ("round",)
    pass_steps = 1

    def __init__(self, params=OnlineParams()):
        self.p = params
        self.probe_steps = params.probe_steps
        self.n = swapcal.forecaster.choose_n(params.T, params.d, "smcal")

    def setup(self, seed, workdir):
        self.seed = seed
        self.episode = 0
        self._start_episode()
        warm = self._forecaster(derive_seed(seed, 1 << 30))
        for t in range(min(self.p.warmup, self.p.T)):
            x = self.X[t]
            warm.update(warm.predict(x), int(self.y[t]), x)

    def _forecaster(self, seed):
        grid = swapcal.core.make_grid(self.n)
        return swapcal.forecaster.BmForecaster(grid, self.p.d, seed=seed)

    def _start_episode(self):
        s = derive_seed(self.seed, self.episode)
        self.X, self.y = logistic_stream(self.p.T, self.p.d, s)
        self.fc = self._forecaster(s)
        self.t = 0

    def step(self, _i):
        if self.t == self.p.T:
            self.episode += 1
            self._start_episode()
        x, y = self.X[self.t], int(self.y[self.t])
        self.t += 1
        fc = self.fc
        t0 = perf_counter_ns()
        out = fc.predict(x)
        fc.update(out, y, x)
        return perf_counter_ns() - t0, 1, out

    def check(self, out):
        """One operation: P on the simplex and |QP - P|_inf <= 1e-8."""
        P, Q = out.cond_dist, out.q_matrix
        ok = (P.min() >= -1e-12 and abs(P.sum() - 1.0) <= SIMPLEX_TOL
              and float(np.max(np.abs(Q @ P - P))) <= FIXED_POINT_TOL)
        return 1, 0 if ok else 1

    def named(self, e2e, m):
        return {"round_us_p50": (e2e["step_us_p50"], "us"),
                "round_us_p90": (e2e["step_us_p90"], "us"),
                "round_us_p99": (m.per_kind(self, 99)[0] / 1e3, "us")}

    @staticmethod
    def reference(_workdir):
        """256 rounds at d = 5, N = 7 on the reference seed."""
        X, y = logistic_stream(256, 5, REF_SEED)
        fc = swapcal.forecaster.BmForecaster(swapcal.core.make_grid(7), 5,
                                             seed=REF_SEED)
        first = last = None
        sampled = 0
        mean_pred = 0.0
        for t in range(len(y)):
            out = fc.predict(X[t])
            fc.update(out, int(y[t]), X[t])
            last = out.cond_dist
            first = last if first is None else first
            sampled += out.sampled_index
            mean_pred += float(last @ fc.grid.points) / len(y)
        return {"P_first": [float(v) for v in first],
                "P_last": [float(v) for v in last],
                "sampled_index_sum": int(sampled),
                "mean_prediction": mean_pred}


# ---------------------------------------------------------------------------
# sweep: run_sweep in the shape of acceptance checks 07 and 08


@dataclass(frozen=True)
class SweepParams:
    T_list: tuple = (256, 512, 1024)
    d: int = 2
    reps: int = 2


SWEEP_METRICS = (("smcal2:ball1", "auto-smcal"), ("sreg:ball4", "auto-sreg"))


def _run_sweep(path, metric, n_rule, T_list, d, reps, seed_base):
    """run_sweep on a fresh table at `path`; returns its rows."""
    if os.path.exists(path):
        os.remove(path)
    cfg = swapcal.harness.SweepConfig(
        T_list=list(T_list), d=d, reps=reps, metric=metric, n_rule=n_rule,
        adversary="iid-logistic", seed_base=seed_base)
    return swapcal.harness.run_sweep(cfg, out_path=path)


class Sweep:
    """A step is one run_sweep call on a fresh table for one horizon and
    `reps` repetitions, with SWAPCAL_THREADS=1. A pass covers smcal2:ball1
    (auto-smcal), then sreg:ball4 (auto-sreg), each over T_list."""

    name = "sweep"
    item = "sweep row"
    probe_steps = 1

    def __init__(self, params=SweepParams()):
        self.p = params
        self.kinds = [(metric, n_rule, T) for metric, n_rule in SWEEP_METRICS
                      for T in params.T_list]
        self.kind_names = tuple(f"{m}@T{T}" for m, _, T in self.kinds)
        self.pass_steps = len(self.kinds)

    def setup(self, seed, workdir):
        os.environ["SWAPCAL_THREADS"] = "1"
        self.seed = seed
        self.path = os.path.join(workdir, "results.csv")
        for k, (metric, n_rule) in enumerate(SWEEP_METRICS):
            _run_sweep(self.path, metric, n_rule, (64,), self.p.d, 1,
                       derive_seed(seed, 1 << 30, k))

    def step(self, i):
        metric, n_rule, T = self.kinds[i % self.pass_steps]
        seed_base = derive_seed(self.seed, i // self.pass_steps, T)
        t0 = perf_counter_ns()
        rows = _run_sweep(self.path, metric, n_rule, (T,), self.p.d,
                          self.p.reps, seed_base)
        return perf_counter_ns() - t0, len(rows), rows

    def check(self, rows):
        """One operation per row: an empty error column and a finite value."""
        bad = sum(1 for r in rows
                  if r.get("error") or not _finite_value(r.get("value")))
        return len(rows), bad

    def named(self, e2e, _m):
        return {"sweep_rows_per_s": (e2e["items_per_s"], "1/s")}

    @staticmethod
    def reference(workdir):
        """Both metrics at T = 128 and 256, 2 reps, on the reference seed."""
        path = os.path.join(workdir, "reference.csv")
        rows = []
        for metric, n_rule in SWEEP_METRICS:
            rows += _run_sweep(path, metric, n_rule, (128, 256), 2, 2,
                               REF_SEED)
        return {f"{r['metric']}@T{r['T']}.rep{r['rep']}": float(r["value"])
                for r in rows}


# ---------------------------------------------------------------------------
# offline: the report card and the batch reports through the CLI


@dataclass(frozen=True)
class OfflineParams:
    T: int = 4096
    d: int = 2
    batch_T: int = 512
    stride: int = 8
    test_T: int = 32


REPORTS = ("smcal2", "psmcal2", "mcal2", "cal2", "sreg", "psreg", "somni")
BATCH_REPORTS = ("saerr", "dsmcal2", "dsomni")


def _simulate(path, T, d, seed):
    rc, _ = _cli(["simulate", "--adversary", "iid-logistic", "--T", T,
                  "--d", d, "--N", "auto-smcal", "--seed", seed,
                  "--out", path, "--slim"])
    if rc != 0:
        raise RuntimeError(f"swapcal simulate exited {rc}")


def _metrics_argv(path, report):
    return ["metrics", "--transcript", path, "--report", report]


def _batch_argv(report, T, stride, test_T, seed):
    return ["batch", "--train", "iid-logistic", "--test", "iid-logistic",
            "--T", T, "--seed", seed, "--report", report, "--stride", stride,
            "--test-T", test_T]


class Offline:
    """A step is one CLI call. A pass runs, one call at a time, the seven
    `swapcal metrics` reports on the transcript written during set-up, then
    the three `swapcal batch` reports at a fixed training T, stride and test
    length."""

    name = "offline"
    item = "CLI call"
    kind_names = REPORTS + BATCH_REPORTS
    pass_steps = len(kind_names)
    probe_steps = 1

    def __init__(self, params=OfflineParams()):
        self.p = params
        self.setups = 0

    def setup(self, seed, workdir):
        """Write a new transcript each set-up: the cost of `somni` depends
        on the transcript by up to half, so a run averages over several."""
        self.seed = seed
        self.path = os.path.join(workdir, "transcript.jsonl")
        _simulate(self.path, self.p.T, self.p.d,
                  derive_seed(seed, 1 << 30, self.setups))
        self.setups += 1

    def step(self, i):
        k = i % self.pass_steps
        if k < len(REPORTS):
            argv = _metrics_argv(self.path, REPORTS[k])
        else:
            p = self.p
            argv = _batch_argv(BATCH_REPORTS[k - len(REPORTS)], p.batch_T,
                               p.stride, p.test_T,
                               derive_seed(self.seed, i // self.pass_steps))
        t0 = perf_counter_ns()
        call = _cli(argv)
        return perf_counter_ns() - t0, 1, call

    def check(self, call):
        """One operation per call: exit code 0 and a finite value."""
        return 1, 0 if _cli_value(*call) is not None else 1

    def named(self, _e2e, m):
        median_ns = m.per_kind(self, 50)
        return {"metrics_cli_s": (sum(median_ns[:len(REPORTS)]) / 1e9, "s"),
                "batch_cli_s": (sum(median_ns[len(REPORTS):]) / 1e9, "s")}

    @staticmethod
    def reference(workdir):
        """The same calls on a T = 512 transcript and a T = 256 mixture."""
        path = os.path.join(workdir, "reference.jsonl")
        _simulate(path, 512, 2, REF_SEED)
        out = {}
        for report in REPORTS:
            out[f"metrics.{report}"] = _cli_value(*_cli(
                _metrics_argv(path, report)))
        for report in BATCH_REPORTS:
            out[f"batch.{report}"] = _cli_value(*_cli(
                _batch_argv(report, 256, 8, 32, REF_SEED)))
        return out


WORKLOADS = {"online": Online, "sweep": Sweep, "offline": Offline}
