"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload online --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout: swapcal is imported from `src/`
there, never from an installed copy, and the command fails (exit 2, no
result line) when `src/swapcal` is missing. Each workload runs in this one
process. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones from a run with
every swapcal layer wrapped (see spans.py). The line before it holds the
environment, the workload's own named metrics and any reference mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread, set before numpy loads: the benchmark is one
# single-threaded client, and a second BLAS thread on a 2-CPU machine
# measures the neighbours as much as the program.
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
PROBE_LOOPS = 40
PROBE_REF_NS = 1_400_000

# (name, unit, better, bound)
END_TO_END = (
    ("step_us_p50", "us", "lower", 0.25),
    ("step_us_p90", "us", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better, statistic, span). Statistics: calls and ms/self_ms
# are per step, us/self_us per call, p50_us/p99_us over the calls,
# setup_ms per set-up.
_SPAN_METRICS = (
    ("ons.ons_step.calls", "count", "lower", "calls", "ons.ons_step"),
    ("ons.ons_step.self_us_per_call", "us", "lower", "self_us",
     "ons.ons_step"),
    ("ons.alg_predict.calls", "count", "lower", "calls", "ons.alg_predict"),
    ("ons.alg_predict.us_per_call", "us", "lower", "us", "ons.alg_predict"),
    ("linalg.sherman_morrison_update.calls", "count", "lower", "calls",
     "linalg.sherman_morrison_update"),
    ("linalg.sherman_morrison_update.us_per_call", "us", "lower", "us",
     "linalg.sherman_morrison_update"),
    ("linalg.project_ball_a_norm.calls", "count", "lower", "calls",
     "linalg.project_ball_a_norm"),
    ("linalg.project_ball_a_norm.us_per_call", "us", "lower", "us",
     "linalg.project_ball_a_norm"),
    ("linalg.stationary_distribution.calls", "count", "lower", "calls",
     "linalg.stationary_distribution"),
    ("linalg.stationary_distribution.us_p50", "us", "lower", "p50_us",
     "linalg.stationary_distribution"),
    ("linalg.stationary_distribution.us_p99", "us", "lower", "p99_us",
     "linalg.stationary_distribution"),
    ("forecaster.predict.calls", "count", "lower", "calls",
     "forecaster.BmForecaster.predict"),
    ("forecaster.predict.self_us_per_call", "us", "lower", "self_us",
     "forecaster.BmForecaster.predict"),
    ("forecaster.update.self_us_per_call", "us", "lower", "self_us",
     "forecaster.BmForecaster.update"),
    ("harness.generate_stream.ms", "ms", "lower", "ms",
     "harness.generate_stream"),
    ("harness.simulate_run.ms", "ms", "lower", "ms", "harness.simulate_run"),
    ("harness.evaluate_metric.ms", "ms", "lower", "ms",
     "harness.evaluate_metric"),
    ("harness.run_sweep.self_ms", "ms", "lower", "self_ms",
     "harness.run_sweep"),
    ("metrics.report.smcal2.ms", "ms", "lower", "ms", "metrics.smcal"),
    ("metrics.report.psmcal2.ms", "ms", "lower", "ms", "metrics.psmcal"),
    ("metrics.report.mcal2.ms", "ms", "lower", "ms", "metrics.mcal"),
    ("metrics.report.cal2.ms", "ms", "lower", "ms", "metrics.cal"),
    ("metrics.report.sreg.ms", "ms", "lower", "ms", "metrics.sreg"),
    ("metrics.report.psreg.ms", "ms", "lower", "ms", "metrics.psreg"),
    ("metrics.report.somni.ms", "ms", "lower", "ms", "metrics.somni"),
    ("metrics.constrained_lstsq.calls", "count", "lower", "calls",
     "metrics.constrained_lstsq"),
    ("metrics.constrained_lstsq.us_per_call", "us", "lower", "us",
     "metrics.constrained_lstsq"),
    ("metrics.per_cell_omni_gap.ms", "ms", "lower", "ms",
     "metrics.per_cell_omni_gap"),
    ("metrics.per_cell_sup_numerators.us_per_call", "us", "lower", "us",
     "metrics.per_cell_sup_numerators"),
    ("batch.train_mixture.ms", "ms", "lower", "ms", "batch.train_mixture"),
    ("batch.cond_dist.calls", "count", "lower", "calls",
     "batch.MixturePredictor.cond_dist"),
    ("batch.cond_dist.us_per_call", "us", "lower", "us",
     "batch.MixturePredictor.cond_dist"),
    ("batch.estimate.saerr.self_ms", "ms", "lower", "self_ms",
     "batch.estimate_saerr"),
    ("batch.estimate.dsmcal2.self_ms", "ms", "lower", "self_ms",
     "batch.estimate_dsmcal"),
    ("batch.estimate.dsomni.self_ms", "ms", "lower", "self_ms",
     "batch.estimate_dsomni"),
    ("core.read_jsonl.ms", "ms", "lower", "ms", "core.Transcript.read_jsonl"),
    ("core.write_jsonl.ms", "ms", "lower", "setup_ms",
     "core.Transcript.write_jsonl"),
    ("cli.main.self_ms", "ms", "lower", "self_ms", "cli.main"),
)

# (name, unit, better)
PER_LAYER = tuple(m[:3] for m in _SPAN_METRICS) + (
    ("linalg.stationary_distribution.resid_max", "1", "lower"),
    ("core.read_jsonl.mb_per_s", "MB/s", "higher"),
) + tuple((f"share.{layer}", "%", "lower") for layer in spans.LAYERS) + (
    ("trace.step_us_p50", "us", "lower"),
    ("trace.spans_per_step", "count", "lower"),
)

def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_start):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
            "SWAPCAL_THREADS": os.environ.get("SWAPCAL_THREADS"),
            "loadavg_start": load_start,
            "loadavg_end": _loadavg(),
            "commit": _git_commit()}


class Probe:
    """A fixed piece of work that uses no swapcal code, timed between the
    steps to read how fast the machine runs at that moment.

    The benchmark was built on a 2-CPU shared machine whose speed swings
    by up to 2x in phases lasting from under a second to minutes; CPU time
    swings with wall time, so the phases are not descheduling and no
    clock of the process's own can hide them. The program's times follow
    the probe's closely (correlation 0.96 over 1.5 s blocks), so every
    timed step is scaled by PROBE_REF_NS over the mean of the probes just
    before and after it: a time in us is the time the step would take on
    a machine on which the probe takes PROBE_REF_NS.

    The work is Python-bound like the program: a loop of small-matrix
    numpy calls (ONS and stationary solves), JSON encoding (transcripts,
    CLI output) and dict updates (CSV rows, report extras). A pass over a
    large array was tried and left out: it follows the program less well
    than these do."""

    def __init__(self):
        rng = np.random.default_rng(20250527)
        self.M = rng.random((8, 8)) + 8.0 * np.eye(8)
        self.b = rng.random(8)
        self.x = 0.1 * rng.random(6)
        self.eye = 1e-3 * np.eye(6)
        self.rows = [{"t": t, "p": [float(v) for v in rng.random(8)]}
                     for t in range(64)]
        self()

    def __call__(self):
        """Run the work twice; returns the wall time of the second run in
        ns. The first run brings the probe's data back into the caches, so
        the time does not depend on how much of them the program used."""
        self._work()
        t0 = perf_counter_ns()
        self._work()
        return perf_counter_ns() - t0

    def _work(self):
        A, x = np.eye(6), self.x
        for _ in range(PROBE_LOOPS):
            v = A @ x
            A = A - np.outer(v, v) / (1.0 + x @ v) + self.eye
            np.linalg.solve(self.M, self.b)
        json.loads(json.dumps(self.rows))
        counts = {}
        for i in range(PROBE_LOOPS * 50):
            counts[i % 97] = counts.get(i % 97, 0.0) + 0.5 * i


def measure(w, seed, workdir, seconds, tracer=None, probe=None):
    """Set up SETUP_REPEATS times, each set-up followed by an equal share of
    `seconds` of closed-loop steps, in whole passes. The probe runs before
    every set-up and after every set-up and every `w.probe_steps` steps;
    each time is scaled by the probes around it (see Probe). Steps stop
    when the next group of passes would end past the share, after at least
    one group. `probe` replaces the Probe in tests. Returns a Measured."""
    probe = Probe() if probe is None else probe
    m = Measured()
    i = 0
    group = w.pass_steps * w.probe_steps
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.phase = "setup"
        before = probe()
        t0 = perf_counter_ns()
        w.setup(seed, workdir)
        dt = perf_counter_ns() - t0
        after = probe()
        m.setup_ns.append(dt * 2.0 * PROBE_REF_NS / (before + after))
        m.probe_ns += [before, after]
        if tracer is not None:
            tracer.phase = "step"
        deadline = perf_counter() + seconds / SETUP_REPEATS
        while True:
            begin = perf_counter()
            for _ in range(group // w.probe_steps):
                raw = []
                for _ in range(w.probe_steps):
                    if tracer is not None:
                        tracer.op_id = i
                    dt, items, out = w.step(i)
                    attempted, failed = w.check(out)
                    raw.append(dt)
                    m.items.append(items)
                    m.attempted += attempted
                    m.failed += failed
                    i += 1
                before, after = after, probe()
                scale = 2.0 * PROBE_REF_NS / (before + after)
                m.lat_ns.extend(dt * scale for dt in raw)
                m.raw_ns += sum(raw)
                m.probe_ns.append(after)
            now = perf_counter()
            if now + (now - begin) > deadline:
                break
    return m


class Measured:
    """Scaled step latencies and item counts in step order, scaled set-up
    times, the probe times, and the outcome of the output checks. Typed
    arrays keep the benchmark's own memory small next to the program's
    peak RSS."""

    def __init__(self):
        self.lat_ns, self.items = array("d"), array("q")
        self.setup_ns, self.probe_ns = [], []
        self.raw_ns = 0
        self.attempted = self.failed = 0

    def per_kind(self, w, q):
        """The q-th percentile of each step kind's scaled latency, in ns.
        Runs hold whole passes, so step i is of kind i % w.pass_steps."""
        lat = np.frombuffer(self.lat_ns, dtype=float)
        return [float(np.percentile(lat[k::w.pass_steps], q))
                for k in range(w.pass_steps)]


def check_reference(workload_cls, workdir, want=None):
    """Compare the workload's fixed-seed outputs with the frozen ones.
    One operation per frozen key; returns (attempted, mismatching keys)."""
    from workloads import reference_mismatches
    if want is None:
        frozen = json.loads((HERE / "reference.json").read_text())
        want = frozen[workload_cls.name]
    got = workload_cls.reference(workdir)
    return len(want), reference_mismatches(got, want)


def _span_value(tracer, stat, span, passes):
    if stat == "setup_ms":
        st = tracer.stat(span, phase="setup")
        return st.total_ns / 1e6 / SETUP_REPEATS
    st = tracer.stat(span)
    if stat == "calls":
        return st.calls / passes
    if stat == "ms":
        return st.total_ns / 1e6 / passes
    if stat == "self_ms":
        return st.self_ns / 1e6 / passes
    if not st.calls:
        return 0.0
    if stat == "us":
        return st.total_ns / 1e3 / st.calls
    if stat == "self_us":
        return st.self_ns / 1e3 / st.calls
    q = {"p50_us": 50, "p99_us": 99}[stat]
    return float(np.percentile(st.durations, q)) / 1e3


def per_layer_metrics(tracer, m, w):
    """Per-layer metrics over the whole traced run; counts and totals are
    per pass (one round on `online`). Span times are not scaled."""
    passes = len(m.lat_ns) / w.pass_steps
    out = {name: _span_value(tracer, stat, span, passes)
           for name, _, _, stat, span in _SPAN_METRICS}
    out["linalg.stationary_distribution.resid_max"] = tracer.resid_max
    read = tracer.stat("core.Transcript.read_jsonl")
    out["core.read_jsonl.mb_per_s"] = (
        tracer.bytes_read / 1e6 / (read.total_ns / 1e9) if read.calls
        else 0.0)
    for layer, ns in tracer.self_ns_by_layer().items():
        out[f"share.{layer}"] = 100.0 * ns / m.raw_ns
    out["trace.step_us_p50"] = sum(m.per_kind(w, 50)) / 1e3
    out["trace.spans_per_step"] = sum(
        st.calls for (ph, _), st in tracer.stats.items()
        if ph == "step") / len(m.lat_ns)
    return out


def end_to_end_metrics(m, w):
    """End-to-end metrics over the whole run, from scaled times. A step is
    a pass: on `sweep` and `offline` its percentiles are the sums over the
    pass's calls of each call's percentile. Set-up is the median."""
    return {"step_us_p50": sum(m.per_kind(w, 50)) / 1e3,
            "step_us_p90": sum(m.per_kind(w, 90)) / 1e3,
            "items_per_s": sum(m.items) / (sum(m.lat_ns) / 1e9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "setup_s": float(np.median(m.setup_ns)) / 1e9}


def run_workload(name, seed, seconds, trace, workdir, params=None,
                 reference=None):
    """Measure one workload for `seconds`, then check it against the frozen
    reference. Returns (result line, detail dict)."""
    import workloads
    cls = workloads.WORKLOADS[name]
    w = cls() if params is None else cls(params)
    tracer = None
    scope = contextlib.nullcontext()
    if trace:
        tracer = spans.Tracer(
            keep_durations=("linalg.stationary_distribution",))
        scope = spans.instrumented(tracer)
    with scope:
        m = measure(w, seed, workdir, seconds, tracer)
    if trace:
        metrics, table = per_layer_metrics(tracer, m, w), PER_LAYER
    else:
        metrics, table = end_to_end_metrics(m, w), END_TO_END
    ref_attempted, mismatches = check_reference(cls, workdir, reference)
    failed = m.failed + len(mismatches)
    result = {"correct": failed == 0, "attempted": m.attempted + ref_attempted,
              "failed": failed,
              "metrics": {row[0]: {"value": metrics[row[0]], "unit": row[1]}
                          for row in table}}
    probe = np.asarray(m.probe_ns, dtype=float) / 1e6
    detail = {"workload": name, "seed": seed, "trace": trace,
              "item": cls.item, "steps": len(m.lat_ns),
              "items": sum(m.items), "pass_steps": w.pass_steps,
              "probe_steps": w.probe_steps,
              "median_ms": {kind: ns / 1e6 for kind, ns in
                            zip(w.kind_names, m.per_kind(w, 50))},
              "unscaled_s": m.raw_ns / 1e9,
              "probe_ms": {"ref": PROBE_REF_NS / 1e6, "runs": len(probe),
                           "p10": float(np.percentile(probe, 10)),
                           "p50": float(np.median(probe)),
                           "p90": float(np.percentile(probe, 90))},
              "named": {} if trace else {
                  k: {"value": v, "unit": u}
                  for k, (v, u) in w.named(metrics, m).items()},
              "reference_mismatches": mismatches}
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["online", "sweep", "offline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    load_start = _loadavg()

    src = ROOT / "src"
    if not (src / "swapcal" / "__init__.py").is_file():
        print(f"error: no swapcal sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import swapcal
    if Path(swapcal.__file__).resolve().parent != (src / "swapcal").resolve():
        print(f"error: swapcal imported from {swapcal.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    detail["env"] = environment(load_start)
    if detail["reference_mismatches"]:
        print(f"reference mismatch: {detail['reference_mismatches']}",
              file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
