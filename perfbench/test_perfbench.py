"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import swapcal.forecaster  # noqa: E402
import swapcal.metrics  # noqa: E402

TINY = {
    "online": workloads.OnlineParams(T=48, d=2, warmup=4, probe_steps=16),
    "sweep": workloads.SweepParams(T_list=(16, 32), d=2, reps=1),
    "offline": workloads.OfflineParams(T=64, d=2, batch_T=32, stride=8,
                                       test_T=8),
}


def _tiny_run(name, trace, workdir, reference=None):
    return run.run_workload(name, 0, 0.05, trace, str(workdir),
                            params=TINY[name], reference=reference)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [tuple(m) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, detail = _tiny_run(name, trace, tmp_path)
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m[0]: m[1] for m in table}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and value["value"] >= 0.0
    if not trace:
        assert all(v["value"] > 0.0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= detail["steps"] >= 1
    assert bool(detail["named"]) is not trace
    assert not detail["reference_mismatches"]


def test_self_time_on_a_synthetic_span_tree():
    # cli.main [0, 100] > harness.a [10, 30] > ons.g [12, 18];
    # cli.main > linalg.b [50, 80]
    clock = iter([0, 10, 12, 18, 30, 50, 80, 100])
    tr = spans.Tracer(clock=lambda: next(clock))
    root = tr.open("cli.main")
    a = tr.open("harness.a")
    tr.close(tr.open("ons.g"))
    tr.close(a)
    tr.close(tr.open("linalg.b"))
    tr.close(root)
    assert (tr.stat("cli.main").total_ns, tr.stat("cli.main").self_ns) == \
        (100, 50)
    assert (tr.stat("harness.a").total_ns, tr.stat("harness.a").self_ns) == \
        (20, 14)
    assert tr.stat("ons.g").self_ns == 6
    assert tr.stat("linalg.b").self_ns == 30
    by_layer = tr.self_ns_by_layer()
    assert (by_layer["cli"], by_layer["harness"], by_layer["ons"],
            by_layer["linalg"], by_layer["metrics"]) == (50, 14, 6, 30, 0)
    assert tr.stat("metrics.never_called").calls == 0


class _FixedSteps:
    """A workload of two step kinds taking 1000 and 3000 ns."""

    name, pass_steps, probe_steps = "fixed", 2, 1

    def setup(self, seed, workdir):
        pass

    def step(self, i):
        return 1000 * (1 + 2 * (i % 2)), 1, None

    def check(self, out):
        return 1, 0


def test_times_are_scaled_by_the_probes_around_them(monkeypatch):
    # The probe alternates between the reference time and twice it, so
    # every step and set-up sits between one of each: scale 2/3.
    ref = run.PROBE_REF_NS
    probes = iter([ref, 2 * ref] * 10**6)
    clock = iter(range(0, 10**9, 1000))
    monkeypatch.setattr(run, "perf_counter_ns", lambda: next(clock))
    w = _FixedSteps()
    m = run.measure(w, 0, None, 1e-9, probe=lambda: next(probes))
    assert len(m.lat_ns) == 2 * run.SETUP_REPEATS
    assert list(m.lat_ns) == pytest.approx([2000 / 3, 2000.0] *
                                           run.SETUP_REPEATS)
    assert m.setup_ns == pytest.approx([2000 / 3] * run.SETUP_REPEATS)
    assert m.raw_ns == 4000 * run.SETUP_REPEATS
    assert m.per_kind(w, 50) == pytest.approx([2000 / 3, 2000.0])
    assert m.attempted == 2 * run.SETUP_REPEATS and m.failed == 0


def test_children_covered_interval_is_a_union():
    assert spans.covered_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert spans.covered_ns([(3, 4), (0, 10)]) == 10
    assert spans.covered_ns([]) == 0


def _swapcal_callables():
    """Every (owner, attribute) -> object the tracer may patch."""
    out = {}
    for layer in spans.LAYERS:
        mod = sys.modules[f"swapcal.{layer}"]
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, raw in vars(obj).items():
                    out[(obj.__qualname__, mattr)] = raw
    return out


def test_traced_run_restores_the_original_objects(tmp_path):
    before = _swapcal_callables()
    original = swapcal.forecaster.ons_step
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert swapcal.forecaster.ons_step is not original
        assert swapcal.forecaster.ons_step.__wrapped__ is original
    assert swapcal.forecaster.ons_step is original
    _tiny_run("offline", True, tmp_path)
    after = _swapcal_callables()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_function_gone_after_a_refactor_reports_zero_calls(tmp_path,
                                                            monkeypatch):
    monkeypatch.delattr(swapcal.metrics, "somni")
    result, _ = _tiny_run("online", True, tmp_path)
    m = result["metrics"]
    assert m["metrics.report.somni.ms"]["value"] == 0.0
    assert m["batch.cond_dist.calls"]["value"] == 0.0
    cells = swapcal.forecaster.choose_n(48, 2, "smcal") + 1
    assert m["ons.ons_step.calls"]["value"] == float(cells)


def test_a_wrong_reference_value_is_a_failed_operation(tmp_path):
    want = json.loads((HERE / "reference.json").read_text())["online"]
    want["mean_prediction"] *= 1.001
    result, detail = _tiny_run("online", False, tmp_path, reference=want)
    assert result["failed"] == 1 and not result["correct"]
    assert detail["reference_mismatches"] == ["mean_prediction"]


def test_output_checks_count_failures_without_raising():
    sweep = workloads.Sweep(TINY["sweep"])
    rows = [{"value": "1.5", "error": ""},
            {"value": "", "error": "NumericFailure: x"},
            {"value": "nan", "error": ""}]
    assert sweep.check(rows) == (3, 2)
    offline = workloads.Offline(TINY["offline"])
    assert offline.check((0, '{"value": 2.0}\n')) == (1, 0)
    for call in [(2, ""), (0, '{"value": NaN}\n'), (0, "not json\n")]:
        assert offline.check(call) == (1, 1)


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work",
                                                  "results"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "online",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
