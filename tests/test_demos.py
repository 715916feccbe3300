"""Smoke tests: the demo scripts and the round benchmark tool run to
completion against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("online_to_batch.py", []),
    ("run_forecaster.py", ["300"]),
    ("rounding_tradeoff.py", []),
    ("rate_study.py", ["1"]),
])
def test_demo_runs(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)]
                          + args, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_bench_round_runs(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_round.py"),
                           "--src", str(ROOT / "src"), "--label", "a",
                           "--src", str(ROOT / "src"), "--label", "b",
                           "--reps", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["machine"]["cpu_count"] >= 1 and doc["machine"]["numpy"]
    kernels = {"stationary_distribution", "rround", "sample_cell",
               "commit_round", "ons_step_alpha_pos", "ons_step_alpha_zero",
               "round_d2_n4", "round_d5_n7",
               "omni_somni_T4096", "omni_dsomni_M32", "ons_steps_R1_K8_d5",
               "ons_steps_R2_K5_d2", "ons_steps_R30_K5_d2", "stationary_R2_K5",
               "stationary_R30_K5", "single_closed_class_R1_K8",
               "single_closed_class_R2_K5", "single_closed_class_R30_K5",
               "sweep_T1024_r2", "sweep_T1024_r30",
               "write_jsonl_T4096", "read_jsonl_T4096"}
    for label in ("a", "b"):
        assert set(doc["results"][label]) == kernels
        for v in doc["results"][label].values():
            assert 0 < v["min_us"] <= v["q1_us"] <= v["median_us"] \
                <= v["q3_us"]
    assert set(doc["median_ratio_to_a"]["b"]) == kernels
    assert set(doc["paired_ratio_to_a"]["b"]) == kernels
    for label in ("a", "b"):
        paths = doc["stationary_paths"][label]
        assert set(paths) == {"R2_K5", "R30_K5"}
        assert [sum(paths[s].values()) for s in ("R2_K5", "R30_K5")] == [
            2 * 256, 30 * 256]
    # one rep has no spread to judge a ratio against
    assert doc["unresolved_vs_a"] is None


def test_bench_round_names_a_failing_tree(tmp_path):
    """A worker that cannot import swapcal from its tree stops the run with
    the tree's label and the worker's own error, not a bare
    CalledProcessError."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_round.py"),
                           "--src", str(tmp_path), "--label", "empty-tree",
                           "--reps", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "error: the worker for empty-tree" in proc.stderr
    assert "ImportError" in proc.stderr or "ModuleNotFoundError" in proc.stderr
    assert "CalledProcessError" not in proc.stderr


def test_bench_round_marks_ratios_inside_the_base_spread():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_round
    finally:
        sys.path.remove(str(ROOT / "tools"))
    base = {"k": bench_round.summary([10.0, 11.0, 12.0, 13.0, 30.0])}
    assert base["k"] == {"median_us": 12.0, "q1_us": 11.0, "q3_us": 13.0,
                         "min_us": 10.0}
    for times, noise in (([11.5, 12.5, 12.9], True), ([11.0] * 3, True),
                         ([9.0, 10.0, 10.5], False), ([14, 15, 16], False)):
        other = {"k": bench_round.summary(times)}
        assert bench_round.unresolved(base, other) == (["k"] if noise else [])


def test_bench_round_leaves_unresolved_null_below_four_reps():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_round
    finally:
        sys.path.remove(str(ROOT / "tools"))
    runs = {"a": [10.0, 11.0, 12.0, 13.0, 30.0], "b": [11.5, 12.5, 12.9]}
    results = {label: {"k": bench_round.summary(times)}
               for label, times in runs.items()}
    # a kernel that tree a lacks has no summary, no ratio and is never
    # unresolved
    results["a"]["new"] = bench_round.summary([None])
    results["b"]["new"] = bench_round.summary([2.0, 3.0, 4.0])
    assert results["a"]["new"] is None
    for reps, want in ((1, None), (3, None), (4, {"b": ["k"]})):
        doc = bench_round.compare(results, ["a", "b"], reps)
        assert doc["unresolved_vs_a"] == want
        assert doc["median_ratio_to_a"] == {
            "b": {"k": round(12.5 / 12.0, 4), "new": None}}


def test_bench_round_pairs_each_rep_with_the_base_rep():
    """A rep in which the host ran at half speed slows both sides of its
    pair: the paired ratios read b as 10 % faster in two reps of three,
    while the ratio of medians reads it as 10 % slower."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_round
    finally:
        sys.path.remove(str(ROOT / "tools"))
    runs = {"a": [{"us": {"k": k, "new": None}} for k in (10.0, 20.0, 12.0)],
            "b": [{"us": {"k": k, "new": 1.0}} for k in (9.0, 18.0, 13.2)]}
    results = {label: {k: bench_round.summary([r["us"][k] for r in rs])
                       for k in ("k", "new")} for label, rs in runs.items()}
    assert bench_round.compare(results, ["a", "b"], 3)[
        "median_ratio_to_a"]["b"]["k"] == 1.1
    assert bench_round.paired_ratios(runs, ["a", "b"]) == {
        "paired_ratio_to_a": {"b": {
            "k": {"median": 0.9, "per_rep": [0.9, 0.9, 1.1], "wins": 2},
            "new": None}}}


def test_src_stats_runs():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_stats.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert set(stats) == {"src", "lines", "param_defaults",
                          "dataclass_field_defaults"}
    assert stats["lines"] > 0 and stats["param_defaults"] > 0


def test_report_diff_finds_no_difference_in_one_tree():
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "report_diff.py"),
                           "--src", src, "--src", src],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "reports": 237, "differ": 0, "max_abs": 0.0, "max_rel": 0.0,
        "worst": None, "notes_differ": 0, "extras_keys_differ": 0}


def test_report_diff_counts_what_differs():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import report_diff
    finally:
        sys.path.remove(str(ROOT / "tools"))
    base = {"a": {"value": [1.0], "extras": {"m": [2.0]}, "notes": "x"},
            "b": {"value": [4.0], "extras": {}, "notes": "y"},
            "c": {"error": "ValueError: no"},
            "d": {"value": [0.0], "extras": {}, "notes": ""}}
    other = {"a": {"value": [1.0], "extras": {"m": [2.0], "g": [5.0]},
                   "notes": "x"},
             "b": {"value": [4.0 + 1e-12], "extras": {}, "notes": "z"},
             "c": {"error": "ValueError: no"},
             "d": {"value": [-0.0], "extras": {}, "notes": ""},
             "e": {"value": [1.0], "extras": {}, "notes": ""}}
    doc = report_diff.compare(base, other)
    assert doc["reports"] == 5 and doc["differ"] == 3
    assert doc["notes_differ"] == 2 and doc["worst"] == "e"
    assert doc["extras_keys_differ"] == 1
    assert doc["max_abs"] == float("inf") == doc["max_rel"]
    doc = report_diff.compare(base, {k: v for k, v in other.items()
                                     if k in "abcd"})
    assert doc["differ"] == 2 and doc["worst"] == "b"
    assert doc["max_rel"] == pytest.approx(1e-12 / 4, rel=1e-3)
    other["a"]["extras"]["m"] = [3.0]   # a key both trees have differs
    doc = report_diff.compare(base, other)
    assert doc["differ"] == 4 and doc["extras_keys_differ"] == 1
