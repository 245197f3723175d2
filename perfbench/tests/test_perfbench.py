"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# --- percentiles -------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    values = [float(v) for v in range(10, 0, -1)]
    assert stats.percentile(values, 50) == 5.5
    assert stats.percentile(values, 90) == pytest.approx(9.1)
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 10.0
    assert stats.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_percentile_agrees_with_numpy():
    np = pytest.importorskip("numpy")
    values = np.random.default_rng(5).lognormal(size=37).tolist()
    for q in (10, 50, 90, 99):
        assert stats.percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_p90_is_resolved_only_with_ten_samples_beyond_it():
    assert stats.tail_count(range(100), stats.percentile(range(100), 90)) == 10
    assert stats.percentile_resolved(list(range(100)), 90)
    assert stats.tail_count(range(91), stats.percentile(range(91), 90)) == 9
    assert not stats.percentile_resolved(list(range(91)), 90)
    assert not stats.percentile_resolved([1.0] * 500, 90)  # ties are not beyond


def test_speed_factors_use_the_reference_samples_around_each_op():
    nominal = stats.REF_NOMINAL_S
    ref_times = [0.0, 0.5, 1.0, 1.5, 10.0]
    ref_values = [nominal, 2 * nominal, 2 * nominal, 4 * nominal, nominal / 2]
    ops = [(0.8, 1.0), (8.5, 8.5), (20.0, 20.0), (2.0, 9.5)]
    factors = stats.speed_factors(ops, ref_times, ref_values)
    # the first op sees all four early samples (median 2x slower); the next
    # two see none within the window and take the nearest; the last spans
    # the gap and sees the last three
    assert factors == pytest.approx([0.5, 2.0, 2.0, 0.5])


def test_nominal_seconds_rescales_by_the_reference_kernel():
    seconds = stats.nominal_seconds(1.0)
    assert seconds > 0.0
    assert stats.reference_seconds() > 0.0


# --- spans and self time -----------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        ["bench.op", 0.0, 10.0, -1, 0],
        ["cli.main", 1.0, 9.0, 0, 0],
        ["dynamics.simulate", 2.0, 5.0, 1, 0],
        ["netcore.state_new", 3.0, 4.0, 2, 0],
        ["dynamics.write_trace_jsonl", 6.0, 8.0, 1, 0],
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 2.0, 1.0, 2.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_overlapping_and_overhanging_children_are_covered_once():
    spans = [
        ["bench.op", 0.0, 10.0, -1, 0],
        ["cli.main", 2.0, 6.0, 0, 0],
        ["cli.main", 4.0, 8.0, 0, 0],
        ["cli.main", 9.0, 12.0, 0, 0],
    ]
    # children cover [2, 8] and [9, 10] inside the parent: 7 of its 10
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_metrics_account_for_the_traced_wall_time():
    spans = [
        ["bench.op", 0.0, 4.0, -1, 0],
        ["oracle.enumerate_equilibria", 0.5, 3.5, 0, 0],
        ["oracle.candidate", 1.0, 2.0, 1, 0],
        ["oracle.opinion_fixed_point", 1.2, 1.5, 2, 0],
        ["analysis.is_nash", 2.0, 2.5, 1, 0],
        ["bench.op", 10.0, 11.0, -1, 1],
        ["genesis.random_symmetric_stochastic", 10.25, 10.75, 5, 1],
    ]
    counters = {"dynamics.steps": 0, "dynamics.export.bytes": 0,
                "oracle.profiles": 64, "oracle.kept": 1}
    metrics, self_sum = tracing.layer_metrics(spans, counters, untraced_wall=4.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["trace.wall_s"] == 5.0
    assert self_sum == pytest.approx(5.0)
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(metrics["trace.wall_s"])
    assert metrics["oracle.enumerate.self_s"] == pytest.approx(1.5)
    assert metrics["oracle.candidate.self_s"] == pytest.approx(0.7)
    assert metrics["oracle.ns_per_profile"] == pytest.approx(3.0e9 / 64)
    assert metrics["oracle.kept_per_candidate"] == 1.0
    assert metrics["genesis.graph_ms"] == pytest.approx(500.0)
    assert metrics["bench.self_s"] == pytest.approx(1.5)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)


# --- metric names and BENCHMARK.json -----------------------------------------


@pytest.mark.parametrize("name", ["ops_per_s", "oracle.ns_per_profile", "a-b_c.9", "9x"])
def test_metric_name_accepts(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "a b", "-x", ".x", "x/y", "x" * 65, "p90%"])
def test_metric_name_rejects(name):
    assert not stats.valid_metric_name(name)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_metric_name(name) for name in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


# --- smoke pass --------------------------------------------------------------


def _bench(cwd, workload, trace, seconds="0.3"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_pass_has_no_failures(workload, trace):
    result = _bench(ROOT, workload, trace)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    assert any(line.startswith("# fail_frac 0.0 ") for line in lines)
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = _bench(tmp_path, "certify", 0)
    assert result.returncode != 0
    assert not result.stdout.strip()
