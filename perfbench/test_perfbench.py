"""Tests for the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_same_inputs():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        first = workloads.plan(workload, 7, reference)
        assert first == workloads.plan(workload, 7, reference)
        assert first[0]
    for workload in ("analyze-large", "analyze-small"):
        assert workloads.plan(workload, 7, reference) != workloads.plan(workload, 8, reference)


def test_no_pair_repeats_within_a_run():
    reference = workloads.load_reference()
    for workload in ("analyze-large", "analyze-small"):
        for seed in range(5):
            pairs = [pq for batch in workloads.plan(workload, seed, reference) for pq in batch]
            assert len(pairs) == len(set(pairs))


def test_analyze_large_rounds_take_one_pair_per_cost_stratum():
    reference = workloads.load_reference()
    costs = workloads.reference_costs(reference, "analyze-large")
    strata = workloads.cost_strata(costs, workloads.LARGE_STRATA, workloads.LARGE_COST_CAP)
    assert len(strata) == workloads.LARGE_STRATA
    step = workloads.round_size("analyze-large")
    for seed in range(3):
        plan = workloads.plan("analyze-large", seed, reference)
        assert len(plan) % step == 0
        for start in range(0, len(plan), step):
            assert all(len(batch) == 1 for batch in plan[start:start + step])
            hit = sorted(i for [pq] in plan[start:start + step] for i, s in enumerate(strata) if pq in s)
            assert hit == list(range(len(strata)))


def test_analyze_small_batches_take_one_pair_per_cost_stratum():
    reference = workloads.load_reference()
    costs = workloads.reference_costs(reference, "analyze-small")
    assert sorted(costs) == workloads.coprime_pairs(*workloads.SMALL_N)
    strata = workloads.cost_strata(costs, workloads.SMALL_STRATA)
    assert sorted(pq for s in strata for pq in s) == sorted(costs)
    assert max(map(len, strata)) - min(map(len, strata)) <= 1
    for batch in workloads.plan("analyze-small", 3, reference):
        hit = sorted(i for pq in batch for i, s in enumerate(strata) if pq in s)
        assert hit == list(range(len(strata)))


def test_every_plannable_output_has_a_reference_digest():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        kind = "scan" if workload == "scan-checkpoint" else "analyze"
        sep = ":" if kind == "scan" else ","
        for seed in range(10):
            for batch in workloads.plan(workload, seed, reference):
                for a, b in batch:
                    assert f"{a}{sep}{b}" in reference["digests"][kind]


def test_percentile_rule_keeps_ten_samples_beyond():
    for p in (50, 90, 99):
        need = workloads.min_samples(p)
        for n in range(need, need + 300):
            values = [float(v) for v in range(n)]
            cut = workloads.percentile(values, p)
            assert sum(v > cut for v in values) >= 10
        assert (need - 1) * (1 - p / 100) < 10 <= need * (1 - p / 100) + 1e-9
    assert workloads.min_samples(90) == 100


def test_analyze_small_plan_can_meet_the_percentile_rule():
    reference = workloads.load_reference()
    need = workloads.min_samples(workloads.REPORTED_PERCENTILE["analyze-small"])
    for seed in range(5):
        plan = workloads.plan("analyze-small", seed, reference)
        assert sum(map(len, plan)) >= need


def test_calibration_kernel_is_fixed():
    assert calibration.kernel() == calibration.CHECKSUM
    assert abs(calibration.scale(3.0, 2 * calibration.REFERENCE_S) - 1.5) < 1e-12


def test_sampler_takes_its_time_out_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 3.5 * calibration.SAMPLE_INTERVAL_S:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.readings) >= 2
    assert sum(sampler.readings) <= sampler.spent < time.perf_counter() - start


def test_self_time_on_a_synthetic_span_tree():
    # root 0..10 with children 1..4 and 6..7; the first child has a child 2..3.
    tree = [
        [0, -1, 0, 0.0, 10.0, 0],
        [1, 0, 0, 1.0, 4.0, 0],
        [2, 1, 0, 2.0, 3.0, 0],
        [1, 0, 0, 6.0, 7.0, 0],
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
    metrics = spans.layer_metrics([tree, tree], models=2)
    name0, name1, name2 = spans.FUNCTIONS[:3]
    assert metrics[f"{name0}.calls"] == 2 and metrics[f"{name0}.self_s"] == 12.0
    assert metrics[f"{name1}.calls"] == 4 and metrics[f"{name1}.self_s"] == 6.0
    assert metrics[f"{name2}.calls"] == 2 and metrics[f"{name2}.self_s"] == 2.0


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in spans._package_modules().items()
        for attr, value in vars(mod).items()
    }


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import cqsdef.cli as cli

    untraced = worker.run_item(cli, "analyze-small", (8, 3), str(tmp_path))
    before = _bindings()
    recorder = spans.Recorder()
    recorder.install()
    assert spans.installed_wrappers()
    try:
        traced = worker.run_item(cli, "analyze-small", (8, 3), str(tmp_path))
    finally:
        recorder.uninstall()
    assert spans.installed_wrappers() == []
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())

    assert traced["rc"] == 0 and traced["digest"] == untraced["digest"]
    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    metrics = spans.layer_metrics([json.loads(path.read_text())["spans"]], models=1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["report.build_report.calls"] == 1
    assert metrics["geometry3.hilbert_basis_3d.calls"] > 0
    assert metrics["report.json_bytes"] > 0
    assert 0 < metrics["geometry3.hb_yield"] <= 1
