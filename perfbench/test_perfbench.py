"""Tests of the benchmark's own code: trial runner, tracer and metric list.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads as W  # noqa: E402
from pokegrasp import catalog, harness  # noqa: E402

# Upright jars and mugs: bbox and mask guidance land in the opening and miss,
# so these poke trials complete even where a contacting poke would raise.
SUBSET = ("jar", "mug")
SUBSET_ATTEMPTS = 4


@pytest.fixture(scope="module")
def subset():
    return catalog.benchmark_scene_set(SUBSET, SUBSET_ATTEMPTS, master_seed=0)


def _traced(scenes, attempts, columns):
    tracer = bench_trace.Tracer()
    cfg = harness.TrialConfig(master_seed=0)
    with tracer:
        result = W.run_table(scenes, attempts, columns, cfg, tracer)
    return tracer, result


@pytest.mark.parametrize("task,modes", [("poke", ("bbox", "mask")),
                                        ("grasp", ("camera-mask", "camera-pr"))])
def test_trial_runner_records_equal_run_benchmark(subset, task, modes):
    cfg = harness.TrialConfig(master_seed=0)
    ours = W.run_table(subset, range(SUBSET_ATTEMPTS), tuple((task, m) for m in modes), cfg)
    ref = harness.run_benchmark(subset, modes, SUBSET_ATTEMPTS, cfg, task=task)
    assert ours.failed == 0
    assert ours.records == list(ref.trials)


def test_raising_trial_is_recorded_and_the_workload_continues(subset, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_poke_trial", broken)
    cfg = harness.TrialConfig(master_seed=0)
    result = W.run_table(subset, range(2), (("poke", "bbox"), ("grasp", "camera-mask")), cfg)
    assert result.attempted == 8 and result.failed == 4
    assert result.breakdown()["bbox"] == {"error:RuntimeError": 4}
    assert "boom" in result.errors["RuntimeError"]
    assert result.table()["camera-mask"][1] == 4


def test_tracer_reports_absent_targets_and_restores_bindings(subset):
    tracer = bench_trace.Tracer(tuple(bench_trace.LAYERS) + ("harness.no_such_function",))
    original = harness.render
    with tracer:
        assert harness.render is not original
        W.run_table(subset, range(1), W.TABLE_COLUMNS["camera_grasp"], harness.TrialConfig(), tracer)
    assert harness.render is original
    assert not [(name, attr) for name, mod in list(sys.modules.items())
                if name.startswith("pokegrasp") for attr, v in vars(mod).items()
                if hasattr(v, "__wrapped__")]
    assert tracer.absent == ["harness.no_such_function"]
    m = tracer.metrics()
    assert m["trace.absent"] == 1
    assert m["render.render.calls"] == len(SUBSET)


def test_self_times_sum_to_at_most_the_traced_wall_time(subset):
    start = time.perf_counter()
    tracer, _ = _traced(subset, range(2), W.TABLE_COLUMNS["tactile_loop"])
    wall = time.perf_counter() - start
    self_s = tracer.self_times()
    assert all(v > -1e-6 for v in self_s.values())
    assert sum(self_s.values()) <= wall
    assert {s[4] for s in tracer.spans if s[0] == "render.render"} == {
        f"{name}/{a}" for name in SUBSET for a in range(2)}


@pytest.mark.parametrize("workload", ["tactile_loop", "camera_grasp"])
def test_count_metrics_repeat_exactly(subset, workload):
    counts = []
    for _ in range(2):
        tracer, result = _traced(subset, range(SUBSET_ATTEMPTS), W.TABLE_COLUMNS[workload])
        m = tracer.metrics()
        counts.append({k: v for k, v in m.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["render.render.calls"] == len(SUBSET) * SUBSET_ATTEMPTS
    if workload == "camera_grasp":
        assert counts[0]["tactile.detect_contact.calls"] == 0
    else:
        assert counts[0]["tactile.detect_contact.calls"] > 0


def test_full_camera_grasp_table_renders_each_scene_once():
    tracer, result = _traced(catalog.benchmark_scene_set(master_seed=0), range(12), W.TABLE_COLUMNS["camera_grasp"])
    m = tracer.metrics()
    assert m["render.render.calls"] == 108
    assert m["harness.run_grasp_trial.calls"] == result.attempted == 216
    assert result.failed == 0


def test_seg_eval_is_deterministic_and_passes_its_oracle():
    images = W.seg_inputs(3, images=3)
    assert W.seg_digest(images) == W.seg_digest(W.seg_inputs(3, images=3))
    assert [len(im.gts) for im in images] == [3, 4, 5]
    first, second = W.run_seg(images), W.run_seg(images)
    assert first.digest() == second.digest() and first.failed == 0
    ok, report = W.seg_oracle(images)
    assert ok and report["mAP"] == 1.0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        bench_trace.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb"}
