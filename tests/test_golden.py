"""Golden trial table: SHA-256 digests of ``run_benchmark``'s trial records.

Three objects x two attempts cover an upright, an upside-down and a
side-lying pose, a box, and a light cup that topples. The poke task runs
all three guidance modes, the grasp task the ``tactile`` mode and the
camera grasp table the ``camera-mask`` and ``camera-pr`` modes. Each
digest is taken over the sorted-key JSON of one record, so a change that
speeds up the renderer, the poke loop or the planners must leave every
record byte-equal. ``run_benchmark`` runs one task per call, so a further
test runs the poke modes and the ``tactile`` grasp over one preparation
per scene and checks each record against the same digests.

The table in ``golden_trials.json`` changes only with a deliberate,
documented behaviour change. Regenerate it with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
from pathlib import Path

import pytest

from pokegrasp.catalog import benchmark_scene
from pokegrasp.harness import GRASP_MODES, POKE_GUIDANCE_MODES, TrialConfig, \
    annotations_for, run_benchmark, run_grasp_trial, run_poke_trial
from pokegrasp.seeding import mix

GOLDEN_PATH = Path(__file__).with_name("golden_trials.json")
SCENE_ATTEMPTS = {"big_disposable_cup": (0, 4), "rectangular_cup": (4, 8), "jar": (0, 8)}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def golden_tables() -> dict:
    scenes = {name: [benchmark_scene(name, a, master_seed=0) for a in attempts]
              for name, attempts in SCENE_ATTEMPTS.items()}
    cfg = TrialConfig()
    return {"poke": run_benchmark(scenes, POKE_GUIDANCE_MODES, 2, cfg, task="poke").to_json(),
            "grasp": run_benchmark(scenes, ("tactile",), 2, cfg, task="grasp").to_json(),
            "grasp-camera": run_benchmark(scenes, ("camera-mask", "camera-pr"), 2, cfg,
                                          task="grasp").to_json()}


def golden_table(tables: dict) -> dict:
    trials = [{"task": task, "object": t["object"], "mode": t["mode"],
               "attempt": t["attempt"], "status": t["outcome"]["status"],
               "sha256": _digest(t)}
              for task, table in tables.items() for t in table["trials"]]
    return {"tables": {task: _digest(table) for task, table in tables.items()},
            "trials": trials}


@pytest.fixture(scope="module")
def tables():
    return golden_tables()


def test_trials_match_golden(tables):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = golden_table(tables)
    assert got["trials"] == golden["trials"]
    assert got["tables"] == golden["tables"]


def test_shared_preparation_matches_golden():
    """The four ``tactile_loop`` columns over one ``annotations_for`` per scene,
    as perfbench's ``run_table`` runs them: the ``tactile`` grasp reuses the
    ``pr`` poke, and a ``bbox`` and a ``mask`` poke on one pixel share theirs.
    A trial's seed takes its mode's index in the full mode tuple, as
    ``run_benchmark`` seeds it."""
    golden = {(t["task"], t["object"], t["mode"], t["attempt"]): t["sha256"]
              for t in json.loads(GOLDEN_PATH.read_text())["trials"]}
    columns = [("poke", mi, mode) for mi, mode in enumerate(POKE_GUIDANCE_MODES)] \
        + [("grasp", GRASP_MODES.index("tactile"), "tactile")]
    cfg = TrialConfig()
    checked = 0
    for oi, (name, attempts) in enumerate(SCENE_ATTEMPTS.items()):
        for attempt, slot in enumerate(attempts):
            scene = benchmark_scene(name, slot, master_seed=0)
            prepared = annotations_for(scene, cfg)
            for task, mi, mode in columns:
                seed = mix(cfg.master_seed, oi, mi, attempt)
                trial = run_poke_trial if task == "poke" else run_grasp_trial
                out = trial(scene, cfg, seed, mode, prepared=prepared)
                record = {"object": name, "mode": mode, "attempt": attempt, "seed": seed,
                          "outcome": out.to_json()}
                assert _digest(record) == golden[(task, name, mode, attempt)], (name, attempt, mode)
                checked += 1
    assert checked == len(SCENE_ATTEMPTS) * 2 * len(columns)


def test_same_seed_gives_identical_json(tables):
    again = golden_tables()
    assert json.dumps(again, sort_keys=True) == json.dumps(tables, sort_keys=True)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_table(golden_tables()), indent=1) + "\n")
