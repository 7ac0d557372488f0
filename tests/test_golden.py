"""Golden trial table: SHA-256 digests of ``run_benchmark``'s trial records.

Three objects x two attempts cover an upright, an upside-down and a
side-lying pose, a box, and a light cup that topples. The poke task runs
all three guidance modes and the grasp task the ``tactile`` mode. Each
digest is taken over the sorted-key JSON of one record, so a change that
speeds up the renderer, the poke loop or the planners must leave every
record byte-equal.

The table in ``golden_trials.json`` changes only with a deliberate,
documented behaviour change. Regenerate it with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
from pathlib import Path

import pytest

from pokegrasp.catalog import benchmark_scene
from pokegrasp.harness import POKE_GUIDANCE_MODES, TrialConfig, run_benchmark

GOLDEN_PATH = Path(__file__).with_name("golden_trials.json")
SCENE_ATTEMPTS = {"big_disposable_cup": (0, 4), "rectangular_cup": (4, 8), "jar": (0, 8)}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def golden_tables() -> dict:
    scenes = {name: [benchmark_scene(name, a, master_seed=0) for a in attempts]
              for name, attempts in SCENE_ATTEMPTS.items()}
    cfg = TrialConfig()
    return {"poke": run_benchmark(scenes, POKE_GUIDANCE_MODES, 2, cfg, task="poke").to_json(),
            "grasp": run_benchmark(scenes, ("tactile",), 2, cfg, task="grasp").to_json()}


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


def test_same_seed_gives_identical_json(tables):
    again = golden_tables()
    assert json.dumps(again, sort_keys=True) == json.dumps(tables, sort_keys=True)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_table(golden_tables()), indent=1) + "\n")
