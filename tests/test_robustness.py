"""Whole trials beyond the catalog's placements end as a success or a
classified reason, and never raise.

The benchmark places one object within +-6 cm of the table origin. Here
every poke guidance and every grasp mode runs on seeded scenes drawn
wider: single objects at +-6, +-16 and +-35 cm (the last partly out of
view) and three non-overlapping objects at +-12 cm. A hypothesis variant
draws the object count, the catalog objects, their resting poses and their
placements at +-35 cm.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pokegrasp.catalog import CATALOG, SIDE, UPRIGHT, UPSIDE_DOWN, default_camera, make_object
from pokegrasp.harness import FAILURE, GRASP_MODES, MISS, POKE_GUIDANCE_MODES, SUCCESS, \
    TOPPLE, TrialConfig, annotations_for, run_grasp_trial, run_poke_trial
from pokegrasp.scene import Box, Scene
from pokegrasp.seeding import rng_for

SCENES_PER_KIND = 10
KINDS = {"single_6cm": (1, 0.06), "single_16cm": (1, 0.16), "single_35cm": (1, 0.35),
         "three_12cm": (3, 0.12)}
MAX_DRAWS = 50
GRASP_REASONS = {"no_annotation", "planning_failed", "no_depth", "poke_miss", "poke_topple",
                 "adhesion_disturbance", "width_overflow", "descent_collision", "no_contact",
                 "finger_inside_object", "localization_error"}
POKE_REASONS = {"no_annotation", "planning_failed", "ray_not_down", "no_touch", "steep_contact",
                "no_fire"}


def footprint_radius(entry, orientation: str) -> float:
    """A table-plane radius about the pose origin that holds the object."""
    shape = entry.shape
    if isinstance(shape, Box):
        return float(np.linalg.norm(shape.size)) / 2.0
    return float(np.hypot(shape.max_radius, shape.z_max)) if orientation == SIDE else shape.max_radius


def drawn_scene(kind: str, index: int) -> Scene:
    """Up to ``count`` objects from a bounded run of seeded draws; a draw
    that would overlap a placed object is dropped."""
    count, extent = KINDS[kind]
    rng = rng_for(0xB0057, list(KINDS).index(kind), index)
    placed, objects = [], []
    for _ in range(MAX_DRAWS):
        if len(objects) == count:
            break
        entry = CATALOG[int(rng.integers(len(CATALOG)))]
        orientation = (UPRIGHT, UPSIDE_DOWN, SIDE)[int(rng.integers(3 if entry.side_capable else 2))]
        x, y = (float(v) for v in rng.uniform(-extent, extent, size=2))
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        radius = footprint_radius(entry, orientation)
        if all(np.hypot(x - px, y - py) > radius + pr for px, py, pr in placed):
            placed.append((x, y, radius))
            objects.append(make_object(entry, orientation, x, y, yaw, oid=len(objects) + 1))
    return Scene(camera=default_camera(), objects=tuple(objects))


def run_every_mode(scene: Scene, cfg: TrialConfig):
    """Run every poke guidance and every grasp mode on the scene and check
    that each ends in a success (or a topple) or a known reason; return the
    preparation and the poke reasons seen."""
    prepared = annotations_for(scene, cfg)
    poke_reasons = set()
    for seed, guidance in enumerate(POKE_GUIDANCE_MODES):
        outcome = run_poke_trial(scene, cfg, seed, guidance, prepared)
        assert (outcome.status in (SUCCESS, TOPPLE) and outcome.reason == "") or \
            (outcome.status == MISS and outcome.reason in POKE_REASONS)
        poke_reasons.add(outcome.reason)
    for seed, mode in enumerate(GRASP_MODES):
        outcome = run_grasp_trial(scene, cfg, seed, mode, prepared)
        assert (outcome.status, outcome.reason) == (SUCCESS, "") or \
            (outcome.status == FAILURE and outcome.reason in GRASP_REASONS)
    return prepared, poke_reasons


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_trial_ends_in_a_known_outcome(kind):
    cfg = TrialConfig()
    empty_views, poke_reasons = 0, set()
    for index in range(SCENES_PER_KIND):
        scene = drawn_scene(kind, index)
        assert len(scene.objects) == KINDS[kind][0]
        prepared, reasons = run_every_mode(scene, cfg)
        empty_views += not prepared.anns
        poke_reasons |= reasons
    # the widest draw must reach the nothing-in-view path, the others never do
    assert (empty_views > 0) == (kind == "single_35cm")
    assert ("no_annotation" in poke_reasons) == (kind == "single_35cm")


@st.composite
def hypothesis_scenes(draw):
    """One to three catalog objects, each in a drawn resting pose at a drawn
    placement within +-35 cm; a draw that overlaps a placed object is
    rejected."""
    placed, objects = [], []
    for oid in range(1, draw(st.integers(1, 3)) + 1):
        entry = draw(st.sampled_from(CATALOG))
        poses = (UPRIGHT, UPSIDE_DOWN, SIDE) if entry.side_capable else (UPRIGHT, UPSIDE_DOWN)
        orientation = draw(st.sampled_from(poses))
        x, y = draw(st.floats(-0.35, 0.35)), draw(st.floats(-0.35, 0.35))
        yaw = draw(st.floats(0.0, 2.0 * np.pi))
        radius = footprint_radius(entry, orientation)
        assume(all(np.hypot(x - px, y - py) > radius + pr for px, py, pr in placed))
        placed.append((x, y, radius))
        objects.append(make_object(entry, orientation, x, y, yaw, oid=oid))
    return Scene(camera=default_camera(), objects=tuple(objects))


@settings(max_examples=60)
@given(hypothesis_scenes())
def test_drawn_scenes_end_in_a_known_outcome(scene):
    run_every_mode(scene, TrialConfig())
