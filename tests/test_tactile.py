import numpy as np
import pytest

from pokegrasp.errors import InvalidConfig, ResolutionMismatch
from pokegrasp.harness import _footprint_heights
from pokegrasp.scene import Box, ObjectModel, RevolutionProfile, Scene
from pokegrasp.geometry import RigidTransform
from pokegrasp.tactile import TactileSensorSpec, detect_contact, frame_from_heights

from conftest import overhead_camera, straight_cup


def scene_with(*objects):
    return Scene(camera=overhead_camera(), objects=tuple(objects))


def ring_vial(r_out=0.009, wall=0.0025, height=0.055, center=(0.0, 0.0), oid=1):
    shape = RevolutionProfile(points=((r_out, 0.0), (r_out, height)), open_top=True)
    return ObjectModel(id=oid, shape=shape, mass=0.03, wall_thickness=wall,
                       pose=RigidTransform(np.eye(3), [center[0], center[1], 0.0]))


def sensed_image(scene, spec, center):
    """The indentation image a probe reads with the sensor centred at ``center``: the
    sensel columns cast with the sensing plane as floor."""
    center = np.asarray(center, dtype=np.float64)
    heights, _, _ = _footprint_heights(scene, spec, center, floor=center[2])
    return frame_from_heights(heights, spec, center)


# wide enough to hold a whole vial rim in one frame
WIDE_SENSOR = TactileSensorSpec(area_x=0.044, area_y=0.044, res_x=176, res_y=176)


class TestSimulateFrame:
    """Probe frames: ``_footprint_heights`` with the plane as floor, then
    ``frame_from_heights``."""

    def test_clear_sensor_is_all_zero(self):
        scene = scene_with(straight_cup())  # rim at 0.10
        image = sensed_image(scene, TactileSensorSpec(), (0.0, 0.0, 0.101))
        assert np.all(image == 0.0)

    def test_half_sensor_on_flat_top(self):
        # box top covers exactly the sensels with world x < 0
        box = ObjectModel(id=1, shape=Box(size=(0.1, 0.1, 0.05)), mass=0.5,
                          pose=RigidTransform(np.eye(3), [-0.05, 0.0, 0.0]))
        scene = scene_with(box)
        spec = TactileSensorSpec()
        image = sensed_image(scene, spec, (0.0, 0.0, 0.05 - 0.0005))
        on = image > 0
        assert on.sum() == spec.res_x * spec.res_y // 2
        assert np.all(np.abs(image[on] - 0.0005) < 1e-12)

    def test_ring_contact_matches_point_in_annulus_oracle(self):
        vial = ring_vial()
        scene = scene_with(vial)
        center = (0.003, -0.002, 0.055 - 0.0004)
        image = sensed_image(scene, WIDE_SENSOR, center)
        _, _, xy = _footprint_heights(scene, WIDE_SENSOR, center)
        rho = np.hypot(xy[..., 0], xy[..., 1])
        expected = (rho >= 0.009 - 0.0025 - 1e-12) & (rho <= 0.009 + 1e-12)
        assert np.array_equal(image > 0, expected)

    def test_deterministic(self):
        scene = scene_with(ring_vial())
        a = sensed_image(scene, WIDE_SENSOR, (0.0, 0.0, 0.0546))
        b = sensed_image(scene, WIDE_SENSOR, (0.0, 0.0, 0.0546))
        assert np.array_equal(a, b)

    def test_max_indent_clamp(self):
        box = ObjectModel(id=1, shape=Box(size=(0.1, 0.1, 0.05)), mass=0.5)
        spec = TactileSensorSpec(max_indent=0.002)
        image = sensed_image(scene_with(box), spec, (0.0, 0.0, 0.04))
        assert image.max() == 0.002

    @pytest.mark.parametrize("field", ["area_x", "area_y", "max_indent"])
    def test_rejects_non_finite(self, field):
        # with max_indent NaN every indentation clipped to NaN: a topple poke
        # counted no sensel and ended as a silent miss
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidConfig, match="finite"):
                TactileSensorSpec(**{field: value})

    @pytest.mark.parametrize("res", [{"res_x": 16.5}, {"res_y": 16.0}, {"res_x": True}])
    def test_rejects_non_integer_resolution(self, res):
        # res_x=16.5 used to build 17 sensel columns, then fail mid-poke
        with pytest.raises(InvalidConfig, match="integer"):
            TactileSensorSpec(**res)

    def test_accepts_numpy_integer_resolution(self):
        spec = TactileSensorSpec(res_x=np.int64(32), res_y=np.int32(16))
        assert spec.sensel_offsets.shape == (32 * 16, 2)


class TestDetectContact:
    def test_identical_frames(self):
        f = np.zeros((120, 160))
        assert detect_contact(f, f) == (False, 0)

    def test_counts_and_threshold(self):
        ref = np.zeros((120, 160))
        cur = np.zeros((120, 160))
        cur.ravel()[:50] = 2 * 0.0001
        assert detect_contact(ref, cur, value_threshold=0.0001, count_threshold=30) == (True, 50)
        assert detect_contact(ref, cur, value_threshold=0.0001, count_threshold=50) == (False, 50)

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 0.001, (60, 80))
        b = rng.uniform(0, 0.001, (60, 80))
        assert detect_contact(a, b) == detect_contact(b, a)

    def test_count_monotone_in_value_threshold(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 0.001, (60, 80))
        b = rng.uniform(0, 0.001, (60, 80))
        counts = [detect_contact(a, b, value_threshold=t)[1]
                  for t in (0.0, 1e-5, 1e-4, 5e-4, 1e-3)]
        assert counts == sorted(counts, reverse=True)

    def test_resolution_mismatch(self):
        a = np.zeros((60, 80))
        b = np.zeros((61, 80))
        with pytest.raises(ResolutionMismatch):
            detect_contact(a, b)
