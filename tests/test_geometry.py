import dataclasses

import numpy as np
import pytest

from pokegrasp.errors import InvalidGeometry
from pokegrasp.geometry import RigidTransform, rot_x, rot_y, rot_z


def random_transform(rng):
    angles = rng.uniform(-np.pi, np.pi, size=3)
    rot = rot_z(angles[0]) @ rot_y(angles[1]) @ rot_x(angles[2])
    return RigidTransform(rot, rng.uniform(-1, 1, size=3))


def test_distances_preserved():
    rng = np.random.default_rng(42)
    for _ in range(50):
        t = random_transform(rng)
        a, b = rng.uniform(-1, 1, size=(2, 3))
        assert abs(np.linalg.norm(t.apply(a) - t.apply(b)) - np.linalg.norm(a - b)) < 1e-9


def test_inverse_undoes_apply():
    rng = np.random.default_rng(7)
    t = random_transform(rng)
    p = rng.uniform(-1, 1, size=3)
    assert np.allclose(t.inverse().apply(t.apply(p)), p, atol=1e-12)


def test_rejects_non_rotation():
    with pytest.raises(InvalidGeometry):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(InvalidGeometry):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_translation(value):
    for axis in range(3):
        t = np.zeros(3)
        t[axis] = value
        with pytest.raises(InvalidGeometry, match="finite"):
            RigidTransform(np.eye(3), t)


def test_immutable():
    t = RigidTransform.identity()
    with pytest.raises(ValueError):
        t.rotation[0, 0] = 2.0


def test_apply_adds_the_translation_as_broadcasting_does():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = random_transform(rng)
        for p in (rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=(257, 3)),
                  np.zeros((0, 3)), [[0.5, -0.25, 2.0]]):
            expected = np.asarray(p, dtype=np.float64) @ t.rotation.T + t.translation
            got = t.apply(p)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_inverse_is_built_once_and_read_only():
    t = random_transform(np.random.default_rng(5))
    inv = t.inverse()
    assert t.inverse() is inv
    rt = t.rotation.T
    assert inv.rotation.tobytes() == np.ascontiguousarray(rt).tobytes()
    assert inv.translation.tobytes() == (-rt @ t.translation).tobytes()
    assert not inv.rotation.flags.writeable and not inv.translation.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        inv.translation = np.zeros(3)
