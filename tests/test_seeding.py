import warnings

import numpy as np
import pytest

from pokegrasp.catalog import benchmark_scene
from pokegrasp.errors import InvalidConfig
from pokegrasp.seeding import MASK64, mix, rng_for


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64])
def test_numpy_integers_mix_like_python_ints(kind):
    # an np.int64 seed used to overflow and an np.uint64 one to warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for master, parts in ((3, (1,)), (0, (5, 2, 7)), (2**31 - 1, (2**31 - 1, 0))):
            assert mix(kind(master), *map(kind, parts)) == mix(master, *parts)
            assert mix(master, *map(kind, parts)) == mix(master, *parts)
        assert rng_for(kind(3), kind(4)).random() == rng_for(3, 4).random()
        scene = benchmark_scene("jar", 0, master_seed=kind(3))
    assert scene.objects[0].pose.translation.tobytes() \
        == benchmark_scene("jar", 0, master_seed=3).objects[0].pose.translation.tobytes()


def test_values_are_taken_mod_2_64():
    assert mix(np.uint64(MASK64), 1) == mix(MASK64, 1) == mix(-1, 1) == mix(np.int64(-1), 1)


@pytest.mark.parametrize("value", [3.0, np.float64(3.0), "3", None],
                         ids=["float", "float64", "str", "None"])
def test_a_non_integer_raises_invalid_config(value):
    with pytest.raises(InvalidConfig, match="integer"):
        mix(value, 1)
    with pytest.raises(InvalidConfig, match="integer"):
        mix(3, 1, value)
