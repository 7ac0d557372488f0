import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pokegrasp.catalog import OBJECT_NAMES, benchmark_scene
from pokegrasp.errors import DegenerateInput, EmptyMask
from pokegrasp.imgeo import Ellipse, bbox_of, boundary_pixels, fit_ellipse, nearest_positive
from pokegrasp.regions import poking_region
from pokegrasp.render import render


def disk_mask(shape, center, radius):
    vv, uu = np.mgrid[0:shape[0], 0:shape[1]]
    return (uu - center[0]) ** 2 + (vv - center[1]) ** 2 <= radius ** 2


def annulus_mask(shape, center, r_in, r_out):
    vv, uu = np.mgrid[0:shape[0], 0:shape[1]]
    d2 = (uu - center[0]) ** 2 + (vv - center[1]) ** 2
    return (d2 >= r_in ** 2) & (d2 <= r_out ** 2)


def ellipse_points(center, a, b, angle, n=36, noise=0.0, rng=None):
    tau = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    x = a * np.cos(tau)
    y = b * np.sin(tau)
    c, s = np.cos(angle), np.sin(angle)
    pts = np.column_stack([center[0] + c * x - s * y, center[1] + s * x + c * y])
    if noise:
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
    return pts


def reference_boundary(mask):
    """Pixel-by-pixel boundary: (u, v) of each positive pixel, row-major,
    with a 4-neighbour outside the mask or the frame."""
    h, w = mask.shape

    def inside(v, u):
        return 0 <= v < h and 0 <= u < w and mask[v, u]

    return [[u, v] for v in range(h) for u in range(w) if mask[v, u]
            and not all(inside(v + dv, u + du) for dv, du in ((-1, 0), (1, 0), (0, -1), (0, 1)))]


def blob_mask(rng, shape=(18, 26)):
    """Seeded irregular mask: a disk with random pixels cleared and set."""
    mask = disk_mask(shape, (shape[1] / 2.0, shape[0] / 2.0), min(shape) / 2.0 - 1.0)
    return mask ^ (rng.random(shape) < 0.08)


class TestBoundaryPixels:
    def test_filled_3x3_square(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        expected = [[u, v] for v in (1, 2, 3) for u in (1, 2, 3) if (u, v) != (2, 2)]
        assert boundary_pixels(mask).tolist() == expected

    def test_single_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 3] = True
        assert boundary_pixels(mask).tolist() == [[3, 2]]

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMask):
            boundary_pixels(np.zeros((4, 4), dtype=bool))

    def test_disk_boundary_radius(self):
        got = boundary_pixels(disk_mask((40, 40), (20, 20), 10))
        r = np.hypot(got[:, 0] - 20, got[:, 1] - 20)
        assert np.all(r > 9.0) and np.all(r <= 10.0)

    def test_an_annulus_keeps_both_rims(self):
        got = boundary_pixels(annulus_mask((40, 40), (20, 20), 6, 10))
        r = np.hypot(got[:, 0] - 20, got[:, 1] - 20)
        inner, outer = r[r < 8], r[r >= 8]
        assert inner.size and np.all((inner >= 6.0) & (inner < 7.0))
        assert outer.size and np.all((outer > 9.0) & (outer <= 10.0))

    def test_matches_the_reference_on_seeded_masks(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h, w = rng.integers(1, 16, size=2)
            mask = rng.random((h, w)) < rng.uniform(0.2, 0.9)
            if mask.any():
                assert boundary_pixels(mask).tolist() == reference_boundary(mask)

    @pytest.mark.parametrize("attempt", [0, 4, 8])
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_catalog_regions(self, name, attempt):
        scene = benchmark_scene(name, attempt, master_seed=0)
        anns = poking_region(render(scene), scene.camera)
        assert anns
        for ann in anns:
            for region in (ann.mask, ann.poking_region):
                if region.any():
                    assert boundary_pixels(region).tolist() == reference_boundary(region)


class TestBoundaryWindowInvariance:
    """The boundary depends on the mask's pixels, not on where the frame
    around them ends."""

    @pytest.mark.parametrize("dv, du", [(0, 0), (3, 5), (100, 200), (222, 294)])
    def test_embedded_mask_is_offset(self, dv, du):
        rng = np.random.default_rng(dv + du)
        for small in (blob_mask(rng), annulus_mask((18, 26), (13, 9), 4, 8)):
            frame = np.zeros((240, 320), dtype=bool)
            frame[dv:dv + small.shape[0], du:du + small.shape[1]] = small
            expected = boundary_pixels(small) + [du, dv]
            assert boundary_pixels(frame).tolist() == expected.tolist()

    @pytest.mark.parametrize("border", ["top", "bottom", "left", "right"])
    def test_component_touching_a_border(self, border):
        rng = np.random.default_rng(1)
        mask = np.zeros((30, 40), dtype=bool)
        v0 = {"top": 0, "bottom": 18}.get(border, 9)
        u0 = {"left": 0, "right": 24}.get(border, 12)
        mask[v0:v0 + 12, u0:u0 + 16] = rng.random((12, 16)) > 0.1
        got = boundary_pixels(mask)
        assert got.tolist() == (boundary_pixels(np.pad(mask, 3)) - 3).tolist()
        on_border = {"top": got[:, 1] == 0, "bottom": got[:, 1] == 29,
                     "left": got[:, 0] == 0, "right": got[:, 0] == 39}
        assert on_border[border].any()

    @pytest.mark.parametrize("v, u", [(0, 0), (0, 319), (239, 0), (239, 319)])
    def test_one_pixel_in_a_corner(self, v, u):
        mask = np.zeros((240, 320), dtype=bool)
        mask[v, u] = True
        assert boundary_pixels(mask).tolist() == [[u, v]]


def test_bbox_of_matches_nonzero_extremes():
    rng = np.random.default_rng(5)
    for density in (0.0005, 0.01, 0.3):
        mask = rng.random((40, 60)) < density
        vs, us = np.nonzero(mask)
        assert bbox_of(mask) == (us.min(), vs.min(), us.max(), vs.max())
    with pytest.raises(EmptyMask):
        bbox_of(np.zeros((4, 4), dtype=bool))


class TestFitEllipse:
    def test_circle_recovery(self):
        pts = ellipse_points((50.0, 40.0), 12.0, 12.0, 0.0)
        e = fit_ellipse(pts)
        assert abs(e.centroid[0] - 50.0) < 1e-6
        assert abs(e.centroid[1] - 40.0) < 1e-6
        assert abs(e.semi_major - 12.0) < 1e-6
        assert abs(e.semi_minor - 12.0) < 1e-6

    def test_rotated_ellipse_recovery(self):
        angle = np.deg2rad(30.0)
        pts = ellipse_points((100.0, 80.0), 20.0, 10.0, angle)
        e = fit_ellipse(pts)
        assert abs(e.centroid[0] - 100.0) < 1e-6
        assert abs(e.centroid[1] - 80.0) < 1e-6
        assert abs(e.semi_major - 20.0) < 1e-6
        assert abs(e.semi_minor - 10.0) < 1e-6
        assert abs(e.rotation_angle - angle) < 1e-6

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            fit_ellipse([[0, 0], [1, 0], [2, 1], [3, 3]])

    def test_collinear_points(self):
        pts = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(DegenerateInput):
            fit_ellipse(pts)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = ellipse_points((10.0, 20.0), 8.0, 5.0, 0.7, n=24)
        e1 = fit_ellipse(pts)
        e2 = fit_ellipse(pts[rng.permutation(len(pts))])
        assert abs(e1.centroid[0] - e2.centroid[0]) < 1e-9
        assert abs(e1.centroid[1] - e2.centroid[1]) < 1e-9
        assert abs(e1.semi_major - e2.semi_major) < 1e-9
        assert abs(e1.rotation_angle - e2.rotation_angle) < 1e-9

    def test_noisy_centroid_statistics(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(100):
            center = rng.uniform(30, 70, size=2)
            a = rng.uniform(10, 25)
            b = rng.uniform(6, a)
            angle = rng.uniform(0, np.pi)
            pts = ellipse_points(center, a, b, angle, n=60, noise=0.5, rng=rng)
            e = fit_ellipse(pts)
            err = np.hypot(e.centroid[0] - center[0], e.centroid[1] - center[1])
            worst = max(worst, err)
        assert worst < 0.5

    def test_angle_normalized(self):
        e = Ellipse(centroid=(0.0, 0.0), semi_major=2.0, semi_minor=1.0,
                    rotation_angle=np.pi + 0.3)
        assert 0.0 <= e.rotation_angle < np.pi
        assert abs(e.rotation_angle - 0.3) < 1e-12


class TestNearestPositive:
    def test_identity_when_positive(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[4, 7] = True
        mask[2, 2] = True
        assert nearest_positive(mask, (7, 4)) == (7, 4)

    def test_annulus_matches_exhaustive_scan(self):
        mask = annulus_mask((60, 60), (30, 30), 8, 10)
        got = nearest_positive(mask, (30.0, 30.0))
        vs, us = np.nonzero(mask)
        d2 = (us - 30.0) ** 2 + (vs - 30.0) ** 2
        best = d2.min()
        gu, gv = got
        assert (gu - 30.0) ** 2 + (gv - 30.0) ** 2 == best
        assert abs(np.hypot(gu - 30, gv - 30) - 8.0) < 1.0

    def test_tie_breaks_row_major(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1, 2] = True  # above q
        mask[3, 2] = True  # below q, same distance
        assert nearest_positive(mask, (2.0, 2.0)) == (2, 1)

    def test_empty_raises(self):
        with pytest.raises(EmptyMask):
            nearest_positive(np.zeros((3, 3), dtype=bool), (1, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_always_minimal_on_small_masks(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((8, 8)) < 0.3
        if not mask.any():
            mask[rng.integers(8), rng.integers(8)] = True
        q = rng.uniform(-2, 9, size=2)
        u, v = nearest_positive(mask, q)
        assert mask[v, u]
        d = np.hypot(u - q[0], v - q[1])
        vs, us = np.nonzero(mask)
        assert np.all(d <= np.hypot(us - q[0], vs - q[1]) + 1e-12)
