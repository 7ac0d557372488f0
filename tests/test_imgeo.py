import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pokegrasp.catalog import OBJECT_NAMES, benchmark_scene
from pokegrasp.errors import DegenerateInput, EmptyMask
from pokegrasp.imgeo import Ellipse, _trace_boundary, bbox_of, find_external_contour, \
    fit_ellipse, largest_component, nearest_positive
from pokegrasp.regions import poking_region
from pokegrasp.render import render


def bfs_components(mask):
    """Independent 8-connected component labeling (plain BFS)."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=int)
    nxt = 0
    for v in range(h):
        for u in range(w):
            if mask[v, u] and labels[v, u] == 0:
                nxt += 1
                stack = [(v, u)]
                labels[v, u] = nxt
                while stack:
                    cv, cu = stack.pop()
                    for dv in (-1, 0, 1):
                        for du in (-1, 0, 1):
                            nv, nu = cv + dv, cu + du
                            if 0 <= nv < h and 0 <= nu < w and mask[nv, nu] and labels[nv, nu] == 0:
                                labels[nv, nu] = nxt
                                stack.append((nv, nu))
    return labels, nxt


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


class TestContour:
    def test_filled_3x3_square(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        contour = find_external_contour(mask)
        assert len(contour) == 8
        got = {tuple(p) for p in contour}
        expected = {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)} - {(2, 2)}
        assert got == expected

    def test_disk_boundary_radius(self):
        mask = disk_mask((40, 40), (20, 20), 10)
        contour = find_external_contour(mask)
        r = np.hypot(contour[:, 0] - 20, contour[:, 1] - 20)
        assert np.all(r >= 9.0) and np.all(r <= 10.0 + 1e-9)
        # every contour pixel unique
        assert len({tuple(p) for p in contour}) == len(contour)

    def test_largest_component_wins(self):
        mask = np.zeros((40, 40), dtype=bool)
        mask[2:12, 2:12] = True   # area 100
        mask[20:23, 20:23] = True  # area 9
        labels, n = bfs_components(mask)
        assert n == 2
        big_label = labels[2, 2]
        contour = find_external_contour(mask)
        for u, v in contour:
            assert labels[v, u] == big_label

    def test_counter_clockwise_and_start(self):
        mask = disk_mask((30, 30), (15, 15), 8)
        contour = find_external_contour(mask).astype(float)
        u, v = contour[:, 0], contour[:, 1]
        area = 0.5 * np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v)
        assert area > 0
        vs, us = np.nonzero(mask)
        assert tuple(contour[0].astype(int)) == (us[0], vs[0])

    def test_single_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 3] = True
        assert find_external_contour(mask).tolist() == [[3, 2]]

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMask):
            find_external_contour(np.zeros((4, 4), dtype=bool))


def blob_mask(rng, shape=(18, 26)):
    """Seeded irregular mask: a disk with random pixels cleared and set."""
    mask = disk_mask(shape, (shape[1] / 2.0, shape[0] / 2.0), min(shape) / 2.0 - 1.0)
    return mask ^ (rng.random(shape) < 0.08)


class TestContourWindowInvariance:
    """The contour depends on the mask's pixels, not on where the frame
    around them ends."""

    @pytest.mark.parametrize("dv, du", [(0, 0), (3, 5), (100, 200), (222, 294)])
    def test_embedded_mask_is_offset(self, dv, du):
        rng = np.random.default_rng(dv + du)
        for small in (blob_mask(rng), annulus_mask((18, 26), (13, 9), 4, 8)):
            frame = np.zeros((240, 320), dtype=bool)
            frame[dv:dv + small.shape[0], du:du + small.shape[1]] = small
            expected = find_external_contour(small) + [du, dv]
            assert find_external_contour(frame).tolist() == expected.tolist()

    @pytest.mark.parametrize("border", ["top", "bottom", "left", "right"])
    def test_component_touching_a_border(self, border):
        rng = np.random.default_rng(1)
        mask = np.zeros((30, 40), dtype=bool)
        v0 = {"top": 0, "bottom": 18}.get(border, 9)
        u0 = {"left": 0, "right": 24}.get(border, 12)
        mask[v0:v0 + 12, u0:u0 + 16] = rng.random((12, 16)) > 0.1
        got = find_external_contour(mask)
        assert got.tolist() == (find_external_contour(np.pad(mask, 3)) - 3).tolist()
        assert np.all(mask[got[:, 1], got[:, 0]])
        on_border = {"top": got[:, 1] == 0, "bottom": got[:, 1] == 29,
                     "left": got[:, 0] == 0, "right": got[:, 0] == 39}
        assert on_border[border].any()

    @pytest.mark.parametrize("second", [(14, 2), (5, 30)])
    def test_equal_components_first_label_wins(self, second):
        mask = np.zeros((24, 40), dtype=bool)
        mask[5:8, 20:23] = True  # first in row-major order
        v, u = second
        mask[v:v + 3, u:u + 3] = True
        contour = find_external_contour(mask)
        assert len(contour) == 8
        assert np.all((contour[:, 0] >= 20) & (contour[:, 0] < 23))
        assert np.all((contour[:, 1] >= 5) & (contour[:, 1] < 8))

    @pytest.mark.parametrize("v, u", [(0, 0), (0, 319), (239, 0), (239, 319)])
    def test_one_pixel_in_a_corner(self, v, u):
        mask = np.zeros((240, 320), dtype=bool)
        mask[v, u] = True
        assert find_external_contour(mask).tolist() == [[u, v]]


# Moore neighborhood in clockwise screen order, offsets as (dv, du)
REFERENCE_OFFS = [(0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1)]


def reference_trace_boundary(mask):
    """The Moore trace as it was before the padded flat-index walk: (v, u)
    pixels, a bounds-checked neighbour test and the backtrack as a pixel."""
    h, w = mask.shape
    vs, us = np.nonzero(mask)
    s = (int(vs[0]), int(us[0]))

    def fg(p):
        return 0 <= p[0] < h and 0 <= p[1] < w and mask[p[0], p[1]]

    b0 = (s[0], s[1] - 1)  # west of the row-major first pixel: background
    p, b = s, b0
    ordered = [s]
    seen = {s}
    for _ in range(4 * (len(vs) + 8)):
        b_idx = REFERENCE_OFFS.index((b[0] - p[0], b[1] - p[1]))
        nxt = None
        for i in range(1, 9):
            d = (b_idx + i) % 8
            cand = (p[0] + REFERENCE_OFFS[d][0], p[1] + REFERENCE_OFFS[d][1])
            if fg(cand):
                prev_d = (b_idx + i - 1) % 8
                new_b = (p[0] + REFERENCE_OFFS[prev_d][0], p[1] + REFERENCE_OFFS[prev_d][1])
                nxt = cand
                break
        if nxt is None:
            break  # isolated pixel
        if nxt == s and new_b == b0:
            break
        p, b = nxt, new_b
        if p not in seen:
            seen.add(p)
            ordered.append(p)
    return ordered


def assert_trace_matches_reference(mask):
    comp = largest_component(mask)
    assert _trace_boundary(comp) == reference_trace_boundary(comp)


class TestTraceMatchesReference:
    """The padded flat-index trace walks the reference trace's path: the same
    pixels in the same order."""

    @pytest.mark.parametrize("attempt", [0, 4, 8])
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_catalog_regions(self, name, attempt):
        scene = benchmark_scene(name, attempt, master_seed=0)
        anns = poking_region(render(scene), scene.camera)
        assert anns
        for ann in anns:
            for region in (ann.mask, ann.poking_region):
                if region.any():
                    u0, v0, u1, v1 = bbox_of(region)
                    assert_trace_matches_reference(region[v0:v1 + 1, u0:u1 + 1])

    def test_seeded_random_masks(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h, w = rng.integers(1, 16, size=2)
            mask = rng.random((h, w)) < rng.uniform(0.2, 0.9)
            if mask.any():
                assert_trace_matches_reference(mask)

    @pytest.mark.parametrize("v, u", [(0, 0), (0, 6), (4, 0), (4, 6), (2, 3)])
    def test_single_pixel(self, v, u):
        mask = np.zeros((5, 7), dtype=bool)
        mask[v, u] = True
        assert _trace_boundary(mask) == reference_trace_boundary(mask) == [(v, u)]

    def test_one_pixel_spurs(self):
        # a disk with 1-px spurs out to every window edge and a diagonal one,
        # walked out along the spur and back
        mask = disk_mask((21, 21), (10, 10), 5)
        mask[10, :] = True
        mask[:, 10] = True
        for k in range(4):
            mask[3 - k, 3 - k] = True
        assert_trace_matches_reference(mask)
        assert_trace_matches_reference(mask[:, :12])

    def test_masks_filling_the_window(self):
        rng = np.random.default_rng(31)
        for shape in ((1, 9), (9, 1), (2, 2), (6, 8)):
            full = np.ones(shape, dtype=bool)
            assert_trace_matches_reference(full)
            holes = full & (rng.random(shape) < 0.8)
            holes[0, 0] = holes[-1, -1] = True
            if largest_component(holes)[0, 0]:
                assert_trace_matches_reference(holes)


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
