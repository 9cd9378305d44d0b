import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadscene.errors import InputError
from roadscene.geometry import PixelPoint
from roadscene.imaging import ImageBuffer
from roadscene.roadmodel import (
    RoadMask,
    SrgParams,
    _boundary_pixels,
    extract_boundary,
    refine_mask,
    srg_segment,
)


def gray(arr):
    return ImageBuffer(np.asarray(arr, dtype=np.uint8))


def flood_oracle(pixels, seeds, tau):
    """Plain BFS over the similarity graph, written independently."""
    h, w = pixels.shape
    grown = np.zeros((h, w), dtype=bool)
    queue = collections.deque()
    for x, y in seeds:
        if not grown[y, x]:
            grown[y, x] = True
            queue.append((x, y))
    while queue:
        x, y = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and not grown[ny, nx] \
                        and abs(int(pixels[ny, nx]) - int(pixels[y, x])) < tau:
                    grown[ny, nx] = True
                    queue.append((nx, ny))
    return grown


def random_scene(rng, size=64):
    """Piecewise-constant background with pasted rectangles plus noise."""
    img = np.full((size, size), 128, dtype=np.uint8)
    for _ in range(rng.integers(2, 7)):
        x0, y0 = rng.integers(0, size - 8, size=2)
        ww, hh = rng.integers(4, 24, size=2)
        img[y0:y0 + hh, x0:x0 + ww] = rng.integers(0, 256)
    noise = rng.integers(-3, 4, size=img.shape)
    return np.clip(img.astype(np.int16) + noise, 0, 255).astype(np.uint8)


class TestSrgSegment:
    def test_uniform_image_grows_everywhere(self):
        img = gray(np.full((10, 12), 90))
        mask = srg_segment(img, [PixelPoint.bev(3, 4)])
        assert mask.pixels.all()

    def test_hard_edge_stops_growth(self):
        arr = np.zeros((8, 8), dtype=np.uint8)
        arr[:, 4:] = 200
        mask = srg_segment(gray(arr), [PixelPoint.bev(1, 1)])
        assert mask.pixels[:, :4].all()
        assert not mask.pixels[:, 4:].any()

    def test_threshold_is_strict(self):
        arr = np.array([[0, 11, 23, 34]], dtype=np.uint8)
        mask = srg_segment(gray(arr), [PixelPoint.bev(0, 0)],
                           SrgParams(tau_alpha=12))
        # steps of 11 join, the step of exactly 12 does not
        assert mask.pixels.tolist() == [[True, True, False, False]]

    def test_diagonal_connectivity(self):
        arr = np.full((4, 4), 255, dtype=np.uint8)
        arr[0, 0] = arr[1, 1] = arr[2, 2] = arr[3, 3] = 0
        mask = srg_segment(gray(arr), [PixelPoint.bev(0, 0)])
        assert mask.pixels.sum() == 4
        assert mask.pixels[3, 3]

    def test_result_contains_all_seeds(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        seeds = [PixelPoint.bev(int(x), int(y))
                 for x, y in rng.integers(0, 32, size=(6, 2))]
        mask = srg_segment(gray(arr), seeds)
        for p in seeds:
            assert mask.pixels[int(p.y), int(p.x)]

    def test_seed_order_does_not_matter(self):
        rng = np.random.default_rng(6)
        arr = random_scene(rng)
        seeds = [PixelPoint.bev(3, 3), PixelPoint.bev(40, 50),
                 PixelPoint.bev(12, 60)]
        a = srg_segment(gray(arr), seeds)
        b = srg_segment(gray(arr), seeds[::-1])
        assert a == b

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        arr = random_scene(rng)
        cells = [tuple(c) for c in rng.integers(0, 64, size=(4, 2))]
        seeds = [PixelPoint.bev(x, y) for x, y in cells]
        mask = srg_segment(gray(arr), seeds, SrgParams(tau_alpha=12))
        expected = flood_oracle(arr, cells, 12)
        assert np.array_equal(mask.pixels, expected)

    @pytest.mark.parametrize("column", [0, 6])
    def test_growth_does_not_wrap_across_row_ends(self, column):
        # dark first and last columns, bright between: from one dark column
        # the other is reachable only by a step that wraps a row end
        arr = np.full((5, 7), 200, dtype=np.uint8)
        arr[:, [0, 6]] = 0
        for y in (0, 2, 4):
            mask = srg_segment(gray(arr), [PixelPoint.bev(column, y)])
            expected = np.zeros((5, 7), dtype=bool)
            expected[:, column] = True
            assert np.array_equal(mask.pixels, expected)

    @pytest.mark.parametrize("shape", [(9, 1), (1, 9), (1, 1)])
    def test_one_pixel_wide_or_tall_images(self, shape):
        arr = np.array([10, 15, 20, 60, 65, 70, 72, 200, 190][:max(shape)],
                       dtype=np.uint8).reshape(shape)
        for i in range(arr.size):
            y, x = divmod(i, shape[1])
            mask = srg_segment(gray(arr), [PixelPoint.bev(x, y)],
                               SrgParams(tau_alpha=8))
            assert np.array_equal(mask.pixels,
                                  flood_oracle(arr, [(x, y)], 8))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_frontier_walk_matches_oracle_on_small_images(self, data):
        # the same BFS as criterion 7's oracle, on any shape down to 1x1
        h = data.draw(st.integers(1, 9))
        w = data.draw(st.integers(1, 9))
        # few levels, so regions form and touch both the edges and each other
        levels = data.draw(st.lists(st.integers(0, 255), min_size=1,
                                    max_size=4))
        arr = np.array(data.draw(st.lists(st.sampled_from(levels),
                                          min_size=h * w, max_size=h * w)),
                       dtype=np.uint8).reshape(h, w)
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            min_size=1, max_size=5))
        tau = data.draw(st.integers(1, 255))
        mask = srg_segment(gray(arr), [PixelPoint.bev(x, y) for x, y in cells],
                           SrgParams(tau_alpha=tau))
        assert np.array_equal(mask.pixels, flood_oracle(arr, cells, tau))

    def test_no_seeds_raises(self):
        with pytest.raises(InputError, match="need at least one seed"):
            srg_segment(gray(np.zeros((4, 4))), [])

    def test_seed_outside_image_raises(self):
        with pytest.raises(ValueError):
            srg_segment(gray(np.zeros((4, 4))), [PixelPoint.bev(10, 1)])

    def test_perspective_seed_rejected(self):
        with pytest.raises(ValueError):
            srg_segment(gray(np.zeros((4, 4))), [PixelPoint.perspective(1, 1)])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SrgParams(tau_alpha=0)
        with pytest.raises(ValueError):
            SrgParams(tau_alpha=256)


def _uint8_closing(road: np.ndarray) -> np.ndarray:
    """The closing `refine_mask` once computed: the mask as a 0/255 image,
    a 3x3 grey-level maximum and then minimum with off-image pixels 0,
    thresholded at 127."""
    img = np.where(road, 255, 0).astype(np.uint8)
    for reduce_fn in (np.max, np.min):
        padded = np.zeros((img.shape[0] + 2, img.shape[1] + 2),
                          dtype=np.uint8)
        padded[1:-1, 1:-1] = img
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
        img = reduce_fn(windows, axis=(2, 3))
    return img > 127


@st.composite
def _masks(draw):
    """Masks of 1 to 12 rows and columns: random, empty or full."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill != "random":
        return np.full((h, w), fill == "full")
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=bool).reshape(h, w)


class TestRefineMask:
    def test_solid_block_unchanged(self):
        road = np.zeros((12, 12), dtype=bool)
        road[2:9, 3:10] = True
        assert refine_mask(RoadMask(road)) == RoadMask(road)

    def test_single_pixel_hole_filled(self):
        road = np.zeros((12, 12), dtype=bool)
        road[2:10, 2:10] = True
        holed = road.copy()
        holed[5, 6] = False
        assert refine_mask(RoadMask(holed)) == RoadMask(road)

    def test_one_pixel_gap_bridged(self):
        road = np.zeros((9, 15), dtype=bool)
        road[3:6, 1:7] = True
        road[3:6, 8:14] = True
        refined = refine_mask(RoadMask(road))
        assert refined.pixels[4, 7]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(11)
        road = rng.random((40, 40)) > 0.4
        once = refine_mask(RoadMask(road))
        assert refine_mask(once) == once

    def test_all_false(self):
        empty = RoadMask(np.zeros((5, 5), dtype=bool))
        assert refine_mask(empty) == empty

    def test_single_pixel_kept(self):
        # dilation grows it to its 3x3 block, erosion shrinks it back
        road = np.zeros((5, 5), dtype=bool)
        road[2, 2] = True
        assert refine_mask(RoadMask(road)) == RoadMask(road)

    def test_closing_fills_hole(self):
        road = np.ones((7, 7), dtype=bool)
        road[3, 3] = False
        road[0, :] = road[-1, :] = road[:, 0] = road[:, -1] = False
        assert refine_mask(RoadMask(road)).pixels[3, 3]

    def test_closing_keeps_interior_pixels(self):
        rng = np.random.default_rng(41)
        road = np.zeros((20, 20), dtype=bool)
        road[5:15, 5:15] = rng.random((10, 10)) < 0.7
        closed = refine_mask(RoadMask(road)).pixels
        inside = road[2:-2, 2:-2]
        assert np.all(closed[2:-2, 2:-2][inside])

    @settings(max_examples=300, deadline=None)
    @given(_masks())
    @example(np.ones((1, 7), dtype=bool))
    @example(np.ones((7, 1), dtype=bool))
    @example(np.array([[True, False, True, True, False]]))
    @example(np.array([[True], [False], [True], [True]]))
    @example(np.zeros((6, 5), dtype=bool))
    @example(np.ones((6, 5), dtype=bool))
    def test_equals_uint8_closing(self, road):
        assert np.array_equal(refine_mask(RoadMask(road)).pixels,
                              _uint8_closing(road))


def _windows3x3(road: np.ndarray) -> np.ndarray:
    """The 3x3 neighborhood of each pixel, (h, w, 3, 3); off-image pixels
    read False.  The windowed form the separable passes replaced."""
    h, w = road.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = road
    return np.lib.stride_tricks.sliding_window_view(padded, (3, 3))


@st.composite
def _large_masks(draw):
    """Masks up to 60x80 with road at a random density, its edge pixels
    included."""
    h, w = draw(st.integers(1, 60)), draw(st.integers(1, 80))
    seed, density = draw(st.integers(0, 2 ** 32 - 1)), draw(st.floats(0, 1))
    return np.random.default_rng(seed).random((h, w)) < density


class TestSeparablePasses:
    """The closing and the border test by rows-then-columns passes equal
    the windowed reductions, edge pixels included."""

    @settings(max_examples=200, deadline=None)
    @given(_masks() | _large_masks())
    @example(np.ones((1, 1), dtype=bool))
    @example(np.ones((2, 9), dtype=bool))
    def test_closing_and_border_equal_windowed(self, road):
        dilated = _windows3x3(road).any(axis=(2, 3))
        closed = _windows3x3(dilated).all(axis=(2, 3))
        assert np.array_equal(refine_mask(RoadMask(road)).pixels, closed)
        border = road & ~_windows3x3(road).all(axis=(2, 3))
        assert np.array_equal(_boundary_pixels(road), border)


def block_mask(h, w, y0, y1, x0, x1):
    road = np.zeros((h, w), dtype=bool)
    road[y0:y1, x0:x1] = True
    return RoadMask(road)


class TestExtractBoundary:
    def test_block_perimeter_length(self):
        boundary = extract_boundary(block_mask(20, 20, 5, 15, 5, 15))
        assert len(boundary.chains) == 1
        assert len(boundary.chains[0]) == 36  # 4 * 10 - 4

    def test_full_image_border_rectangle(self):
        boundary = extract_boundary(RoadMask(np.ones((8, 10), dtype=bool)))
        assert len(boundary.chains) == 1
        chain = set(boundary.chains[0])
        expected = {(x, y) for y in range(8) for x in range(10)
                    if x in (0, 9) or y in (0, 7)}
        assert chain == expected

    def test_chain_is_8_connected_and_closed(self):
        boundary = extract_boundary(block_mask(20, 20, 4, 12, 3, 17))
        chain = boundary.chains[0]
        cycle = list(chain) + [chain[0]]
        for (x0, y0), (x1, y1) in zip(cycle, cycle[1:]):
            assert max(abs(x1 - x0), abs(y1 - y0)) == 1

    def test_chains_cover_the_boundary_within_one_step(self):
        rng = np.random.default_rng(3)
        road = np.zeros((30, 30), dtype=bool)
        for _ in range(4):
            x0, y0 = rng.integers(0, 22, size=2)
            road[y0:y0 + rng.integers(3, 9), x0:x0 + rng.integers(3, 9)] = True
        boundary = extract_boundary(RoadMask(road))
        traced = set()
        for chain in boundary.chains:
            traced.update((int(x), int(y)) for x, y in chain)
        padded = np.zeros((32, 32), dtype=bool)
        padded[1:-1, 1:-1] = road
        border = set()
        for y, x in zip(*np.nonzero(road)):
            if not padded[y:y + 3, x:x + 3].all():
                border.add((int(x), int(y)))
        # chains contain only border pixels, and one dilation step of the
        # chains reaches every border pixel (corners may be cut)
        assert traced <= border
        for x, y in border:
            near = {(x + dx, y + dy) for dx in (-1, 0, 1)
                    for dy in (-1, 0, 1)}
            assert near & traced

    def test_hole_produces_second_chain(self):
        road = np.zeros((12, 12), dtype=bool)
        road[1:11, 1:11] = True
        road[4:7, 4:7] = False
        boundary = extract_boundary(RoadMask(road))
        assert len(boundary.chains) == 2

    def test_single_pixel_region(self):
        boundary = extract_boundary(block_mask(5, 5, 2, 3, 2, 3))
        assert boundary.chains == (((2, 2),),)

    def test_empty_mask_raises(self):
        with pytest.raises(InputError, match="mask has no road pixels"):
            extract_boundary(RoadMask(np.zeros((4, 4), dtype=bool)))

