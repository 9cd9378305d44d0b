import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadscene.errors import InputError, SchemaError
from roadscene.geometry import PixelPoint
from roadscene.imaging import (
    BackgroundAccumulator,
    DistortionParams,
    ImageBuffer,
    accumulate_background,
    distort_point,
    histogram_match,
    read_pnm,
    to_gray,
    undistort_xy,
    write_pnm,
)


def gray(arr):
    return ImageBuffer(np.asarray(arr, dtype=np.uint8))


class TestImageBuffer:
    def test_shape_properties(self):
        img = gray(np.zeros((4, 6)))
        assert (img.width, img.height, img.channels) == (6, 4, 1)
        rgb = ImageBuffer(np.zeros((4, 6, 3), dtype=np.uint8))
        assert rgb.channels == 3

    def test_immutable(self):
        img = gray(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="at least one pixel"):
            ImageBuffer(np.zeros((0, 5), dtype=np.uint8))

    def test_range_checked(self):
        with pytest.raises(InputError, match=r"lie in \[0, 255\]"):
            ImageBuffer(np.array([[300.0]]))


class TestToGray:
    def test_one_channel_passthrough(self):
        img = gray([[1, 2], [3, 4]])
        assert to_gray(img) is img

    def test_symmetric_gray(self):
        rgb = ImageBuffer(np.full((1, 1, 3), 100, dtype=np.uint8))
        assert to_gray(rgb).pixels[0, 0] == 100

    def test_pure_red(self):
        rgb = np.zeros((1, 1, 3), dtype=np.uint8)
        rgb[0, 0, 0] = 255
        assert to_gray(ImageBuffer(rgb)).pixels[0, 0] == 76


class TestBackground:
    def test_first_frame_initializes(self):
        acc = BackgroundAccumulator(alpha=0.01)
        accumulate_background(acc, gray([[10, 20], [30, 40]]))
        assert np.array_equal(acc.b, [[10, 20], [30, 40]])

    def test_constant_video_fixed_point(self):
        acc = BackgroundAccumulator(alpha=0.01)
        frame = gray(np.full((3, 3), 77))
        for _ in range(10):
            accumulate_background(acc, frame)
        assert np.max(np.abs(acc.b - 77.0)) < 1e-12

    def test_single_blend_step(self):
        acc = BackgroundAccumulator(alpha=0.01)
        accumulate_background(acc, gray(np.zeros((2, 2))))
        accumulate_background(acc, gray(np.full((2, 2), 100)))
        assert np.max(np.abs(acc.b - 1.0)) < 1e-12

    def test_closed_form_decay(self):
        alpha = 0.01
        rng = np.random.default_rng(11)
        first = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        acc = BackgroundAccumulator(alpha=alpha)
        accumulate_background(acc, gray(first))
        const = gray(np.full((5, 7), 200))
        n = 50
        for _ in range(n):
            accumulate_background(acc, const)
        expected = (1 - alpha) ** n * np.abs(first.astype(float) - 200.0)
        actual = np.abs(acc.b - 200.0)
        assert np.max(np.abs(actual - expected) / np.maximum(expected, 1e-30)) < 1e-9

    def test_folds_in_place_bit_for_bit(self):
        """Twenty 640 x 480 frames fold to what float64 copies of them give
        under `b *= 1 - alpha; b += alpha * frame`, and folding frames 2-20
        never holds one float64 frame of new memory (that formula holds
        two a frame)."""
        rng = np.random.default_rng(13)
        frames = [gray(rng.integers(0, 256, size=(480, 640)))
                  for _ in range(20)]
        acc = BackgroundAccumulator(alpha=0.01)
        accumulate_background(acc, frames[0])
        tracemalloc.start()
        try:
            for frame in frames[1:]:
                accumulate_background(acc, frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 480 * 640 * 8
        want = frames[0].pixels.astype(np.float64)
        for frame in frames[1:]:
            want *= (1.0 - 0.01)
            want += 0.01 * frame.pixels.astype(np.float64)
        assert np.array_equal(acc.b, want)

    def test_shape_mismatch(self):
        acc = BackgroundAccumulator()
        accumulate_background(acc, gray(np.zeros((2, 2))))
        with pytest.raises(InputError, match=r"\(3, 3\) does not match "
                                             r"accumulator shape \(2, 2\)"):
            accumulate_background(acc, gray(np.zeros((3, 3))))


class TestHistogramMatch:
    def test_self_match_identity_on_occupied(self):
        rng = np.random.default_rng(21)
        img = gray(rng.integers(0, 256, size=(32, 32)))
        out, mapping = histogram_match(img, img)
        occupied = np.unique(img.pixels)
        assert np.array_equal(mapping[occupied], occupied)
        assert np.array_equal(
            np.bincount(out.pixels.ravel(), minlength=256),
            np.bincount(img.pixels.ravel(), minlength=256))

    def test_constant_source(self):
        source = gray(np.full((8, 8), 42))
        rng = np.random.default_rng(22)
        ref = gray(rng.integers(0, 200, size=(8, 8)))
        out, _ = histogram_match(source, ref)
        # source CDF hits 1.0 at level 42, so everything lands on the
        # reference's top occupied level
        assert np.all(out.pixels == ref.pixels.max())

    def test_uniform_stretch(self):
        src_vals = (np.arange(128 * 128) % 128).reshape(128, 128)
        ref_vals = (np.arange(128 * 128) // 64).reshape(128, 128)
        _, mapping = histogram_match(gray(src_vals), gray(ref_vals))
        v = np.arange(128)
        assert np.all(np.abs(mapping[v].astype(int) - 2 * v) <= 1)

    def test_rejects_color(self):
        rgb = ImageBuffer(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(InputError, match="expects 1-channel"):
            histogram_match(rgb, rgb)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mapping_monotone(self, seed):
        rng = np.random.default_rng(seed)
        a = gray(rng.integers(0, 256, size=(16, 16)))
        b = gray(rng.integers(0, 256, size=(16, 16)))
        _, mapping = histogram_match(a, b)
        assert np.all(np.diff(mapping.astype(int)) >= 0)


class TestDistortion:
    def params(self, k):
        return DistortionParams.centered(k, image_size=(320, 240))

    def test_zero_coefficients_identity(self):
        p = PixelPoint.perspective(12.5, 200.0)
        q = distort_point(p, self.params((0.0, 0.0)))
        assert (q.x, q.y) == (p.x, p.y)

    def test_center_fixed(self):
        params = self.params((-0.3, 0.1))
        c = PixelPoint.perspective(*params.center)
        q = distort_point(c, params)
        assert (q.x, q.y) == (c.x, c.y)

    def test_half_radius_example(self):
        # 320x240 gives half-diagonal 200, so +100 px is normalized r = 0.5
        params = self.params((-0.2, 0.0))
        xs, ys = params.center
        q = distort_point(PixelPoint.perspective(xs + 100, ys), params)
        assert q.x == pytest.approx(xs + 95.0, abs=1e-12)
        assert q.y == pytest.approx(ys, abs=1e-12)

    def test_undistort_inverts(self):
        # the default 5 rounds are an approximation (good to ~1e-2 px at
        # the far corners for |k1| = 0.2); more rounds converge fully
        params = self.params((-0.2, 0.05))
        rng = np.random.default_rng(31)
        xy = rng.uniform(0, (320, 240), size=(100, 2))
        distorted = np.array([
            [q.x, q.y] for q in (distort_point(PixelPoint.perspective(x, y),
                                               params) for x, y in xy)])
        worst5 = np.max(np.abs(undistort_xy(distorted, params) - xy))
        worst20 = np.max(np.abs(undistort_xy(distorted, params, rounds=20)
                                - xy))
        assert worst5 < 5e-2
        assert worst20 < 1e-9

    def test_center_must_be_inside(self):
        with pytest.raises(ValueError):
            DistortionParams(k=(0, 0), center=(400, 100), image_size=(320, 240))


class TestPnm:
    def test_minimal_p5(self):
        img = gray([[0]])
        data = write_pnm(img)
        assert data == b"P5\n1 1\n255\n" + b"\x00"

    def test_round_trip_p6(self):
        rng = np.random.default_rng(51)
        img = ImageBuffer(rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
        data = write_pnm(img)
        again = write_pnm(read_pnm(data))
        assert data == again

    def test_round_trip_file(self, tmp_path):
        rng = np.random.default_rng(52)
        img = gray(rng.integers(0, 256, size=(9, 13)))
        path = tmp_path / "img.pgm"
        write_pnm(img, path)
        assert read_pnm(path) == img

    def test_write_holds_one_copy_of_the_image(self, tmp_path):
        img = ImageBuffer(np.zeros((600, 800, 3), dtype=np.uint8))
        tracemalloc.start()
        try:
            data = write_pnm(img, tmp_path / "img.ppm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data == (tmp_path / "img.ppm").read_bytes()
        assert peak < 1.5 * img.pixels.nbytes, peak

    def test_comments_in_header(self):
        data = b"P5 # comment\n# another\n2 1\n255\n\x01\x02"
        img = read_pnm(data)
        assert np.array_equal(img.pixels, [[1, 2]])

    def test_wide_maxval_rejected(self):
        with pytest.raises(SchemaError,
                           match="^only maxval 255 is supported, got 65535$"):
            read_pnm(b"P5\n1 1\n65535\n\x00\x00")

    def test_bad_magic(self):
        with pytest.raises(SchemaError, match="^unsupported magic b'P2'$"):
            read_pnm(b"P2\n1 1\n255\n0")

    def test_truncated(self):
        with pytest.raises(SchemaError,
                           match="^raster holds 2 bytes, header promises 4$"):
            read_pnm(b"P5\n2 2\n255\n\x00\x00")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, w, h, color, seed):
        rng = np.random.default_rng(seed)
        shape = (h, w, 3) if color else (h, w)
        img = ImageBuffer(rng.integers(0, 256, size=shape).astype(np.uint8))
        assert read_pnm(write_pnm(img)) == img
