"""Image containers and the pre-calibration enhancement chain.

Covers running-average background extraction, histogram matching against a
reference exposure, the polynomial radial distortion model and bit-exact
binary PGM/PPM I/O.  Images are 8-bit, 1 or 3 channels, row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyImage,
    MalformedHeader,
    ShapeMismatch,
    TruncatedData,
)
from .geometry import PixelPoint

_WHITESPACE = b" \t\r\n\x0b\x0c"


class ImageBuffer:
    """An immutable 8-bit image, grayscale (h, w) or RGB (h, w, 3)."""

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.ndim == 3 and arr.shape[2] == 1:
            arr = arr[:, :, 0]
        if arr.ndim not in (2, 3) or (arr.ndim == 3 and arr.shape[2] != 3):
            raise ShapeMismatch(
                f"expected (h, w) or (h, w, 3) pixels, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptyImage("image must contain at least one pixel")
        if arr.dtype != np.uint8:
            if np.any(arr < 0) or np.any(arr > 255):
                raise ShapeMismatch("intensities must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._pixels = arr

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    @property
    def channels(self) -> int:
        return 1 if self._pixels.ndim == 2 else 3

    def __eq__(self, other):
        return (isinstance(other, ImageBuffer)
                and np.array_equal(self._pixels, other._pixels))

    def __repr__(self):
        return (f"ImageBuffer({self.width}x{self.height}, "
                f"channels={self.channels})")


def to_gray(img: ImageBuffer) -> ImageBuffer:
    """Luminance conversion; 1-channel input is returned unchanged.

    Uses round(0.299 R + 0.587 G + 0.114 B) with half-up rounding.
    """
    if img.channels == 1:
        return img
    rgb = img.pixels.astype(np.float64)
    lum = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    return ImageBuffer(np.floor(lum + 0.5).astype(np.uint8))


# --- background extraction --------------------------------------------------

class BackgroundAccumulator:
    """Running weighted average of a frame stream.

    The first frame becomes the estimate as-is; every later frame is blended
    in with weight alpha.  The estimate stays real-valued; quantization to
    8 bits happens only in `background()`.  Single-writer: one accumulator
    per stream.
    """

    def __init__(self, alpha: float = 0.01):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.b: np.ndarray | None = None

    def background(self) -> ImageBuffer:
        if self.b is None:
            raise EmptyImage("no frames accumulated yet")
        return ImageBuffer(np.floor(self.b + 0.5).astype(np.uint8))


def accumulate_background(acc: BackgroundAccumulator,
                          frame: ImageBuffer) -> BackgroundAccumulator:
    """Fold one frame into the running background estimate."""
    pix = frame.pixels.astype(np.float64)
    if acc.b is None:
        acc.b = pix.copy()
    else:
        if acc.b.shape != pix.shape:
            raise ShapeMismatch(
                f"frame shape {pix.shape} does not match accumulator "
                f"shape {acc.b.shape}")
        acc.b *= (1.0 - acc.alpha)
        acc.b += acc.alpha * pix
    return acc


# --- histogram matching -----------------------------------------------------

def histogram_match(source: ImageBuffer,
                    reference: ImageBuffer) -> tuple[ImageBuffer, np.ndarray]:
    """Remap source intensities so their distribution follows the reference.

    Classical cumulative-histogram matching: each source level maps to the
    smallest reference level whose CDF is at least the source CDF at that
    level.  The comparison is done in exact integer arithmetic (cross-scaled
    counts) so ties behave identically on every platform.  Returns the
    remapped image and the 256-entry monotone lookup table.
    """
    if source.channels != 1 or reference.channels != 1:
        raise ShapeMismatch("histogram matching expects 1-channel images")
    src = source.pixels
    ref = reference.pixels
    src_cdf = np.cumsum(np.bincount(src.ravel(), minlength=256).astype(np.int64))
    ref_cdf = np.cumsum(np.bincount(ref.ravel(), minlength=256).astype(np.int64))
    # smallest r with ref_cdf[r] / ref_n >= src_cdf[v] / src_n, integerized
    mapping = np.searchsorted(ref_cdf * int(src_cdf[-1]),
                              src_cdf * int(ref_cdf[-1]),
                              side="left")
    mapping = np.minimum(mapping, 255).astype(np.uint8)
    return ImageBuffer(mapping[src]), mapping


# --- radial distortion ------------------------------------------------------

@dataclass(frozen=True)
class DistortionParams:
    """Polynomial radial distortion about a center point.

    Coefficients act on the radius normalized by half the image diagonal,
    so they are image-scale free; image_size = (width, height) supplies
    that normalization.
    """

    k: tuple[float, float]
    center: tuple[float, float]
    image_size: tuple[int, int]

    def __post_init__(self):
        k1, k2 = self.k
        if not (math.isfinite(k1) and math.isfinite(k2)):
            raise ValueError("distortion coefficients must be finite")
        w, h = self.image_size
        if w < 1 or h < 1:
            raise EmptyImage("image size must be at least 1x1")
        xs, ys = self.center
        if not (0 <= xs <= w and 0 <= ys <= h):
            raise ValueError(
                f"distortion center {self.center} outside image {w}x{h}")

    @staticmethod
    def centered(k: tuple[float, float],
                 image_size: tuple[int, int]) -> "DistortionParams":
        w, h = image_size
        return DistortionParams(k=k, center=(w / 2.0, h / 2.0),
                                image_size=image_size)

    @property
    def half_diagonal(self) -> float:
        w, h = self.image_size
        return math.hypot(w, h) / 2.0


def _radial_factor(params: DistortionParams, r2: float) -> float:
    k1, k2 = params.k
    return 1.0 + k1 * r2 + k2 * r2 * r2


def distort_point(p: PixelPoint, params: DistortionParams) -> PixelPoint:
    """Push a point outward/inward along its radius from the center.

    The displacement factor is 1 + k1 r^2 + k2 r^4 with r the distance from
    the center divided by half the image diagonal.
    """
    xs, ys = params.center
    scale = params.half_diagonal
    xn = (p.x - xs) / scale
    yn = (p.y - ys) / scale
    f = _radial_factor(params, xn * xn + yn * yn)
    return PixelPoint(xs + xn * f * scale, ys + yn * f * scale, p.frame)


def undistort_xy(xy: np.ndarray, params: DistortionParams,
                 rounds: int = 5) -> np.ndarray:
    """Approximate inverse of `distort_point` over an (n, 2) array.

    Iterates r_u <- r_d / (1 + k1 r_u^2 + k2 r_u^4) starting from r_u = r_d
    for a fixed number of rounds; five is plenty for |k| <= 0.5 over the
    unit-normalized image.
    """
    xs, ys = params.center
    scale = params.half_diagonal
    k1, k2 = params.k
    norm = (np.asarray(xy, dtype=np.float64) - (xs, ys)) / scale
    rd = np.hypot(norm[:, 0], norm[:, 1])
    ru = rd.copy()
    for _ in range(rounds):
        r2 = ru * ru
        ru = rd / (1.0 + k1 * r2 + k2 * r2 * r2)
    ratio = np.ones_like(rd)
    nz = rd > 0
    ratio[nz] = ru[nz] / rd[nz]
    return (xs, ys) + norm * ratio[:, None] * scale


# --- PNM I/O ----------------------------------------------------------------

def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        ch = data[pos]
        if ch in _WHITESPACE:
            pos += 1
        elif ch == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    if start == pos:
        raise MalformedHeader("unexpected end of header")
    return data[start:pos], pos


def read_pnm(source) -> ImageBuffer:
    """Read a binary PGM (P5) or PPM (P6) from a path or a bytes object.

    Only maxval 255 is supported.  Bytes past the promised raster length
    are ignored.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        raise TypeError(f"expected a path or bytes, got {type(source)!r}")

    magic, pos = _next_token(data, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise MalformedHeader(f"unsupported magic {magic!r}")

    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise MalformedHeader(f"non-numeric header field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedHeader(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise MalformedHeader(f"only maxval 255 is supported, got {maxval}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise MalformedHeader("missing whitespace after maxval")
    pos += 1

    expected = width * height * channels
    raster = data[pos:pos + expected]
    if len(raster) < expected:
        raise TruncatedData(
            f"raster holds {len(raster)} bytes, header promises {expected}")
    arr = np.frombuffer(raster, dtype=np.uint8)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return ImageBuffer(arr.reshape(shape))


def write_pnm(img: ImageBuffer, dest=None) -> bytes:
    """Serialize to canonical binary PGM/PPM bytes; optionally write a file.

    The header is exactly "P5\\n{w} {h}\\n255\\n" (P6 for color), so writing
    the result of `read_pnm` reproduces canonical input byte for byte.  The
    bytes are joined from the header and the pixels' own buffer, so the
    call holds one copy of the image.
    """
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    payload = b"".join((header, img.pixels.data))
    if dest is not None:
        Path(dest).write_bytes(payload)
    return payload
