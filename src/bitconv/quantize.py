"""Binary and three-level (1.58-bit) quantizers, their straight-through
gradients, and the grayscale-image thresholding utilities.

The three-level quantizer is the sum of two independent sign quantizers:
each has its own rounding boundary (alpha) and output magnitude (beta), so
the summed output takes exactly the levels {-b1-b2, b1-b2, b1+b2}. That
decomposition is what lets the three-level operation run as two parallel
bit-packed convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import as_nchw


def _per_channel(v, channels: int, name: str) -> np.ndarray:
    a = np.broadcast_to(np.asarray(v, dtype=np.float64), (channels,)).copy()
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


@dataclass
class BinQuantParams:
    """Per-channel sign quantizer: threshold shift and output magnitude."""

    threshold: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        self.threshold = np.atleast_1d(np.asarray(self.threshold, dtype=np.float64))
        self.magnitude = np.atleast_1d(np.asarray(self.magnitude, dtype=np.float64))
        if self.threshold.shape != self.magnitude.shape:
            raise ValueError("threshold and magnitude must have one entry per channel")
        if np.any(self.magnitude < 0):
            raise ValueError("magnitude must be >= 0")

    @property
    def channels(self) -> int:
        return self.threshold.size


@dataclass
class DualQuantParams:
    """Two rounding boundaries and magnitudes for the three-level quantizer."""

    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.alpha1)).size
        self.alpha1 = _per_channel(self.alpha1, c, "alpha1")
        self.alpha2 = _per_channel(self.alpha2, c, "alpha2")
        self.beta1 = _per_channel(self.beta1, c, "beta1")
        self.beta2 = _per_channel(self.beta2, c, "beta2")
        if np.any(self.alpha1 > self.alpha2):
            raise ValueError("alpha1 must be <= alpha2 per channel")
        if np.any(self.beta1 < 0) or np.any(self.beta2 < 0):
            raise ValueError("beta1/beta2 must be >= 0")

    @property
    def channels(self) -> int:
        return self.alpha1.size

    def branch(self, i: int) -> BinQuantParams:
        """The i-th (0 or 1) constituent sign quantizer."""
        if i == 0:
            return BinQuantParams(self.alpha1, self.beta1)
        if i == 1:
            return BinQuantParams(self.alpha2, self.beta2)
        raise ValueError("branch index must be 0 or 1")


def binarize(x, p: BinQuantParams) -> np.ndarray:
    """+magnitude[c] where x >= threshold[c], else -magnitude[c] (ties to +)."""
    t = as_nchw(x)
    if t.shape[1] != p.channels:
        raise ValueError(f"channel mismatch: tensor has {t.shape[1]}, params {p.channels}")
    thr = p.threshold.reshape(1, -1, 1, 1)
    mag = p.magnitude.reshape(1, -1, 1, 1)
    return np.where(t >= thr, mag, -mag)


def ternarize(x, p: DualQuantParams) -> np.ndarray:
    """Three-level quantizer.

    x <  alpha1          -> -beta1 - beta2
    alpha1 <= x < alpha2 ->  beta1 - beta2
    x >= alpha2          ->  beta1 + beta2

    Monotone nondecreasing in x per channel, and identical to the sum of
    the two constituent sign quantizers.
    """
    t = as_nchw(x)
    if t.shape[1] != p.channels:
        raise ValueError(f"channel mismatch: tensor has {t.shape[1]}, params {p.channels}")
    a1 = p.alpha1.reshape(1, -1, 1, 1)
    a2 = p.alpha2.reshape(1, -1, 1, 1)
    lo = (-p.beta1 - p.beta2).reshape(1, -1, 1, 1)
    mid = (p.beta1 - p.beta2).reshape(1, -1, 1, 1)
    hi = (p.beta1 + p.beta2).reshape(1, -1, 1, 1)
    return np.where(t < a1, lo, np.where(t < a2, mid, hi))


def effective_bits(n: int) -> float:
    """Effective bit precision of n parallel sign quantizers: log2(n + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.log2(n + 1))


def ste_grad_sign(x, upstream, clip: float = 1.0) -> np.ndarray:
    """Straight-through gradient of a sign quantizer (hard-tanh surrogate).

    Passes upstream where |x| <= clip and zeroes it elsewhere.
    """
    if clip <= 0:
        raise ValueError("clip must be > 0")
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    return np.where(np.abs(x) <= clip, upstream, 0.0)


# ---------------------------------------------------------------------------
# Image thresholding (grayscale -> 2 and 3 levels)
# ---------------------------------------------------------------------------


def _class_stats(hist: np.ndarray):
    """Cumulative count and cumulative first moment of a 256-bin histogram."""
    h = np.asarray(hist, dtype=np.float64)
    if h.shape != (256,):
        raise ValueError(f"histogram must have 256 bins, got {h.shape}")
    if np.any(h < 0) or h.sum() <= 0:
        raise ValueError("histogram must be nonnegative with positive total")
    w = np.cumsum(h)
    m = np.cumsum(h * np.arange(256))
    return h, w, m


def otsu_threshold(histogram) -> int:
    """Threshold t maximizing between-class variance w0*w1*(mu0-mu1)^2.

    Class 0 holds bins [0, t), class 1 holds bins [t, 256); ties break
    toward the smallest t. Empty classes contribute zero variance.
    """
    h, w, m = _class_stats(histogram)
    total, total_m = w[-1], m[-1]
    # w0/m0 for each candidate t in 0..255: mass strictly below bin t
    w0 = np.concatenate(([0.0], w[:-1]))
    m0 = np.concatenate(([0.0], m[:-1]))
    w1 = total - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = np.where(w0 > 0, m0 / w0, 0.0)
        mu1 = np.where(w1 > 0, (total_m - m0) / w1, 0.0)
    var = np.where((w0 > 0) & (w1 > 0), w0 * w1 * (mu0 - mu1) ** 2, 0.0)
    return int(np.argmax(var))


def otsu_two_thresholds(histogram) -> tuple[int, int]:
    """Two thresholds (t1 <= t2) maximizing 3-class between-class variance.

    The 3-class generalization of otsu_threshold, used to pick boundaries
    for the three-level image rendering. Ties break toward the smallest
    (t1, t2) lexicographically.
    """
    h, w, m = _class_stats(histogram)
    total, total_m = w[-1], m[-1]
    mu_all = total_m / total
    w_lo = np.concatenate(([0.0], w))  # mass in bins [0, t)
    m_lo = np.concatenate(([0.0], m))
    best, best_t = -1.0, (0, 0)
    for t1 in range(256):
        w0, m0 = w_lo[t1], m_lo[t1]
        w1s = w_lo[t1:256] - w0
        m1s = m_lo[t1:256] - m0
        w2s = total - w_lo[t1:256]
        m2s = total_m - m_lo[t1:256]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(w1s > 0, m1s**2 / np.where(w1s > 0, w1s, 1.0), 0.0)
            v = v + np.where(w2s > 0, m2s**2 / np.where(w2s > 0, w2s, 1.0), 0.0)
        v = v + (m0**2 / w0 if w0 > 0 else 0.0) - total * mu_all**2
        k = int(np.argmax(v))
        if v[k] > best + 1e-12 * max(1.0, abs(best)):
            best, best_t = float(v[k]), (t1, t1 + k)
    return best_t


def binarize_image(gray, t: int) -> np.ndarray:
    """Two-level rendering: pixel >= t -> 255, else 0."""
    g = np.asarray(gray)
    return np.where(g >= t, 255, 0).astype(np.uint8)


def ternarize_image(gray, t1: int, t2: int) -> np.ndarray:
    """Three-level rendering {0, 128, 255} with boundaries t1 <= t2.

    pixel < t1 -> 0; t1 <= pixel < t2 -> 128; pixel >= t2 -> 255.
    """
    if t1 > t2:
        raise ValueError(f"t1 must be <= t2, got {t1} > {t2}")
    g = np.asarray(gray)
    if np.any(g < 0) or np.any(g > 255):
        raise ValueError("gray values must lie in [0, 255]")
    return np.where(g < t1, 0, np.where(g < t2, 128, 255)).astype(np.uint8)


def image_histogram(gray) -> np.ndarray:
    """256-bin histogram of an 8-bit grayscale image."""
    g = np.asarray(gray)
    return np.bincount(np.clip(g, 0, 255).astype(np.int64).ravel(), minlength=256)


# ---------------------------------------------------------------------------
# PGM (P5) read/write
# ---------------------------------------------------------------------------


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) file into a (H, W) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM (P5) file: magic {fields[0]!r}")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"PGM size must be positive, got {width}x{height}")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < width * height:
        raise ValueError(f"PGM pixel data too short for {width}x{height}")
    pix = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pix.reshape(height, width).copy()


def write_pgm(path, img) -> None:
    """Write a (H, W) uint8 array as a binary PGM (P5) file."""
    a = np.asarray(img, dtype=np.uint8)
    if a.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {a.shape}")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (a.shape[1], a.shape[0]))
        fh.write(a.tobytes())
