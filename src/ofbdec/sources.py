"""Test signal sources: a Gauss-Markov process and PGM image lines."""

import math

import numpy as np

__all__ = ["gen_ar1", "load_pgm_lines"]


def gen_ar1(n, rho, clip, rng):
    """First-order Gauss-Markov source with unit marginal variance.

    x_0 ~ N(0, 1) and x_k = rho x_{k-1} + sqrt(1 - rho^2) w_k with i.i.d.
    standard normal w; samples are clipped to [-clip, clip], which is
    also the admissible range the decoder assumes.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if clip <= 0.0:
        raise ValueError("clip must be positive")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    w = rng.normal(size=int(n))
    drive = math.sqrt(1.0 - rho * rho) * w
    drive[0] = w[0]
    x = []
    acc = 0.0
    rho = float(rho)
    for d in drive.tolist():
        acc = d + rho * acc
        x.append(acc)
    return np.clip(np.array(x), -clip, clip)


def _pgm_token(buf, pos, path):
    while pos < len(buf):
        ch = buf[pos]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == ord("#"):
            nl = buf.find(b"\n", pos)
            pos = len(buf) if nl < 0 else nl + 1
        else:
            break
    if pos >= len(buf):
        raise ValueError(f"{path}: truncated header at byte {pos}")
    start = pos
    while pos < len(buf) and buf[pos] not in b" \t\r\n":
        pos += 1
    return buf[start:pos], start, pos


def _pgm_int(buf, pos, path, what):
    tok, start, pos = _pgm_token(buf, pos, path)
    try:
        value = int(tok)
    except ValueError:
        raise ValueError(
            f"{path}: expected {what} at byte {start}, got {tok!r}"
        ) from None
    return value, pos


def load_pgm_lines(path, rows, count):
    """Read selected rows of an 8-bit PGM image as a real-valued signal.

    Supports both binary (P5) and ASCII (P2) variants with maxval up to
    255.  The requested rows (0-based) are concatenated in the given
    order and the first `count` samples returned as floats in [0, 255].
    Malformed files raise ValueError naming the offending byte offset.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, start, pos = _pgm_token(buf, 0, path)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r} at byte {start})")
    width, pos = _pgm_int(buf, pos, path, "width")
    height, pos = _pgm_int(buf, pos, path, "height")
    maxval, pos = _pgm_int(buf, pos, path, "maxval")
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: invalid dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: not an 8-bit image (maxval {maxval} before byte {pos})")

    if magic == b"P5":
        pos += 1  # exactly one whitespace byte separates header and raster
        need = width * height
        if len(buf) - pos < need:
            raise ValueError(f"{path}: raster truncated at byte {len(buf)}")
        raster = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
        k = int(np.argmax(raster > maxval))  # the first pixel above maxval, if any
        if raster[k] > maxval:
            raise ValueError(f"{path}: pixel {raster[k]} out of range at byte {pos + k}")
        image = raster.reshape(height, width).astype(float)
    else:
        values = np.empty(width * height)
        for k in range(width * height):
            v, pos = _pgm_int(buf, pos, path, "pixel")
            if not 0 <= v <= maxval:
                raise ValueError(f"{path}: pixel {v} out of range before byte {pos}")
            values[k] = v
        image = values.reshape(height, width)

    samples = []
    for r in rows:
        r = int(r)
        if not 0 <= r < height:
            raise ValueError(f"{path}: row {r} outside image of height {height}")
        samples.append(image[r])
    samples = np.concatenate(samples) if samples else np.empty(0)
    count = int(count)
    if count > samples.size:
        raise ValueError(
            f"{path}: requested {count} samples but rows supply only {samples.size}"
        )
    return samples[:count].copy()
