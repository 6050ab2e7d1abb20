"""Inputs the benchmark generates: an 8-bit test image and a 12x8 bank.

The paper's image rows (Lena) are not in the repository, so the image
workload decodes rows of a synthetic 8-bit image instead: smooth
shading, flat regions with sharp edges, and fine texture, normalised to
a fixed mean and contrast so that every seed gives the same statistics.

The wide bank extends the bundled 6x4 bank to N = 8 at the same 3/2
ratio: the eight rows of the 8-point Walsh-Hadamard transform in
sequency order, plus four two-block zero-sum differences of the first
four patterns, each normalised to unit energy.

Regenerate both files with

    python3 bench/inputs.py --seed 0 --out .bench_out
"""

import argparse
import os

import numpy as np

IMAGE_ROWS = 64
IMAGE_COLS = 256
WIDE_BANK_FILE = "walsh_12x8.txt"
# entropy of the image the quality metrics are computed on; run images
# use (RUN_IMAGE_KEY, seed), so the two never coincide
EVAL_IMAGE_KEY = 0xE7A1
RUN_IMAGE_KEY = 0x5EED


def walsh_rows(n):
    """The +-1 rows of the n-point Walsh-Hadamard transform, ordered by
    their number of sign changes (sequency)."""
    h = np.array([[1]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    if h.shape[0] != n:
        raise ValueError("n must be a power of two")
    changes = np.count_nonzero(np.diff(h, axis=1), axis=1)
    return h[np.argsort(changes, kind="stable")]


def wide_bank_text():
    """Bank file text of the 12x8, order-1 Walsh bank."""
    w = walsh_rows(8)
    rows = [r / np.sqrt(8.0) for r in w]
    rows += [np.concatenate([w[k], -w[k]]) / 4.0 for k in range(4)]
    lines = [
        "# Walsh-type analysis bank: 12 subbands, downsampling by 8, order 1.",
        "# Rows 0-7: 8-point Walsh-Hadamard transform in sequency order.",
        "# Rows 8-11: two-block zero-sum differences of the first four",
        "# patterns (16 taps, unit energy); generated by bench/inputs.py.",
        "12 8 1",
    ]
    lines += [" ".join(repr(float(v)) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def _row_smooth(a, width):
    kernel = np.ones(width) / width
    return np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, a)


def make_image(entropy, rows=IMAGE_ROWS, cols=IMAGE_COLS):
    """A (rows, cols) uint8 image drawn from np.random.default_rng(entropy)."""
    rng = np.random.default_rng(entropy)
    yy, xx = np.mgrid[0:rows, 0:cols] / float(cols)
    img = np.zeros((rows, cols))
    for _ in range(6):
        fx, fy = rng.uniform(0.3, 4.0, size=2)
        img += rng.uniform(0.3, 1.0) * np.cos(
            2.0 * np.pi * (fx * xx + fy * yy) + rng.uniform(0.0, 2.0 * np.pi)
        )
    for _ in range(10):
        r0, c0 = rng.integers(0, rows), rng.integers(0, cols)
        h, w = rng.integers(4, rows // 2), rng.integers(8, cols // 3)
        img[r0:r0 + h, c0:c0 + w] += rng.normal(0.0, 0.8)
    img += 0.25 * _row_smooth(rng.normal(size=(rows, cols)), 3)
    img = (img - img.mean()) / img.std() * 48.0 + 128.0
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def write_pgm(path, image):
    """Write a uint8 array as a binary (P5) PGM file."""
    h, w = image.shape
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image, dtype=np.uint8).tobytes())
    os.replace(tmp, path)


def image_entropy(seed):
    """Entropy of a run's image; seed None names the evaluation image."""
    return EVAL_IMAGE_KEY if seed is None else (RUN_IMAGE_KEY, seed)


def image_path(out_dir, seed):
    name = "image_eval.pgm" if seed is None else f"image_{seed}.pgm"
    return os.path.join(out_dir, name)


def write_inputs(out_dir, seed):
    """Write the evaluation image, the image of `seed` and the wide bank."""
    os.makedirs(out_dir, exist_ok=True)
    for key in (None, seed):
        write_pgm(image_path(out_dir, key), make_image(image_entropy(key)))
    bank = os.path.join(out_dir, WIDE_BANK_FILE)
    with open(bank, "w", encoding="utf-8") as fh:
        fh.write(wide_bank_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=".bench_out")
    args = ap.parse_args()
    write_inputs(args.out, args.seed)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
