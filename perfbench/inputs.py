"""Benchmark inputs made from the workload seed.

The image workloads get class-structured u8 images written as IDX files
(the MNIST container the program reads with ``load_idx``). Each class has a
smooth prototype: a sum of a few random Gaussian bumps per channel. A
sample blends its class prototype with the prototype of a random other
class and adds pixel noise, so classes overlap and a small coreset does not
reach 100% accuracy.
"""

import os
import struct

import numpy as np

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049


def _prototypes(rng, k, rows, cols, channels, bumps=4):
    yy, xx = np.mgrid[0:rows, 0:cols]
    protos = np.zeros((k, channels, rows, cols))
    for c in range(k):
        for ch in range(channels):
            for _ in range(bumps):
                cy, cx = rng.uniform(0, rows), rng.uniform(0, cols)
                width = rng.uniform(0.1, 0.3) * rows
                protos[c, ch] += rng.uniform(0.5, 1.0) * np.exp(
                    -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
    protos /= protos.max(axis=(1, 2, 3), keepdims=True)
    return protos.reshape(k, -1)


def _samples(rng, protos, n):
    k, d = protos.shape
    labels = np.arange(n) % k
    rng.shuffle(labels)
    other = rng.integers(0, k, n)
    share = rng.uniform(0.45, 0.8, (n, 1))
    x = share * protos[labels] + (1.0 - share) * protos[other]
    x += 0.25 * rng.standard_normal((n, d))
    pixels = np.round(255.0 * np.clip(x, 0.0, 1.0)).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def _write_idx(images_path, labels_path, pixels, labels, rows, cols):
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, pixels.shape[0], rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def write_image_split(directory, seed, k, rows, cols, channels, n_train, n_test):
    """Write train and test IDX files; returns the `idx:` data spec.

    Channels are stored side by side, so an image is `rows` x
    (`cols` * `channels`) in the IDX header and d = rows * cols * channels.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, rows * cols * channels]))
    protos = _prototypes(rng, k, rows, cols, channels)
    paths = []
    for split, n in (("train", n_train), ("test", n_test)):
        pixels, labels = _samples(rng, protos, n)
        images_path = os.path.join(directory, f"{split}-images.idx")
        labels_path = os.path.join(directory, f"{split}-labels.idx")
        _write_idx(images_path, labels_path, pixels, labels, rows, cols * channels)
        paths.append((images_path, labels_path))
    (tr_x, tr_y), (te_x, te_y) = paths
    return f"idx:{tr_x},{tr_y};test={te_x},{te_y}"
