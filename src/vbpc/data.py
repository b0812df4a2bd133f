"""Datasets, coreset initialization, and the coreset file format.

Synthetic generators stand in for the image benchmarks at desk scale; the
IDX loader ingests MNIST-format files and keeps their u8 pixels. A split
holds its features as loaded, with the statistics `normalize` estimated
(exact ones from integer sums for pixels; those of `X.mean(0)` and
`X.std(0)`, bit for bit, for float rows), and standardizes rows as they
are read: a training run reads only its batches, so it never builds a
float64 copy of the split. Coresets
round-trip through a small versioned, checksummed little-endian binary
format (magic "VBPC") that carries the training statistics the images are
standardized by, so a coreset file needs no training data to be read.
"""

import math
import struct
import zlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _twocore, ndiff as nd
from .posterior import Hyperparams

MAGIC = b"VBPC"
FORMAT_VERSION = 2
STD_FLOOR = 1e-8
# Bytes of the row block in which `normalize` streams a split (float64
# rows, or the uint16 squares of pixels) and `Dataset.rows` makes float32
# rows; about a core's L2 cache (1 MiB ran fastest at d = 784 and d = 3072)
STAT_BLOCK_BYTES = 1 << 20
# Most rows of a block of pixel squares: a column's uint32 sum of squares,
# at most 255**2 a row, cannot wrap
_PIXEL_BLOCK_ROWS = (2**32 - 1) // 255**2
# Largest synthetic dataset: desk-scale shapes, a few tens of MB per split
SYNTHETIC_MAX_N = 1_000_000
_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049


class CoresetFileError(Exception):
    pass


@dataclass(frozen=True)
class Dataset:
    """Features as loaded (u8 pixels or float64 rows, n x d), integer class
    labels, and the normalization stats, if any: for pixels the mean and
    std of c / 255 from exact integer sums, for float rows those of
    `X.mean(0)` and `X.std(0)` (`normalize`). `rows` and `X` read the
    features standardized; `len()` is the row count."""

    raw: np.ndarray
    labels: np.ndarray
    k: int
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def __len__(self):
        return self.raw.shape[0]

    n = property(__len__)

    @property
    def d(self):
        return self.raw.shape[1]

    def _loaded(self, idx=slice(None), out=None):
        """The loaded features at the rows `idx` as float64, pixels scaled
        to [0, 1] and float rows copied, in `out` or else a fresh C-ordered
        block."""
        block = self.raw[idx]
        if out is None:
            out = np.empty(block.shape)
        if block.dtype == np.uint8:
            np.divide(block, 255.0, out=out)
        else:
            out[...] = block
        return out

    def rows(self, idx, dtype=np.float64):
        """The rows at `idx` (an index array or a slice), standardized by the
        split's statistics, in a fresh C-ordered block of `dtype`. Every
        reader of the features goes through here. Float32 rows are
        standardized in float64 blocks of about STAT_BLOCK_BYTES, each cast
        straight into its rows of the one float32 block by the rule a
        float32 net's inputs are cast by (`ndiff._checked_cast`), so they
        are `rows(idx)` cast, bit for bit, and no float64 block of them all
        is made."""
        if np.dtype(dtype) == np.float64:
            return self._standardize(self._loaded(idx))
        picked = np.arange(self.n)[idx]
        out = np.empty((picked.size, self.d), dtype)
        step = max(1, STAT_BLOCK_BYTES // (8 * self.d))
        buf = np.empty((min(step, picked.size), self.d))
        for lo in range(0, picked.size, step):
            part = picked[lo:lo + step]
            block = self._standardize(self._loaded(part, out=buf[:part.size]))
            nd._checked_cast(block, dtype, "feature rows", out=out[lo:lo + part.size])
        return out

    def _standardize(self, block):
        """(block - mean) / std in place, by the split's statistics, if it
        has any; returns `block`."""
        if self.mean is not None:
            block -= self.mean
            block /= self.std
        return block

    @cached_property
    def X(self):
        """The whole standardized n x d matrix, built on first read. Only
        perfbench reads it, beside the tests of `X` itself; the program and
        the other tests read `rows`."""
        return self.rows(slice(None))

    def onehot(self, idx):
        return np.eye(self.k)[self.labels[idx]]


@dataclass(frozen=True)
class PseudoCoreset:
    """Learnable images (nhat x d), real-valued labels (nhat x k), and the
    mean and std the images are standardized by (None: 0 and 1 on file)."""

    images: np.ndarray
    labels: np.ndarray
    ipc: int
    hyper: Hyperparams
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    @property
    def k(self):
        return self.labels.shape[1]

    def with_arrays(self, images, labels):
        return replace(self, images=images, labels=labels)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

def _balanced_counts(n, k):
    base, extra = divmod(n, k)
    return [base + (1 if c < extra else 0) for c in range(k)]


def gen_synthetic(kind, n, k, noise, seed):
    """blobs: k Gaussian clusters on a circle of radius 4; moons/circles:
    the standard 2-class shapes. Deterministic per seed."""
    if kind not in ("blobs", "moons", "circles"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if kind in ("moons", "circles") and k != 2:
        raise ValueError(f"{kind} is a 2-class shape, got k={k}")
    if not SYNTHETIC_MAX_N >= n >= k >= 2:
        raise ValueError(f"need {SYNTHETIC_MAX_N} >= n >= k >= 2, got n={n}, k={k}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
    rng = np.random.default_rng(seed)
    counts = _balanced_counts(n, k)

    if kind == "blobs":
        xs, ys = [], []
        for c, m in enumerate(counts):
            angle = 2.0 * np.pi * c / k
            center = 4.0 * np.array([np.cos(angle), np.sin(angle)])
            xs.append(center + noise * rng.standard_normal((m, 2)))
            ys.append(np.full(m, c))
        X = np.concatenate(xs)
        labels = np.concatenate(ys).astype(np.int64)
    elif kind == "moons":
        n0, n1 = counts
        t0 = np.linspace(0.0, np.pi, n0)
        t1 = np.linspace(0.0, np.pi, n1)
        outer = np.column_stack([np.cos(t0), np.sin(t0)])
        inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        X = np.concatenate([outer, inner]) + noise * rng.standard_normal((n, 2))
        labels = np.concatenate([np.zeros(n0), np.ones(n1)]).astype(np.int64)
    else:
        n0, n1 = counts
        t0 = np.linspace(0.0, 2.0 * np.pi, n0, endpoint=False)
        t1 = np.linspace(0.0, 2.0 * np.pi, n1, endpoint=False)
        outer = np.column_stack([np.cos(t0), np.sin(t0)])
        inner = 0.5 * np.column_stack([np.cos(t1), np.sin(t1)])
        X = np.concatenate([outer, inner]) + noise * rng.standard_normal((n, 2))
        labels = np.concatenate([np.zeros(n0), np.ones(n1)]).astype(np.int64)
    return Dataset(raw=X, labels=labels, k=k)


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------

def _read_idx(path, magic, ndim, what):
    """Sizes and u8 payload of an IDX file with `ndim` sizes. The file is read
    whole, so its header is checked against its length and never sizes a read."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = 4 + 4 * ndim
    if len(blob) < head:
        raise CoresetFileError(f"{path}: truncated IDX {what} header: expected "
                               f"{head} bytes, got {len(blob)}")
    found, *sizes = struct.unpack(f">{1 + ndim}i", blob[:head])
    if found != magic:
        raise CoresetFileError(f"{path}: bad {what} magic 0x{found:08x}, "
                               f"expected 0x{magic:08x}")
    if min(sizes) < 1:
        raise CoresetFileError(f"{path}: bad IDX {what} sizes {sizes}: a size is "
                               f"{'zero' if 0 in sizes else 'negative'}")
    count = math.prod(sizes)
    if len(blob) - head < count:
        raise CoresetFileError(f"{path}: bad IDX {what} sizes {sizes}: expected "
                               f"{count} bytes, got {len(blob) - head}")
    return sizes, np.frombuffer(blob, dtype=np.uint8, count=count, offset=head)


def load_idx(images_path, labels_path):
    """Parse big-endian IDX images and labels. The split keeps the file's u8
    pixels, read-only and n x d; its rows read them scaled to [0, 1]."""
    (n, rows, cols), pixels = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3, "images")
    (n_labels,), labels = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1, "labels")
    if n_labels != n:
        raise CoresetFileError(
            f"{labels_path}: count mismatch: {n} images vs {n_labels} labels")
    return Dataset(raw=pixels.reshape(n, rows * cols),
                   labels=labels.astype(np.int64), k=int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize(dataset):
    """Per-feature standardization: the split with the mean and std of its
    loaded features attached, for its rows and for reuse on test data. No
    n x d float64 buffer is made.

    Pixels get exact statistics. One pass sums each column's pixels c and
    squares c**2 as integers (`_pixel_sums`), over two row halves, the
    later on the worker of `_twocore._halves`; the mean and std are then
    computed from the exact sums (`_pixel_statistics`), so they are the
    same bytes on one core or two and for any block size. Float rows get
    the statistics of `X.mean(0)` and `X.std(0)` bit for bit, from two
    passes that stream the rows through one block of about
    STAT_BLOCK_BYTES (`_column_sums`)."""
    if dataset.n < 2:
        raise ValueError("need at least 2 rows to estimate statistics")
    n, d = dataset.n, dataset.d
    if dataset.raw.dtype == np.uint8:
        mean, std = _pixel_statistics(*_pixel_sums(dataset.raw), n)
    else:
        # numpy sums one column pairwise rather than row after row, so a
        # one-column split is summed in one block, as the whole is
        rows = n if d == 1 else min(n, max(1, STAT_BLOCK_BYTES // (8 * d)))
        buf = np.empty((rows + 1, d))
        with np.errstate(over="ignore", invalid="ignore"):
            mean = _column_sums(dataset, buf) / n
            std = np.maximum(np.sqrt(_column_sums(dataset, buf, mean) / n), STD_FLOOR)
    # A non-finite feature makes its mean non-finite; a finite std bounds
    # every |x - mean|, so the standardized features are finite.
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ValueError("features too large to standardize: non-finite "
                         "mean or std")
    return replace(dataset, mean=mean, std=std)


def _pixel_sums(pixels):
    """The exact column sums S of the u8 `pixels` (n x d) and Q of their
    squares, uint64. The rows are cut in two at `_twocore._cut(n)` and each
    half streamed through its own uint16 block of about STAT_BLOCK_BYTES
    and at most _PIXEL_BLOCK_ROWS rows, all made here; a block's sums are
    taken in uint32, which it cannot overflow, and added to the half's."""
    n, d = pixels.shape
    mid = _twocore._cut(n)
    spans = [(0, mid), (mid, n)] if mid else [(0, n)]
    rows = min(_PIXEL_BLOCK_ROWS, max(1, STAT_BLOCK_BYTES // (2 * d)))
    blocks = [np.empty((min(rows, hi - lo), d), np.uint16) for lo, hi in spans]
    sums = np.zeros((len(spans), 2, d), np.uint64)

    def accumulate(half):
        (lo, hi), block, (total, squares) = spans[half], blocks[half], sums[half]
        for start in range(lo, hi, len(block)):
            part = block[:min(len(block), hi - start)]
            part[...] = pixels[start:start + len(part)]
            total += part.sum(0, dtype=np.uint32)
            np.multiply(part, part, out=part)
            squares += part.sum(0, dtype=np.uint32)

    if mid:
        _twocore._halves(lambda: accumulate(0), lambda: accumulate(1))
    else:
        accumulate(0)
    return sums.sum(0)


def _pixel_statistics(total, squares, n):
    """The mean and std of the pixels c / 255 of n rows, from their exact
    column sums S = `total` of c and Q = `squares` of c**2 (uint64). The
    mean S / (255 n) is one correctly rounded division: S <= 255 n is an
    exact float64. The variance (nQ - S**2) / (255 n)**2 is formed in
    Python integers, so it has no cancellation error, and rounded once;
    its square root is the std, floored at STD_FLOOR."""
    scale = 255 * n
    mean = total / float(scale)
    var = [(n * q - s * s) / scale**2 for s, q in zip(total.tolist(), squares.tolist())]
    return mean, np.maximum(np.sqrt(var), STD_FLOOR)


def _column_sums(dataset, buf, mean=None):
    """The column sums of the loaded features, or with `mean` of their
    squared deviations from it, loaded into the rows of `buf` but the first
    a block at a time. From the second block on, the first row carries the
    running sum, so each axis-0 reduction adds the rows in the order the
    reduction of the whole n x d matrix adds them: row after row."""
    rows = buf.shape[0] - 1
    total = None
    for lo in range(0, dataset.n, rows):
        hi = min(lo + rows, dataset.n)
        block = dataset._loaded(slice(lo, hi), out=buf[1:1 + hi - lo])
        if mean is not None:
            np.subtract(block, mean, out=block)
            np.square(block, out=block)
        if total is None:
            total = np.add.reduce(block, 0)
        else:
            buf[0] = total
            total = np.add.reduce(buf[:1 + hi - lo], 0)
    return total


def normalize_with(dataset, mean, std):
    """Attach previously estimated (train) statistics, e.g. to a test split."""
    if np.shape(mean) != (dataset.d,) or np.shape(std) != (dataset.d,):
        raise ValueError(f"split has {dataset.d} features, the training "
                         f"statistics {np.size(mean)}")
    return replace(dataset, mean=mean, std=std)


# ---------------------------------------------------------------------------
# coreset initialization
# ---------------------------------------------------------------------------

def scaled_onehot_labels(classes, k):
    """Rows (e_c - 1/k) / sqrt(k/10): mean-centered, class-count scaled."""
    eye = np.eye(k)
    return (eye[classes] - 1.0 / k) / np.sqrt(k / 10.0)


def _check_class_sizes(dataset, ipc):
    """Every class has the `ipc` examples a sampled initialization draws."""
    for c in range(dataset.k):
        count = np.count_nonzero(dataset.labels == c)
        if count < ipc:
            raise ValueError(f"class {c} has {count} examples, need {ipc}")


def init_coreset(dataset, ipc, mode, seed, hyper=None):
    """ipc rows per class: class-stratified samples of the dataset, or
    uniform [0,1] pixels passed through the dataset's normalization."""
    if mode not in ("sample", "uniform"):
        raise ValueError(f"unknown init mode {mode!r}")
    rng = np.random.default_rng(seed)
    k = dataset.k
    classes = np.repeat(np.arange(k), ipc)
    if mode == "sample":
        _check_class_sizes(dataset, ipc)
        rows = [rng.choice(np.flatnonzero(dataset.labels == c), size=ipc, replace=False)
                for c in range(k)]
        images = dataset.rows(np.concatenate(rows))
    else:
        images = dataset._standardize(rng.uniform(0.0, 1.0, (ipc * k, dataset.d)))
    labels = scaled_onehot_labels(classes, k)
    if hyper is None:
        hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=float(ipc * k),
                            beta_d=1e-8)
    return PseudoCoreset(images=images, labels=labels, ipc=ipc, hyper=hyper,
                         mean=dataset.mean, std=dataset.std)


# ---------------------------------------------------------------------------
# coreset file format: magic | version u32 | nhat,d,k,ipc u32 |
# rho,gamma,beta_s,beta_d f64 | X then Y row-major f64 | mean then std f64 |
# crc32 u32, everything little-endian
# ---------------------------------------------------------------------------

def save_coreset(coreset, path):
    nhat, d = coreset.images.shape
    k = coreset.labels.shape[1]
    h = coreset.hyper
    body = bytearray()
    body += MAGIC
    body += struct.pack("<IIIII", FORMAT_VERSION, nhat, d, k, coreset.ipc)
    body += struct.pack("<dddd", h.rho, h.gamma, h.beta_s, h.beta_d)
    mean = np.zeros(d) if coreset.mean is None else coreset.mean
    std = np.ones(d) if coreset.std is None else coreset.std
    for values in (coreset.images, coreset.labels, mean, std):
        body += np.ascontiguousarray(values, dtype="<f8").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    with open(path, "wb") as fh:
        fh.write(bytes(body))


def load_coreset(path):
    """Read a coreset file, with its statistics; a malformed one, or one of
    another format version, raises CoresetFileError naming it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 + 20 + 32 + 4 or blob[:4] != MAGIC:
        raise CoresetFileError(
            f"{path}: not a VBPC coreset file (bad magic or truncated)")
    (crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != crc:
        raise CoresetFileError(f"{path}: checksum mismatch: file is corrupted")
    version, nhat, d, k, ipc = struct.unpack("<IIIII", blob[4:24])
    if version != FORMAT_VERSION:
        raise CoresetFileError(f"{path}: unsupported format version {version}, "
                               f"reader supports {FORMAT_VERSION}")
    rho, gamma, beta_s, beta_d = struct.unpack("<dddd", blob[24:56])
    count = nhat * (d + k) + 2 * d
    need = 56 + 8 * count + 4
    if min(nhat, d, k) < 1 or len(blob) != need:
        raise CoresetFileError(f"{path}: bad sizes nhat={nhat}, d={d}, k={k} for "
                               f"{len(blob)} bytes (they need {need})")
    payload = np.frombuffer(blob, dtype="<f8", count=count, offset=56)
    images, labels, stats = np.split(payload, [nhat * d, nhat * (d + k)])
    if not (np.isfinite(images).all() and np.isfinite(labels).all()):
        raise CoresetFileError(f"{path}: non-finite value in images or labels")
    mean, std = stats.reshape(2, d)
    if not (np.isfinite(stats).all() and (std >= STD_FLOOR).all()):
        raise CoresetFileError(f"{path}: bad statistics: mean and std must be "
                               f"finite and std >= {STD_FLOOR}")
    try:
        hyper = Hyperparams(rho=rho, gamma=gamma, beta_s=beta_s, beta_d=beta_d)
    except ValueError as err:
        raise CoresetFileError(f"{path}: bad hyperparameters: {err}") from err
    return PseudoCoreset(images=images.reshape(nhat, d).copy(),
                         labels=labels.reshape(nhat, k).copy(), ipc=ipc,
                         hyper=hyper, mean=mean.copy(), std=std.copy())
