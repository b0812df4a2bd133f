"""Synthetic generators, IDX parsing, normalization, coreset init, file format."""

import math
import struct
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vbpc.data import (STD_FLOOR, CoresetFileError, Dataset, gen_synthetic,
                       load_idx, normalize, normalize_with, init_coreset,
                       scaled_onehot_labels, save_coreset, load_coreset,
                       PseudoCoreset)
from vbpc import _twocore, data, ndiff as nd
from vbpc.posterior import Hyperparams


# ---------------------------------------------------------------------------
# synthetic
# ---------------------------------------------------------------------------

def test_blobs_zero_noise_sits_on_centers():
    ds = gen_synthetic("blobs", n=12, k=3, noise=0.0, seed=0)
    for c in range(3):
        angle = 2 * np.pi * c / 3
        center = 4.0 * np.array([np.cos(angle), np.sin(angle)])
        assert np.abs(ds.rows(ds.labels == c) - center).max() <= 1e-12


def test_class_counts_balanced_within_one():
    for kind, k in (("blobs", 3), ("moons", 2), ("circles", 2)):
        ds = gen_synthetic(kind, n=101, k=k, noise=0.1, seed=1)
        counts = np.bincount(ds.labels, minlength=k)
        assert counts.max() - counts.min() <= 1


def test_synthetic_deterministic_per_seed():
    a = gen_synthetic("moons", n=50, k=2, noise=0.2, seed=9)
    b = gen_synthetic("moons", n=50, k=2, noise=0.2, seed=9)
    np.testing.assert_array_equal(a.rows(slice(None)), b.rows(slice(None)))
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synthetic_invalid_combinations():
    with pytest.raises(ValueError):
        gen_synthetic("moons", n=10, k=3, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic("spirals", n=10, k=2, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic("blobs", n=2, k=3, noise=0.1, seed=0)


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------

def idx_bytes(magic, dims, payload):
    head = struct.pack(">i", magic) + b"".join(struct.pack(">i", d) for d in dims)
    return head + payload


def write_idx_pair(tmp_path, pixels, labels):
    n = len(labels)
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(idx_bytes(2051, (n, 2, 2), bytes(pixels)))
    lab.write_bytes(idx_bytes(2049, (n,), bytes(labels)))
    return img, lab


def test_idx_round_values(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0, 51, 204, 255] * 2, [0, 1])
    ds = load_idx(img, lab)
    x = ds.rows(slice(None))
    assert x.shape == (2, 4)
    np.testing.assert_allclose(x[0], [0.0, 51 / 255, 204 / 255, 1.0])
    assert ds.k == 2


def test_idx_magic_validation(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(idx_bytes(2049, (1, 2, 2), bytes(4)))  # labels magic in images slot
    lab.write_bytes(idx_bytes(2049, (1,), bytes(1)))
    with pytest.raises(CoresetFileError, match="magic"):
        load_idx(img, lab)


def test_idx_truncation_names_counts(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(idx_bytes(2051, (2, 2, 2), bytes(5)))  # need 8 payload bytes
    lab.write_bytes(idx_bytes(2049, (2,), bytes(2)))
    with pytest.raises(CoresetFileError) as raised:
        load_idx(img, lab)
    assert str(raised.value).endswith("bad IDX images sizes [2, 2, 2]: "
                                      "expected 8 bytes, got 5")


@pytest.mark.parametrize("dims, word", [((0, 8, 8), "zero"), ((2, 0, 2), "zero"),
                                        ((2, -2, -2), "negative")])
def test_idx_size_below_one_is_named(tmp_path, dims, word):
    # refused for the size itself, never as "expected 0 bytes, got 0"
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(idx_bytes(2051, dims, bytes(8)))
    lab.write_bytes(idx_bytes(2049, (2,), bytes(2)))
    with pytest.raises(CoresetFileError) as raised:
        load_idx(img, lab)
    assert str(raised.value).endswith(
        f"bad IDX images sizes {list(dims)}: a size is {word}")


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(idx_bytes(2051, (2, 2, 2), bytes(8)))
    lab.write_bytes(idx_bytes(2049, (3,), bytes(3)))
    with pytest.raises(CoresetFileError, match="mismatch"):
        load_idx(img, lab)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_statistics():
    rng = np.random.default_rng(2)
    ds = gen_synthetic("blobs", n=500, k=4, noise=0.7, seed=3)
    out = normalize(ds)
    x = out.rows(slice(None))
    assert np.abs(x.mean(axis=0)).max() <= 1e-10
    assert np.abs(x.std(axis=0) - 1.0).max() <= 1e-6


def test_normalize_constant_feature_floored():
    ds = gen_synthetic("blobs", n=20, k=2, noise=0.0, seed=0)
    # blobs at zero noise give constant columns per class; build a fully
    # constant column by stacking one class only
    from vbpc.data import Dataset
    flat = Dataset(raw=np.ones((10, 3)), labels=np.zeros(10, dtype=np.int64), k=2)
    out = normalize(flat)
    np.testing.assert_array_equal(out.rows(slice(None)), 0.0)


def wide_features():
    """Columns over twelve orders of magnitude, offsets, one constant column."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((300, 1024)) * np.logspace(-6, 6, 1024)
    X += rng.standard_normal(1024) * 1e3
    X[:, 100] = 3.25
    return Dataset(raw=X, labels=np.zeros(300, dtype=np.int64), k=2)


def test_normalize_is_bit_equal_to_the_textbook_expression():
    ds = wide_features()
    X = ds.rows(slice(None))
    std = np.maximum(X.std(0), STD_FLOOR)
    out = normalize(ds)
    np.testing.assert_array_equal(out.mean, X.mean(0))
    np.testing.assert_array_equal(out.std, std)
    standardized = out.rows(slice(None))
    np.testing.assert_array_equal(standardized, (X - X.mean(0)) / std)
    np.testing.assert_array_equal(standardized[:, 100], 0.0)
    again = normalize_with(ds, out.mean, out.std)
    np.testing.assert_array_equal(again.rows(slice(None)), standardized)


def test_normalize_allocates_one_feature_buffer():
    ds = wide_features()
    tracemalloc.start()
    try:
        normalize(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, a few d-vectors of statistics, and the ufunc machinery's
    # own buffer; a second n x d buffer would double the peak
    assert peak <= ds.X.nbytes + (8 * ds.d + np.getbufsize()) * ds.X.itemsize


def test_normalize_leaves_no_feature_buffer_alive():
    ds = wide_features()
    tracemalloc.start()
    try:
        out = normalize(ds)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the statistics outlive the call; the n x d buffer they took does not
    assert current <= (8 * ds.d + np.getbufsize()) * ds.raw.itemsize
    assert "X" not in out.__dict__


def _one_buffer_statistics(ds):
    X = ds._loaded()
    return X.mean(0), np.maximum(X.std(0), STD_FLOOR)


def _exact_pixel_statistics(pixels):
    """The mean and std of the pixels c / 255, each the correctly rounded
    value of its exact rational (the std the square root of the correctly
    rounded variance, floored), from Python integer sums."""
    n = pixels.shape[0]
    columns = pixels.T.astype(int).tolist()
    sums = [(sum(c), sum(v * v for v in c)) for c in columns]
    mean = [float(Fraction(s, 255 * n)) for s, _ in sums]
    var = [float(Fraction(n * q - s * s, (255 * n) ** 2)) for s, q in sums]
    return np.array(mean), np.maximum(np.sqrt(var), STD_FLOOR)


def _reference_statistics(ds):
    """Exact statistics for pixels, the whole matrix's mean(0) and std(0)
    for float rows."""
    if ds.raw.dtype == np.uint8:
        return _exact_pixel_statistics(ds.raw)
    return _one_buffer_statistics(ds)


@pytest.mark.parametrize("kind", ["pixels", "floats"])
@pytest.mark.parametrize("n", [2, 4, 5, 11, 40])
def test_streamed_statistics_are_the_one_buffer_statistics(monkeypatch, kind, n):
    # pixels in blocks of four rows: one block or several, with a ragged
    # last block unless n is a multiple of four; the bits are those of the
    # exact statistics for pixels, of the whole matrix's mean(0) and std(0)
    # for float rows, whatever the block size
    d = 6
    monkeypatch.setattr(data, "STAT_BLOCK_BYTES", 4 * 8 * d)
    rng = np.random.default_rng(n)
    if kind == "pixels":
        raw = rng.integers(0, 256, (n, d), dtype=np.uint8)
    else:
        raw = rng.standard_normal((n, d)) * np.logspace(-6, 6, d) + rng.standard_normal(d) * 1e3
    ds = Dataset(raw=raw, labels=np.zeros(n, dtype=np.int64), k=2)
    mean, std = _reference_statistics(ds)
    out = normalize(ds)
    assert out.mean.tobytes() == mean.tobytes() and out.std.tobytes() == std.tobytes()


def test_one_column_statistics_are_the_one_buffer_statistics(monkeypatch):
    # numpy sums a single column pairwise, not row after row: such a split
    # has the whole column's statistics whatever the block size
    monkeypatch.setattr(data, "STAT_BLOCK_BYTES", 4 * 8)
    raw = np.random.default_rng(3).standard_normal((1000, 1)) * 1e3 + 0.1
    ds = Dataset(raw=raw, labels=np.zeros(1000, dtype=np.int64), k=2)
    mean, std = _one_buffer_statistics(ds)
    out = normalize(ds)
    assert out.mean.tobytes() == mean.tobytes() and out.std.tobytes() == std.tobytes()


@pytest.mark.parametrize("worker", [None, False], ids=["two-cores", "one-core"])
@pytest.mark.parametrize("kind", ["pixels", "floats"])
@pytest.mark.parametrize("d, cut", [(3072, True), (784, True), (2, False)])
def test_normalize_in_column_halves_keeps_every_bit(monkeypatch, halves_calls,
                                                    worker, kind, d, cut):
    # `cut` marks the widths whose columns were once summed in two halves.
    # Now no float split is cut: it takes the whole matrix's mean(0) and
    # std(0) on the calling thread. A pixel split of any width is summed
    # in two row halves, on two cores or one after the other on one, to
    # the exact statistics.
    if worker is False:
        monkeypatch.setattr(_twocore, "_worker", False)
    n = 300
    rng = np.random.default_rng(d)
    if kind == "pixels":
        raw = rng.integers(0, 256, (n, d), dtype=np.uint8)
    else:
        raw = rng.standard_normal((n, d)) * np.logspace(-6, 6, d) + rng.standard_normal(d) * 1e3
    ds = Dataset(raw=raw, labels=np.zeros(n, dtype=np.int64), k=2)
    mean, std = _reference_statistics(ds)
    out = normalize(ds)
    assert len(halves_calls) == int(kind == "pixels")
    assert out.mean.tobytes() == mean.tobytes()
    assert out.std.tobytes() == std.tobytes()


def _layouts():
    """Float rows with wide columns as a Fortran-ordered float64 array, a
    strided view (every other row of a Fortran-ordered array), and float32."""
    rng = np.random.default_rng(12)
    X = rng.standard_normal((1000, 7)) * np.logspace(-4, 4, 7) + rng.standard_normal(7) * 1e3
    return {"fortran": np.asfortranarray(X),
            "strided": np.asfortranarray(np.concatenate([X, X[::-1]]))[::2],
            "float32": X.astype(np.float32)}


@pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
def test_float_statistics_are_those_of_the_c_ordered_float64_copy(layout):
    # numpy sums a column in another order when the rows are not C-ordered
    # float64: the statistics are those of the copy `rows` standardizes
    raw = _layouts()[layout]
    assert not raw.flags.c_contiguous or raw.dtype != np.float64
    X = np.ascontiguousarray(raw, dtype=np.float64)
    mean, std = X.mean(0), np.maximum(X.std(0), STD_FLOOR)
    out = normalize(Dataset(raw=raw, labels=np.zeros(len(raw), dtype=np.int64), k=2))
    assert out.mean.tobytes() == mean.tobytes() and out.std.tobytes() == std.tobytes()
    assert out.rows(slice(None)).tobytes() == ((X - mean) / std).tobytes()


def test_widest_synthetic_statistics_take_one_feature_buffer():
    # the widest float split the program reads: numpy's own statistics,
    # with at most one n x 2 buffer (the deviations) beside the rows, the
    # ufunc machinery's buffers and a few d-vectors
    ds = gen_synthetic("moons", n=data.SYNTHETIC_MAX_N, k=2, noise=0.1, seed=0)
    X = ds.raw
    tracemalloc.start()
    try:
        out = normalize(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.mean.tobytes() == X.mean(0).tobytes()
    assert out.std.tobytes() == np.maximum(X.std(0), STD_FLOOR).tobytes()
    assert peak <= X.nbytes + (8 * ds.d + 2 * np.getbufsize()) * X.itemsize


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_float_rows_too_large_to_standardize_raise(value):
    # an inf or a nan makes the mean non-finite; rows of +-1e200 have a
    # finite mean whose squared deviations overflow. No warning escapes.
    raw = np.array([[1.0, value], [2.0, -value], [3.0, value], [4.0, 0.5]])
    ds = Dataset(raw=raw, labels=np.zeros(4, dtype=np.int64), k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="features too large to standardize: "
                                             "non-finite mean or std"):
            normalize(ds)


def _mp_std(n, s, q):
    """The std of n pixels c / 255 whose c sum to s and c**2 to q, to 50
    digits, rounded to float64."""
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.mpf(n * q - s * s)) / (255 * n))


def _pixel_cases():
    rng = np.random.default_rng(11)
    flat = rng.integers(0, 256, (37, 5), dtype=np.uint8)
    flat[:, 1] = 93                     # a constant column
    flat[:, 3] = 255                    # an all-255 column
    rare = (rng.random((300, 9)) < 0.01) * rng.integers(1, 256, (300, 9))
    return {"random": rng.integers(0, 256, (300, 17), dtype=np.uint8),
            "rare": rare.astype(np.uint8),
            "constant": flat,
            "two-rows": rng.integers(0, 256, (2, 8), dtype=np.uint8)}


@pytest.mark.parametrize("case", ["random", "rare", "constant", "two-rows"])
@pytest.mark.parametrize("block", ["whole", "one-row", "three-rows"])
def test_pixel_statistics_are_exact(monkeypatch, case, block):
    # the mean is S / (255 n) correctly rounded, the std within 2 ulp of a
    # 50-digit reference, in one block, in one-row blocks, and in blocks of
    # three rows with a ragged last block (300 rows are cut into halves of
    # 152 and 148, 37 into 16 and 21)
    pixels = _pixel_cases()[case]
    n, d = pixels.shape
    if block != "whole":
        block_bytes = 1 if block == "one-row" else 3 * 2 * d
        monkeypatch.setattr(data, "STAT_BLOCK_BYTES", block_bytes)
    out = normalize(Dataset(raw=pixels, labels=np.zeros(n, dtype=np.int64), k=2))
    for j, column in enumerate(pixels.T.astype(int).tolist()):
        s, q = sum(column), sum(c * c for c in column)
        assert out.mean[j] == float(Fraction(s, 255 * n))
        ref = max(_mp_std(n, s, q), STD_FLOOR)
        assert abs(out.std[j] - ref) <= 2 * np.spacing(ref)
    if case == "constant":
        assert out.std[1] == out.std[3] == STD_FLOOR and out.mean[3] == 1.0
        rows = out.rows(slice(None))
        assert (rows[:, 1] == 0.0).all() and (rows[:, 3] == 0.0).all()


def test_pixel_square_sums_do_not_wrap(monkeypatch):
    # 70,000 rows of 255 square-sum past 2**32 in one column; uncut, they
    # are summed in blocks of at most _PIXEL_BLOCK_ROWS rows, whose uint32
    # sums cannot wrap
    n = 70_000
    assert n * 255**2 >= 2**32 > data._PIXEL_BLOCK_ROWS * 255**2
    monkeypatch.setattr(_twocore, "_cut", lambda *args: 0)
    ds = Dataset(raw=np.full((n, 1), 255, np.uint8), labels=np.zeros(n, np.int64), k=2)
    total, squares = data._pixel_sums(ds.raw)
    assert total.tolist() == [255 * n] and squares.tolist() == [255**2 * n]
    out = normalize(ds)
    assert out.mean.tolist() == [1.0] and out.std.tolist() == [STD_FLOOR]


def test_pixel_statistics_are_the_same_bytes_on_one_core_or_two(monkeypatch):
    # integer sums are exact: the row halves on two cores or on one, and
    # any block size, give the same bytes. Two cores means the running
    # worker: `_worker = None` would start a second one for the rest of
    # the session.
    raw = np.random.default_rng(5).integers(0, 256, (1000, 784), dtype=np.uint8)
    ds = Dataset(raw=raw, labels=np.zeros(1000, dtype=np.int64), k=2)
    base = normalize(ds)
    for worker in (_twocore._start_worker(), False):
        monkeypatch.setattr(_twocore, "_worker", worker)
        for block_bytes in (1, 7 * 2 * 784, 1 << 20):
            monkeypatch.setattr(data, "STAT_BLOCK_BYTES", block_bytes)
            out = normalize(ds)
            assert out.mean.tobytes() == base.mean.tobytes()
            assert out.std.tobytes() == base.std.tobytes()


def test_pixel_statistics_make_no_float64_block():
    # the peak is the halves' two uint16 blocks of about STAT_BLOCK_BYTES,
    # the ufunc machinery's buffers and a few d-vectors: far under one
    # n x d float64 block, or a uint16 copy of the split
    n, d = 6000, 784
    raw = np.random.default_rng(6).integers(0, 256, (n, d), dtype=np.uint8)
    ds = Dataset(raw=raw, labels=np.zeros(n, dtype=np.int64), k=2)
    tracemalloc.start()
    try:
        normalize(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * data.STAT_BLOCK_BYTES + (8 * d + 2 * np.getbufsize()) * 8
    assert peak < 2 * n * d


def test_pixel_variance_numerator_is_exact_beyond_int64():
    # sums with no data behind them: n rows of which k are 255 and the rest
    # 0, in three columns (half, one row in n, all but one row), and one
    # column of n // 3 rows of 255 and one row of 1. nQ passes 2**64 in
    # all but the second; in the third, nQ - S**2 is about 1 / n of nQ, so
    # a float difference of the two would cancel about 26 bits
    n = 2**26 + 1
    ks = [(n // 2, 0), (1, 0), (n - 1, 0), (n // 3, 1)]
    total = np.array([255 * k + one for k, one in ks], np.uint64)
    squares = np.array([255**2 * k + one for k, one in ks], np.uint64)
    assert n * int(squares.min()) < 2**63 < 2**64 < n * int(squares.max())
    mean, std = data._pixel_statistics(total, squares, n)
    for j, (s, q) in enumerate(zip(total.tolist(), squares.tolist())):
        assert mean[j] == float(Fraction(s, 255 * n))
        ref = _mp_std(n, s, q)
        assert abs(std[j] - ref) <= 2 * np.spacing(ref)


def test_normalize_with_names_both_widths():
    train = normalize(gen_synthetic("moons", n=100, k=2, noise=0.1, seed=4))
    with pytest.raises(ValueError,
                       match="split has 1024 features, the training statistics 2"):
        normalize_with(wide_features(), train.mean, train.std)


def test_test_split_uses_train_stats():
    train = normalize(gen_synthetic("moons", n=100, k=2, noise=0.1, seed=4))
    test = gen_synthetic("moons", n=60, k=2, noise=0.1, seed=5)
    out = normalize_with(test, train.mean, train.std)
    np.testing.assert_array_equal(out.mean, train.mean)
    expect = (test.rows(slice(None)) - train.mean) / train.std
    np.testing.assert_array_equal(out.rows(slice(None)), expect)


def pixel_split(tmp_path, n=30):
    """An IDX split of n random 2 x 2 images in three classes, and its pixels."""
    pixels = np.random.default_rng(n).integers(0, 256, (n, 4), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, pixels.tobytes(), [c % 3 for c in range(n)])
    return load_idx(img, lab), pixels


@pytest.mark.parametrize("kind", ["pixels", "floats"])
def test_rows_are_the_matrix_rows_bit_for_bit(tmp_path, kind):
    loaded = pixel_split(tmp_path)[0] if kind == "pixels" else wide_features()
    for ds in (loaded, normalize(loaded)):
        for idx in (np.array([5, 0, 5, 17]), slice(3, 25, 4)):
            block = ds.rows(idx)
            assert block.dtype == np.float64 and block.flags.c_contiguous
            assert not np.shares_memory(block, ds.raw)
            assert not np.shares_memory(block, ds.X)
            assert block.tobytes() == ds.X[idx].tobytes()


@pytest.mark.parametrize("kind", ["pixels", "floats"])
def test_float32_rows_are_the_float64_rows_cast(tmp_path, monkeypatch, kind):
    # standardized in float64 blocks of three rows, each cast into the one
    # float32 block: bit for bit the float64 rows cast, over block edges
    loaded = pixel_split(tmp_path)[0] if kind == "pixels" else wide_features()
    monkeypatch.setattr(data, "STAT_BLOCK_BYTES", 3 * 8 * loaded.d)
    for ds in (loaded, normalize(loaded)):
        for idx in (np.array([5, 0, 5, 17]), slice(3, 25, 4), slice(None)):
            block = ds.rows(idx, np.float32)
            assert block.dtype == np.float32 and block.flags.c_contiguous
            assert block.tobytes() == ds.rows(idx).astype(np.float32).tobytes()


def test_float32_rows_beyond_its_range_raise():
    ds = Dataset(raw=np.array([[1.0, 2.0], [1e39, 0.0]]), labels=np.zeros(2, np.int64), k=2)
    assert ds.rows(slice(0, 1), np.float32).tolist() == [[1.0, 2.0]]
    with pytest.raises(nd.NonFiniteError, match="feature rows beyond float32's range"):
        ds.rows(slice(None), np.float32)


def test_idx_rows_are_the_eager_expression(tmp_path):
    loaded, pixels = pixel_split(tmp_path)
    assert loaded.raw.dtype == np.uint8 and not loaded.raw.flags.writeable
    ds = normalize(loaded)
    mean, std = _exact_pixel_statistics(pixels)
    assert ds.mean.tobytes() == mean.tobytes() and ds.std.tobytes() == std.tobytes()
    expect = (pixels / 255.0 - ds.mean) / ds.std
    assert ds.rows(slice(None)).tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# coreset initialization
# ---------------------------------------------------------------------------

def test_label_rows_k10():
    rows = scaled_onehot_labels(np.array([0]), k=10)
    expect = np.full(10, -0.1)
    expect[0] = 0.9
    np.testing.assert_allclose(rows[0], expect, rtol=1e-15)


def test_label_rows_k2_scale():
    rows = scaled_onehot_labels(np.array([0, 1]), k=2)
    root5 = math.sqrt(5.0)
    np.testing.assert_allclose(rows[0], [root5 * 0.5, -root5 * 0.5], rtol=1e-13)
    np.testing.assert_allclose(rows.sum(axis=1), 0.0, atol=1e-12)


def test_label_row_norm_invariant():
    for k in (2, 3, 10):
        rows = scaled_onehot_labels(np.arange(k), k=k)
        expect = (1.0 / math.sqrt(k / 10.0)) * math.sqrt(1.0 - 1.0 / k)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), expect,
                                   rtol=1e-12)


def test_init_sample_is_class_stratified():
    ds = normalize(gen_synthetic("blobs", n=90, k=3, noise=0.5, seed=6))
    coreset = init_coreset(ds, ipc=4, mode="sample", seed=7)
    assert coreset.images.shape == (12, 2)
    classes = coreset.labels.argmax(axis=1)
    np.testing.assert_array_equal(np.bincount(classes), [4, 4, 4])
    # sampled rows exist in the dataset
    for row in coreset.images:
        assert (np.abs(ds.rows(slice(None)) - row).max(axis=1) < 1e-12).any()


def test_init_sample_insufficient_class_raises():
    ds = gen_synthetic("blobs", n=6, k=3, noise=0.1, seed=8)
    with pytest.raises(ValueError, match="class"):
        init_coreset(ds, ipc=3, mode="sample", seed=9)


def test_init_uniform_passes_through_normalization():
    ds = normalize(gen_synthetic("moons", n=100, k=2, noise=0.1, seed=10))
    coreset = init_coreset(ds, ipc=5, mode="uniform", seed=11)
    raw = np.random.default_rng(11).uniform(0.0, 1.0, (10, 2))
    np.testing.assert_allclose(coreset.images, (raw - ds.mean) / ds.std,
                               rtol=1e-12)
    # standardized in place as Dataset.rows does it, with the same bits
    assert coreset.images.tobytes() == ((raw - ds.mean) / ds.std).tobytes()


def test_init_deterministic():
    ds = normalize(gen_synthetic("blobs", n=60, k=2, noise=0.4, seed=12))
    a = init_coreset(ds, ipc=3, mode="sample", seed=13)
    b = init_coreset(ds, ipc=3, mode="sample", seed=13)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def roundtrip_coreset():
    rng = np.random.default_rng(14)
    hyper = Hyperparams(rho=1.5, gamma=80.0, beta_s=6.0, beta_d=1e-7)
    return PseudoCoreset(images=rng.standard_normal((6, 4)),
                         labels=rng.standard_normal((6, 3)),
                         ipc=2, hyper=hyper, mean=rng.standard_normal(4),
                         std=rng.uniform(0.1, 3.0, 4))


def test_coreset_roundtrip_bit_exact(tmp_path):
    coreset = roundtrip_coreset()
    path = tmp_path / "c.vbpc"
    save_coreset(coreset, path)
    back = load_coreset(path)
    for field in ("images", "labels", "mean", "std"):
        assert getattr(back, field).tobytes() == getattr(coreset, field).tobytes()
    assert back.ipc == coreset.ipc
    for field in ("rho", "gamma", "beta_s", "beta_d"):
        assert getattr(back.hyper, field) == getattr(coreset.hyper, field)


def test_coreset_without_statistics_reads_back_the_identity(tmp_path):
    coreset = replace(roundtrip_coreset(), mean=None, std=None)
    path = tmp_path / "c.vbpc"
    save_coreset(coreset, path)
    back = load_coreset(path)
    assert back.mean.tobytes() == np.zeros(4).tobytes()
    assert back.std.tobytes() == np.ones(4).tobytes()
    assert path.stat().st_size == 56 + 8 * (6 * (4 + 3) + 2 * 4) + 4


def test_init_coreset_carries_the_split_statistics():
    ds = normalize(gen_synthetic("blobs", n=60, k=2, noise=0.4, seed=12))
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=13)
    assert coreset.mean is ds.mean and coreset.std is ds.std
    kept = coreset.with_arrays(coreset.images + 1.0, coreset.labels)
    assert kept.mean is ds.mean and kept.std is ds.std


def test_coreset_checksum_detects_flip(tmp_path):
    path = tmp_path / "c.vbpc"
    save_coreset(roundtrip_coreset(), path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CoresetFileError, match="checksum"):
        load_coreset(path)


def test_coreset_version_gate(tmp_path):
    # a version-1 file, which holds no statistics, is refused by name
    path = tmp_path / "c.vbpc"
    save_coreset(roundtrip_coreset(), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    path.write_bytes(rechecksum(bytes(blob)))
    with pytest.raises(CoresetFileError, match="version 1, reader supports 2"):
        load_coreset(path)


def test_coreset_truncation_rejected(tmp_path):
    path = tmp_path / "c.vbpc"
    save_coreset(roundtrip_coreset(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CoresetFileError):
        load_coreset(path)


def test_coreset_bad_magic(tmp_path):
    path = tmp_path / "c.vbpc"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(CoresetFileError, match="magic"):
        load_coreset(path)


def rechecksum(blob):
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


@pytest.mark.parametrize("offset,value,match", [
    (56, math.nan, "non-finite"),             # first image entry
    (56 + 8 * 24, math.inf, "non-finite"),    # first label entry
    (24, -1.0, "hyperparameters"),            # rho
    (32, math.inf, "hyperparameters"),        # gamma
    (48, math.nan, "hyperparameters"),        # beta_d
    (392, math.nan, "statistics"),            # first mean entry
    (424, math.inf, "statistics"),            # first std entry
    (448, 0.0, "statistics"),                 # last std entry
])
def test_coreset_bad_values_rejected_naming_the_file(tmp_path, offset, value, match):
    path = tmp_path / "c.vbpc"
    save_coreset(roundtrip_coreset(), path)
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(rechecksum(bytes(blob)))
    with pytest.raises(CoresetFileError, match=match) as err:
        load_coreset(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# parsers under fuzzing: a bad file raises CoresetFileError and nothing else
# ---------------------------------------------------------------------------

_FUZZ = settings(max_examples=200, deadline=None, database=None)
_i32 = st.integers(-3, 6) | st.integers(-2**31, 2**31 - 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def coreset_blob(fuzz_dir):
    save_coreset(roundtrip_coreset(), fuzz_dir / "valid.vbpc")
    return (fuzz_dir / "valid.vbpc").read_bytes()


def loads_or_file_error(load, *paths):
    """True if `load` accepts the files, False if it raises CoresetFileError."""
    try:
        load(*paths)
    except CoresetFileError:
        return False
    return True


@_FUZZ
@given(data=st.data())
def test_load_coreset_truncations(fuzz_dir, coreset_blob, data):
    cut = data.draw(st.integers(0, len(coreset_blob) - 1))
    (fuzz_dir / "f.vbpc").write_bytes(coreset_blob[:cut])
    assert not loads_or_file_error(load_coreset, fuzz_dir / "f.vbpc")


@_FUZZ
@given(data=st.data())
def test_load_coreset_bit_flips(fuzz_dir, coreset_blob, data):
    blob = bytearray(coreset_blob)
    # CRC-32 detects every error of up to three bits at this length
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1,
                                  max_size=3, unique=True)):
        blob[bit // 8] ^= 1 << (bit % 8)
    (fuzz_dir / "f.vbpc").write_bytes(bytes(blob))
    assert not loads_or_file_error(load_coreset, fuzz_dir / "f.vbpc")


_u32 = st.integers(0, 12) | st.integers(0, 2**32 - 1)
# nhat, d, k: arbitrary, or one of the splits that fit the payload of
# 6 x (4 + 3) + 2 x 4 = 50 doubles, nhat x (d + k) + 2 x d
_sizes = st.tuples(_u32, _u32, _u32) | st.sampled_from(
    [(6, 4, 3), (4, 5, 5), (8, 1, 5), (1, 16, 2), (50, 0, 1), (0, 25, 3)])


@_FUZZ
@given(sizes=_sizes, hyper=st.tuples(*[st.floats()] * 4),
       stats=st.tuples(*[st.floats()] * 8))
def test_load_coreset_rechecksummed_headers(fuzz_dir, coreset_blob, sizes, hyper,
                                            stats):
    blob = bytearray(coreset_blob)
    blob[8:20] = struct.pack("<III", *sizes)
    blob[24:56] = struct.pack("<dddd", *hyper)
    blob[-68:-4] = struct.pack("<8d", *stats)       # the mean and std
    (fuzz_dir / "f.vbpc").write_bytes(rechecksum(bytes(blob)))
    loads_or_file_error(load_coreset, fuzz_dir / "f.vbpc")


@_FUZZ
@given(image_head=st.tuples(st.just(2051) | _i32, _i32, _i32, _i32),
       label_head=st.tuples(st.just(2049) | _i32, _i32),
       pixels=st.binary(max_size=64), labels=st.binary(max_size=8))
def test_load_idx_arbitrary_headers(fuzz_dir, image_head, label_head, pixels, labels):
    (fuzz_dir / "img.idx").write_bytes(struct.pack(">iiii", *image_head) + pixels)
    (fuzz_dir / "lab.idx").write_bytes(struct.pack(">ii", *label_head) + labels)
    loads_or_file_error(load_idx, fuzz_dir / "img.idx", fuzz_dir / "lab.idx")


@_FUZZ
@given(data=st.data())
def test_load_idx_truncations(fuzz_dir, data):
    images = struct.pack(">iiii", 2051, 3, 2, 2) + bytes(range(12))
    labels = struct.pack(">ii", 2049, 3) + bytes([0, 1, 2])
    cuts = (data.draw(st.integers(0, len(images))), data.draw(st.integers(0, len(labels))))
    (fuzz_dir / "img.idx").write_bytes(images[:cuts[0]])
    (fuzz_dir / "lab.idx").write_bytes(labels[:cuts[1]])
    loaded = loads_or_file_error(load_idx, fuzz_dir / "img.idx", fuzz_dir / "lab.idx")
    assert loaded == (cuts == (len(images), len(labels)))
