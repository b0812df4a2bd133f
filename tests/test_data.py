"""Synthetic generators, IDX parsing, normalization, coreset init, file format."""

import math
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vbpc.data import (STD_FLOOR, CoresetFileError, Dataset, gen_synthetic,
                       load_idx, normalize, normalize_with, init_coreset,
                       scaled_onehot_labels, save_coreset, load_coreset,
                       PseudoCoreset)
from vbpc import data, ndiff as nd
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


@pytest.mark.parametrize("kind", ["pixels", "floats"])
@pytest.mark.parametrize("n", [2, 4, 5, 11, 40])
def test_streamed_statistics_are_the_one_buffer_statistics(monkeypatch, kind, n):
    # blocks of four rows: one block or several, with a ragged last block
    # unless n is a multiple of four; the bits are those of the whole
    # matrix's mean(0) and std(0)
    d = 6
    monkeypatch.setattr(data, "STAT_BLOCK_BYTES", 4 * 8 * d)
    rng = np.random.default_rng(n)
    if kind == "pixels":
        raw = rng.integers(0, 256, (n, d), dtype=np.uint8)
    else:
        raw = rng.standard_normal((n, d)) * np.logspace(-6, 6, d) + rng.standard_normal(d) * 1e3
    ds = Dataset(raw=raw, labels=np.zeros(n, dtype=np.int64), k=2)
    mean, std = _one_buffer_statistics(ds)
    out = normalize(ds)
    assert out.mean.tobytes() == mean.tobytes() and out.std.tobytes() == std.tobytes()


def test_one_column_statistics_are_the_one_buffer_statistics(monkeypatch):
    # numpy sums a single column pairwise, not row after row: such a split
    # is summed in one block whatever the block size
    monkeypatch.setattr(data, "STAT_BLOCK_BYTES", 4 * 8)
    raw = np.random.default_rng(3).standard_normal((1000, 1)) * 1e3 + 0.1
    ds = Dataset(raw=raw, labels=np.zeros(1000, dtype=np.int64), k=2)
    mean, std = _one_buffer_statistics(ds)
    out = normalize(ds)
    assert out.mean.tobytes() == mean.tobytes() and out.std.tobytes() == std.tobytes()


def test_normalize_streams_through_one_block():
    # no n x d buffer: the peak is one block of about STAT_BLOCK_BYTES and
    # the slack the one-buffer test allows, under half of the matrix's bytes
    ds = wide_features()
    assert 2 * data.STAT_BLOCK_BYTES < ds.X.nbytes
    tracemalloc.start()
    try:
        normalize(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= data.STAT_BLOCK_BYTES + (8 * ds.d + np.getbufsize()) * 8


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
    np.testing.assert_array_equal(ds.mean, (pixels / 255.0).mean(0))
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
