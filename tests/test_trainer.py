"""Optimizer steps, schedules, sampling, the training loop, evaluation."""

import math
import re
import threading
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

from vbpc.data import (Dataset, gen_synthetic, normalize, normalize_with,
                       init_coreset)
from vbpc import _twocore, data, ndiff as nd, network, objective, optim, trainer
from vbpc.network import pool_new, pool_sample, pool_update
from vbpc.objective import coreset_grad, outer_loss
from vbpc.optim import AdamState, adam_step, cosine_lr
from vbpc.trainer import (BatchSampler, TrainAbort, TrainConfig,
                          augment_noise, evaluate_coreset, train)


# ---------------------------------------------------------------------------
# adam / cosine
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    p = [np.array([[1.0, -2.0]])]
    state = AdamState.init(p)
    state, out = adam_step(state, p, [np.zeros((1, 2))], lr=0.1)
    np.testing.assert_array_equal(out[0], p[0])
    assert state.t == 1


def test_adam_first_step_hand_value():
    # g=1, lr=0.1: bias-corrected update is lr * 1/(1 + eps) ~ 0.1
    p = [np.array([[0.0]])]
    state, out = adam_step(AdamState.init(p), p, [np.array([[1.0]])], lr=0.1)
    assert math.isclose(out[0][0, 0], -0.1, rel_tol=1e-7)
    assert math.isclose(out[0][0, 0], -0.09999999900000002, rel_tol=1e-12)


def test_adam_deterministic():
    rng = np.random.default_rng(0)
    p = [rng.standard_normal((3, 2))]
    g = [rng.standard_normal((3, 2))]

    def run():
        state = AdamState.init(p)
        params = p
        for _ in range(5):
            state, params = adam_step(state, params, g, lr=0.01)
        return params[0]

    np.testing.assert_array_equal(run(), run())


def textbook_adam(params, grads, lr, steps):
    """The Adam expression written out on whole arrays, in the parameters'
    dtype."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        c1 = 1.0 - optim.BETA1 ** t
        c2 = 1.0 - optim.BETA2 ** t
        for i, (p, g) in enumerate(zip(params, grads[t - 1])):
            m[i] = optim.BETA1 * m[i] + (1.0 - optim.BETA1) * g
            v[i] = optim.BETA2 * v[i] + (1.0 - optim.BETA2) * g * g
            step = lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + optim.EPS)
            params[i] = p - step
    return params, m, v


def test_adam_matches_textbook_bit_for_bit(halves_calls):
    # one block spans two full slices and a ragged tail and one five and a
    # tail, each cut at its midpoint; one is a single slice and one 1 x 1,
    # neither cut
    rng = np.random.default_rng(8)
    shapes = [(7, (2 * optim.SLICE + 2231) // 7 + 1), (5 * optim.SLICE + 77, 1),
              (1, optim.SLICE), (1, 1)]
    assert 2 * optim.SLICE < shapes[0][0] * shapes[0][1] < 3 * optim.SLICE
    params = [rng.standard_normal(s) for s in shapes]
    grads = [[rng.standard_normal(s) * 10.0 ** rng.integers(-3, 3) for s in shapes]
             for _ in range(4)]
    want, want_m, want_v = textbook_adam(list(params), grads, 0.003, 4)
    state = AdamState.init(params)
    got = params
    for g in grads:
        state, got = adam_step(state, got, g, lr=0.003)
    assert state.t == 4 and len(halves_calls) == 2 * 4
    for a, b in zip(got + state.m + state.v, want + want_m + want_v):
        assert a.tobytes() == b.tobytes()


def test_adam_float32_parameters_run_in_float32_with_no_cast(halves_calls, monkeypatch):
    # float32 parameters, gradients and moments: the blocks keep float32,
    # no slice is cast, and every bit is the textbook expression's in
    # float32; a block of 2 * SLICE elements is cut, in slices of 2 * SLICE
    rng = np.random.default_rng(13)
    shapes = [(2 * optim.SLICE + 77, 1), (3, 5)]
    params = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    grads = [[rng.standard_normal(s).astype(np.float32) for s in shapes] for _ in range(3)]
    want, want_m, want_v = textbook_adam(list(params), grads, 0.003, 3)
    casts = []
    real_copyto = np.copyto
    monkeypatch.setattr(optim.np, "copyto", lambda *a, **k: casts.append(1) or real_copyto(*a, **k))
    state = AdamState.init(params)
    got = params
    for g in grads:
        state, got = adam_step(state, got, g, lr=0.003)
    assert casts == [] and len(halves_calls) == 3
    assert all(p.dtype == np.float32 and not p.flags.writeable for p in got)
    for a, b in zip(got + state.m + state.v, want + want_m + want_v):
        assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()


@pytest.fixture
def update_spans(monkeypatch):
    """(lo, hi, scratch lengths) of every `optim._update` call."""
    spans = []
    real = optim._update

    def recording(flats, lo, hi, scratch, *args):
        spans.append((lo, hi, *(len(s) for s in scratch)))
        real(flats, lo, hi, scratch, *args)

    monkeypatch.setattr(optim, "_update", recording)
    return spans


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_cuts_a_block_into_halves_of_equal_length(halves_calls, update_spans, dtype):
    # 784 x 256 spans three slices and a tail: a cut at a slice boundary
    # would leave one half a single slice and the other the rest
    assert 3 * optim.SLICE < 784 * 256 < 4 * optim.SLICE
    rng = np.random.default_rng(12)
    params = [rng.standard_normal((784, 256)).astype(dtype)]
    grads = [[rng.standard_normal((784, 256)).astype(dtype)] for _ in range(2)]
    want, want_m, want_v = textbook_adam(list(params), grads, 0.003, 2)
    state = AdamState.init(params)
    got = params
    for g in grads:
        state, got = adam_step(state, got, g, lr=0.003)
    assert len(halves_calls) == 2
    (lo1, mid, *first), (mid2, hi, *second) = sorted(update_spans)[::2]
    assert lo1 == 0 and mid == mid2 and hi == 784 * 256
    assert mid % _twocore.LANES == 0 and abs((hi - mid) - mid) <= _twocore.LANES
    # scratch buffers of a slice's bytes: SLICE doubles or 2 * SLICE floats
    assert first == second == [optim.SLICE * 8 // np.dtype(dtype).itemsize] * 2
    for a, b in zip(got + state.m + state.v, want + want_m + want_v):
        assert a.tobytes() == b.tobytes()


def test_adam_scratch_is_no_longer_than_the_blocks(update_spans):
    # blocks far under a slice get scratch buffers of the largest block's
    # length, not of SLICE
    params = [np.ones((40, 30)), np.ones((1, 30))]
    adam_step(AdamState.init(params), params, params, lr=0.1)
    assert update_spans == [(0, 1200, 1200, 1200), (0, 30, 1200, 1200)]


@pytest.mark.parametrize("dtype, g", [(np.float64, 1e160), (np.float32, 1e21)])
def test_adam_overflowing_second_moment_raises(dtype, g):
    # v = (1 - BETA2) g^2 overflows to inf while m and p stay finite: the
    # step would be m / inf = 0, and the parameter would never move again
    p = [np.zeros((2, 3), dtype)]
    grad = np.full((2, 3), 1.0, dtype)
    grad[1, 2] = g
    state = AdamState.init(p)
    with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError,
                                                   match="second moment"):
        adam_step(state, p, [grad], lr=0.1)
    assert np.isfinite(state.m[0]).all()


def test_adam_rejects_mixed_moment_dtypes():
    # the scratch buffers take one dtype, which a mixed state does not have
    p = [np.zeros((2, 3))]
    state = AdamState.init(p)
    state.v = [np.zeros((2, 3), np.float32)]
    with pytest.raises(ValueError, match="dtype"):
        adam_step(state, p, [np.zeros((2, 3))], lr=0.1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_state_takes_its_parameters_dtype(dtype):
    # float32 parameters get float32 moments, any other float64 ones
    p = [np.zeros((2, 3), dtype), np.zeros((1, 3), dtype)]
    state = AdamState.init(p)
    assert all(b.dtype == dtype for b in state.m + state.v)
    assert AdamState.init([np.zeros((2, 3), np.float16)]).m[0].dtype == np.float64


@pytest.mark.parametrize("state_dtype, param_dtype, grad_dtype", [
    (np.float64, np.float32, np.float32),
    (np.float64, np.float64, np.float32),
    (np.float32, np.float64, np.float64),
    (np.float32, np.float32, np.float64),
    (np.float64, np.float16, np.float64),
])
def test_adam_refuses_a_dtype_other_than_its_states(state_dtype, param_dtype, grad_dtype):
    # a state has one dtype, and a step casts nothing: a parameter or a
    # gradient of another dtype raises before any moment moves
    state = AdamState.init([np.zeros((2, 3), state_dtype)])
    with pytest.raises(ValueError, match=f"must be of the state's dtype, "
                                         f"{np.dtype(state_dtype)}"):
        adam_step(state, [np.ones((2, 3), param_dtype)],
                  [np.ones((2, 3), grad_dtype)], lr=0.1)
    assert state.t == 0 and not state.m[0].any()


def test_adam_updates_state_in_place_and_never_writes_its_inputs():
    rng = np.random.default_rng(9)
    params = [rng.standard_normal((40, 30)), rng.standard_normal((1, 30))]
    grads = [rng.standard_normal((40, 30)), rng.standard_normal((1, 30))]
    params_before = [p.copy() for p in params]
    grads_before = [g.copy() for g in grads]
    state = AdamState.init(params)
    moments = state.m + state.v
    state2, out = adam_step(state, params, grads, lr=0.01)
    assert state2 is state
    assert all(a is b for a, b in zip(state.m + state.v, moments))
    assert all(np.abs(m).max() > 0 for m in state.m)
    for p, before in zip(params, params_before):
        np.testing.assert_array_equal(p, before)
    for g, before in zip(grads, grads_before):
        np.testing.assert_array_equal(g, before)
    for p, new in zip(params, out):
        assert not new.flags.writeable
        assert new.flags.owndata and new.flags.c_contiguous
        assert not np.shares_memory(new, p)


def test_adam_non_finite_update_raises():
    p = [np.full((3, 40000), 1.7e308)]    # two slices and a tail: cut in halves
    p[0][2, -1] = -1.7e308
    g = [np.full((3, 40000), -1.0)]
    g[0][2, -1] = 1.0
    with np.errstate(over="ignore"), pytest.raises(nd.NonFiniteError, match="adam_step"):
        adam_step(AdamState.init(p), p, g, lr=1e308)


@pytest.mark.parametrize("dtype, lr", [(np.float32, 1e300), (np.float32, -4e38),
                                       (np.float64, math.inf)])
def test_adam_refuses_a_learning_rate_its_dtype_cannot_hold(dtype, lr):
    # the ops would cast lr to inf with an overflow warning and fail later as
    # a "non-finite parameter update": the step raises first, naming the
    # range, and moves no moment
    state = AdamState.init([np.zeros((2, 3), dtype)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nd.NonFiniteError,
                           match=re.escape(f"adam_step: learning rate {lr:.3e} beyond "
                                           f"{np.dtype(dtype).name}'s range")):
            adam_step(state, [np.ones((2, 3), dtype)], [np.ones((2, 3), dtype)], lr=lr)
    assert state.t == 0 and not state.m[0].any() and not state.v[0].any()
    # the largest finite value of the dtype is a learning rate it holds
    big = float(np.finfo(dtype).max)
    state, (out,) = adam_step(state, [np.ones((2, 3), dtype)],
                              [np.zeros((2, 3), dtype)], lr=big)
    assert state.t == 1 and (out == 1).all()


def test_adam_rejects_mismatched_blocks():
    p = [np.zeros((2, 3))]
    with pytest.raises(ValueError):
        adam_step(AdamState.init(p), p, [np.zeros((3, 2))], lr=0.1)


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.3) == 0.3
    assert abs(cosine_lr(100, 100, 0.3)) <= 1e-17
    assert math.isclose(cosine_lr(50, 100, 0.3), 0.15, rel_tol=1e-12)
    with pytest.raises(ValueError):
        cosine_lr(101, 100, 0.3)


# ---------------------------------------------------------------------------
# augmentation / batches
# ---------------------------------------------------------------------------

def test_noise_sigma_zero_is_identity():
    images = np.ones((4, 3))
    out = augment_noise(images, 0.0, np.random.default_rng(0))
    assert out is images


def test_noise_is_the_expression_bit_for_bit():
    images = np.random.default_rng(2).standard_normal((7, 9))
    want = images + 0.1 * np.random.default_rng(3).standard_normal(images.shape)
    got = augment_noise(images, 0.1, np.random.default_rng(3))
    assert got.tobytes() == want.tobytes()


def test_noise_is_drawn_in_the_images_dtype():
    # float32 images get a float32 draw times sigma, in float32, bit for bit
    images = np.random.default_rng(2).standard_normal((7, 9)).astype(np.float32)
    want = images + 0.1 * np.random.default_rng(3).standard_normal(images.shape,
                                                                   dtype=np.float32)
    got = augment_noise(images, 0.1, np.random.default_rng(3))
    assert got.dtype == want.dtype == np.float32 and not got.flags.writeable
    assert got.tobytes() == want.tobytes()


def test_noise_sample_variance():
    rng = np.random.default_rng(1)
    images = np.zeros((1000, 100))
    out = augment_noise(images, 0.1, rng)
    assert 0.009 <= (out - images).var() <= 0.011


def test_noise_deterministic_per_seed():
    images = np.zeros((5, 5))
    a = augment_noise(images, 0.3, np.random.default_rng(7))
    b = augment_noise(images, 0.3, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_batch_full_size_is_permutation():
    ds = normalize(gen_synthetic("blobs", n=30, k=3, noise=0.5, seed=2))
    sampler = BatchSampler(ds, size=30, seed=3)
    x, y = sampler.next()
    assert x.shape == (30, 2)
    order = np.lexsort(x.T)
    whole = ds.rows(slice(None))
    np.testing.assert_allclose(x[order], whole[np.lexsort(whole.T)])


def test_batches_partition_epoch():
    ds = normalize(gen_synthetic("blobs", n=24, k=2, noise=0.5, seed=4))
    sampler = BatchSampler(ds, size=8, seed=5)
    seen = []
    for _ in range(3):
        x, _ = sampler.next()
        seen.extend(map(tuple, x))
    assert len(set(seen)) == 24


def test_batches_reproducible():
    ds = normalize(gen_synthetic("blobs", n=20, k=2, noise=0.5, seed=6))
    a = BatchSampler(ds, size=6, seed=7)
    b = BatchSampler(ds, size=6, seed=7)
    for _ in range(5):
        xa, _ = a.next()
        xb, _ = b.next()
        np.testing.assert_array_equal(xa, xb)


def test_every_reader_of_the_features_goes_through_rows(monkeypatch):
    calls = []
    real = Dataset.rows

    def spy(self, idx):
        calls.append(idx)
        return real(self, idx)

    monkeypatch.setattr(Dataset, "rows", spy)
    ds = normalize(gen_synthetic("blobs", n=60, k=3, noise=0.5, seed=8))
    init_coreset(ds, 2, "sample", seed=1)
    BatchSampler(ds, size=16, seed=2).next()
    assert len(calls) == 2
    assert ds.X is ds.X
    assert len(calls) == 3 and calls[-1] == slice(None)


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------

def tiny_config(**kw):
    base = dict(steps=5, batch_size=16, ipc=2, hidden=(8,), pool_size=2,
                pool_period=3, log_interval=1)
    base.update(kw)
    return TrainConfig(**base)


def moons_dataset(n=120, seed=8):
    return normalize(gen_synthetic("moons", n=n, k=2, noise=0.1, seed=seed))


def test_zero_lr_leaves_coreset_bitwise():
    # the pixels train in float32: a zero step returns the initial images
    # rounded to float32 and upcast, and the float64 labels as they were
    ds = moons_dataset()
    config = tiny_config(steps=1, coreset_lr=0.0)
    out = train(config, ds)
    init = init_coreset(ds, config.ipc, config.init_mode, config.seed_init)
    assert out.images.dtype == np.float64
    assert out.images.tobytes() == init.images.astype(np.float32).astype(np.float64).tobytes()
    np.testing.assert_array_equal(out.labels, init.labels)


def test_train_returns_float64_images_that_float32_holds_exactly():
    out = train(tiny_config(steps=4), moons_dataset())
    assert out.images.dtype == out.labels.dtype == np.float64
    assert out.images.tobytes() == out.images.astype(np.float32).astype(np.float64).tobytes()
    # the labels train in float64: they are not all float32 values
    assert not np.array_equal(out.labels, out.labels.astype(np.float32))


def test_training_pixel_state_is_float32(monkeypatch):
    # every coreset Adam step on the images has float32 parameters,
    # gradients and moments, the labels' float64 ones; the pool step reads
    # the float32 images Adam made as they are, with no copy
    steps = []
    real_adam = trainer.adam_step

    def recording_adam(state, params, grads, lr):
        state, new = real_adam(state, params, grads, lr)
        steps.append(([p.dtype for p in params + grads + state.m + state.v], new))
        return state, new

    pool_images = []
    real_gaussian = network.gaussian_step

    def recording_gaussian(net, images, *args, **kwargs):
        pool_images.append(images)
        return real_gaussian(net, images, *args, **kwargs)

    monkeypatch.setattr(trainer, "adam_step", recording_adam)
    monkeypatch.setattr(network, "gaussian_step", recording_gaussian)
    train(tiny_config(steps=3), moons_dataset())
    assert len(steps) == 6 and len(pool_images) == 3
    for (image_dtypes, (images,)), (label_dtypes, _), pooled in zip(
            steps[::2], steps[1::2], pool_images):
        assert set(image_dtypes) == {np.dtype(np.float32)}
        assert set(label_dtypes) == {np.dtype(np.float64)}
        assert pooled is images


def test_learn_labels_false_freezes_labels():
    ds = moons_dataset()
    config = tiny_config(learn_labels=False)
    out = train(config, ds)
    init = init_coreset(ds, config.ipc, config.init_mode, config.seed_init)
    np.testing.assert_array_equal(out.labels, init.labels)
    assert not np.array_equal(out.images, init.images)


def test_metrics_deterministic_across_runs():
    ds = moons_dataset()
    config = tiny_config(steps=10)

    def run():
        records = []
        train(config, ds, sink=records.append)
        return records

    a, b = run(), run()
    assert len(a) == len(b) == 10
    for ra, rb in zip(a, b):
        for key in ("step", "loss", "lik", "kl", "lr", "jitter_retries",
                    "cond_lb"):
            assert ra[key] == rb[key]
        assert ra["cond_lb"] >= 1.0
        assert "ms" in ra
    assert a[-1]["jitter_retries"] == 0


def test_jitter_retries_counted_per_run(monkeypatch):
    # every factorization fails once, so each step needs one retry
    real = scipy.linalg.cholesky
    calls = []

    def fail_first_try(a, *args, **kwargs):
        calls.append(None)
        if len(calls) % 2 == 1:
            raise scipy.linalg.LinAlgError("forced")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", fail_first_try)
    ds = moons_dataset()
    for _ in range(2):
        records = []
        train(tiny_config(steps=4), ds, sink=records.append)
        assert [r["jitter_retries"] for r in records] == [1, 2, 3, 4]
    # step 2's loss raises after its factorization took the retry: where
    # trtri leaves the factor non-finite, or after the posterior solve. The
    # abort record counts that retry too
    real_trtri = scipy.linalg.lapack.dtrtri

    def non_finite_inverse(chol, **kwargs):
        hits.append(None)
        w, info = real_trtri(chol, **kwargs)
        return (w * np.inf if len(hits) == 3 else w), info

    for module, name, real_fn in ((scipy.linalg.lapack, "dtrtri", None),
                                  (objective, "kl_to_prior", objective.kl_to_prior)):
        def failing(*args, _real=real_fn, **kwargs):
            hits.append(None)
            if len(hits) == 3:
                raise nd.NonFiniteError("forced after the factorization")
            return _real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(module, name, non_finite_inverse if real_fn is None else failing)
            runs = []
            for loop in (train, serial_train):
                hits = []
                runs.append(run_loop(loop, tiny_config(steps=4), ds))
        assert [r["jitter_retries"] for r in runs[0][0]] == [1, 2, 3]
        assert runs[0][0][-1]["event"] == "abort" and runs[0] == runs[1]


def test_jitter_retries_count_only_the_runs_own_factorizations():
    # the sink factors a singular matrix, which takes the retry, after each
    # record; none of the run's own factorizations does
    records = []

    def sink(record):
        records.append(record)
        nd.inv_chol(nd.Array([[1.0, 1.0], [1.0, 1.0]]))

    train(tiny_config(steps=6, pool_size=3), moons_dataset(), sink=sink)
    assert [r["jitter_retries"] for r in records] == [0] * 6


@pytest.mark.parametrize("worker", ["on", "off"])
def test_a_step_failing_with_another_error_raises_it_unchanged(monkeypatch, worker):
    # both Cholesky attempts fail in step 2's coreset step: train raises that
    # NonSPDError itself, after the records of steps 0-1, with no abort record
    if worker == "off":
        monkeypatch.setattr(_twocore, "_worker", False)
    ds, config = moons_dataset(), tiny_config(steps=5)
    clean = []
    train(config, ds, sink=clean.append)
    real = scipy.linalg.cholesky
    calls = []

    def fail_from_step_2(a, *args, **kwargs):
        calls.append(None)
        if len(calls) > 2:
            raise scipy.linalg.LinAlgError("forced")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", fail_from_step_2)
    records = []
    with pytest.raises(nd.NonSPDError, match="jitter retry failed") as raised:
        train(config, ds, sink=records.append)
    assert type(raised.value) is nd.NonSPDError and len(calls) == 4
    for record in records + clean:
        del record["ms"]
    assert records == clean[:2]


def test_training_reduces_loss_on_moons():
    ds = moons_dataset(n=400)
    config = tiny_config(steps=150, batch_size=64, hidden=(16, 16),
                         ipc=5, log_interval=10)
    records = []
    out = train(config, ds, sink=records.append)
    assert records[-1]["loss"] < records[0]["loss"]
    assert out.images.shape == (10, 2)


def image_like_splits(seed, n_train=2000, n_test=1000):
    """Ten classes of 64-pixel Gaussian prototypes, each row 0.7 times its
    class's prototype plus unit pixel noise; the test split is standardized
    with the training statistics."""
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((10, 64))

    def split(n):
        labels = np.arange(n) % 10
        rng.shuffle(labels)
        return Dataset(raw=0.7 * prototypes[labels] + rng.standard_normal((n, 64)),
                       labels=labels, k=10)

    train_ds = normalize(split(n_train))
    return train_ds, normalize_with(split(n_test), train_ds.mean, train_ds.std)


# (ipc, seed, NLL margin, accuracy margin); an ipc 10 case is named by its
# seed alone
@pytest.mark.parametrize("ipc, seed, nll_margin, acc_margin", [
    *(pytest.param(10, seed, 0.086, 0.041, id=str(seed)) for seed in range(3)),
    *(pytest.param(1, seed, 0.024, 0.022, id=f"ipc1-{seed}") for seed in range(3)),
])
def test_learned_coreset_beats_a_random_subset_of_its_size(ipc, seed, nll_margin,
                                                           acc_margin):
    # the quality gate a change to the training bits must pass: 200 steps
    # learn a coreset whose test NLL and accuracy beat those of the
    # class-stratified sample it starts from. Over seeds 0-9 the gaps read,
    # at ipc 10, 0.173-0.205 in NLL and 0.082-0.116 in accuracy, and at
    # ipc 1 0.048-0.073 and 0.044-0.112; the margins are half the smallest.
    # At ipc 10 and seeds 0-2 float64 pool slots gave the same NLL and
    # accuracy as float32 ones, to 3 decimals
    train_ds, test_ds = image_like_splits(seed)
    config = TrainConfig(steps=200, ipc=ipc, hidden=(64, 64), seed_data=seed,
                         seed_pool=seed + 1, seed_noise=seed + 2, seed_init=seed + 3)
    learned = train(config, train_ds)
    sample = init_coreset(train_ds, config.ipc, "sample", config.seed_init,
                          hyper=learned.hyper)
    widths = (64, *config.hidden)
    got, base = (evaluate_coreset(c, test_ds, test_ds.labels, widths, tprime=100,
                                  seed=seed) for c in (learned, sample))
    assert base["nll"] - got["nll"] >= nll_margin, (got, base)
    assert got["acc"] - base["acc"] >= acc_margin, (got, base)


def test_abort_on_non_finite_diagnostic():
    ds = moons_dataset()
    bad_x = ds.rows(slice(None))
    bad_x[0, 0] = 1e308  # overflows inside the feature matmul
    from vbpc.data import Dataset
    bad = Dataset(raw=bad_x, labels=ds.labels, k=ds.k)
    records = []
    with pytest.raises(TrainAbort):
        train(tiny_config(batch_size=120), bad, sink=records.append)
    assert records and records[-1]["event"] == "abort"


def test_abort_on_a_batch_row_beyond_float32():
    # the pool slot reads its batch through `_read_only`: a finite row value
    # beyond float32's range aborts step 0 with a record naming the rows,
    # where the cast would warn and carry inf into the product; uniform
    # pixels keep the row out of the coreset, and a batch of every row
    # holds it
    ds = moons_dataset()
    bad_x = ds.rows(slice(None))
    bad_x[7, 1] = -1e39
    bad = Dataset(raw=bad_x, labels=ds.labels, k=ds.k)
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainAbort, match="feature rows beyond float32's range"):
            train(tiny_config(batch_size=ds.n, init_mode="uniform"), bad,
                  sink=records.append)
    assert records == [{"step": 0, "event": "abort", "jitter_retries": 0,
                        "error": "feature rows beyond float32's range: "
                                 "largest magnitude 1.000e+39"}]


def test_train_hands_freed_memory_back_on_return_and_on_abort(monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "_release_freed_memory", lambda: calls.append(1))
    train(tiny_config(steps=2), moons_dataset())
    assert calls == [1]
    with np.errstate(over="ignore"), pytest.raises(TrainAbort):
        train(tiny_config(coreset_lr=1e12), moons_dataset())
    assert calls == [1, 1]


def test_abort_on_overflowing_pool_moment():
    # step 0's Adam moves the coreset by about coreset_lr, so the pool's
    # gradients outgrow float32 moments (|g| > 6e20): the run aborts in step
    # 0's pool update with a record, not with v = inf and a step of zero
    records = []
    with np.errstate(over="ignore"), pytest.raises(TrainAbort, match="second moment"):
        train(tiny_config(coreset_lr=1e12), moons_dataset(), sink=records.append)
    assert records == [{"step": 0, "event": "abort", "jitter_retries": 0,
                        "error": "adam_step: non-finite second moment"}]


def test_abort_on_coreset_beyond_float32():
    # the images train in float32, where coreset_lr = 1e300 has no value:
    # step 0's Adam on them refuses it, with no overflow warning, and the
    # run aborts in step 0's coreset step
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainAbort, match="learning rate 1.000e\\+300 beyond "
                                             "float32's range"):
            train(tiny_config(coreset_lr=1e300), moons_dataset(), sink=records.append)
    assert records == [{"step": 0, "event": "abort", "jitter_retries": 0,
                        "error": "adam_step: learning rate 1.000e+300 beyond "
                                 "float32's range"}]


def test_abort_on_a_pool_lr_beyond_float32():
    # the float32 pool slot's Adam refuses pool_lr = 1e300 as the images'
    # Adam refuses coreset_lr: step 0 aborts in its pool update, with a
    # record and no warning
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainAbort, match="learning rate 1.000e\\+300"):
            train(tiny_config(pool_lr=1e300), moons_dataset(), sink=records.append)
    assert records == [{"step": 0, "event": "abort", "jitter_retries": 0,
                        "error": "adam_step: learning rate 1.000e+300 beyond "
                                 "float32's range"}]


def test_noise_toggle_changes_loss_stream():
    ds = moons_dataset()
    on = []
    off = []
    train(tiny_config(noise_aug=True), ds, sink=on.append)
    train(tiny_config(noise_aug=False), ds, sink=off.append)
    assert any(a["loss"] != b["loss"] for a, b in zip(on, off))
    # sigma = 0 must behave exactly like the no-augmentation path
    zero = []
    train(tiny_config(noise_aug=True, noise_sigma=0.0), ds, sink=zero.append)
    for a, b in zip(zero, off):
        assert a["loss"] == b["loss"]


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=0)
    with pytest.raises(ValueError):
        TrainConfig(pool_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(init_mode="fancy")
    with pytest.raises(ValueError):
        TrainConfig(noise_sigma=-0.1)


def test_full_step_at_wide_features_avoids_hxh():
    # one complete training step (loss, backward, adam, pool update) at
    # h = 4096 must never allocate an h^2 block
    from vbpc import ndiff as nd
    h = 4096
    ds = moons_dataset(n=64)
    config = tiny_config(steps=1, batch_size=16, ipc=2, hidden=(h,),
                        pool_size=1, pool_period=5)
    with nd.track_allocations() as window:
        train(config, ds)
    assert window.largest_block < h * h


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_uniform_for_zero_net(monkeypatch):
    from vbpc.network import init_net
    ds = moons_dataset(n=200)
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=0)
    net = init_net((2, 8), 2, seed=0)
    net = net.replace_params([np.zeros_like(p, dtype=np.float32) for p in net.params])
    monkeypatch.setattr(network, "_draw_nets", lambda *args: [net])
    test = normalize_with(gen_synthetic("moons", n=100, k=2, noise=0.1, seed=9),
                          ds.mean, ds.std)
    out = evaluate_coreset(coreset, test, test.labels, widths=(2, 8),
                           tprime=0)
    assert abs(out["nll"] - math.log(2.0)) <= 0.05


@pytest.mark.parametrize("field", ["images", "labels"])
def test_eval_refuses_a_coreset_beyond_float32(field):
    # the cast to the float32 network names the array, with no overflow
    # warning and no inf carried on
    ds = moons_dataset(n=200)
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=0)
    arrays = {"images": coreset.images.copy(), "labels": coreset.labels.copy()}
    arrays[field][1, 0] = 1e39
    coreset = coreset.with_arrays(arrays["images"], arrays["labels"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nd.NonFiniteError,
                           match=f"coreset {field} beyond float32's range: "
                                 f"largest magnitude 1.000e\\+39"):
            evaluate_coreset(coreset, ds, ds.labels, (2, 8), tprime=1)


def test_eval_deterministic_per_seed():
    ds = moons_dataset(n=200)
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=0)
    test = normalize_with(gen_synthetic("moons", n=80, k=2, noise=0.1, seed=10),
                          ds.mean, ds.std)
    a = evaluate_coreset(coreset, test, test.labels, (2, 16), tprime=20, seed=4)
    b = evaluate_coreset(coreset, test, test.labels, (2, 16), tprime=20, seed=4)
    assert a == b


def test_eval_rejects_negative_tprime():
    ds = moons_dataset(n=200)
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=0)
    with pytest.raises(ValueError, match="tprime must be >= 0, got -1"):
        evaluate_coreset(coreset, ds, ds.labels, (2, 16), tprime=-1)


def test_eval_is_the_same_on_one_core_or_two(halves_calls, monkeypatch):
    # a 512 x 256 layer: its Adam block and the test split's feature
    # products are cut in halves, which run on the worker when it is live
    assert 512 * 256 >= 2 * optim.SLICE
    ds = moons_dataset(n=200)
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=0)
    test = normalize_with(gen_synthetic("moons", n=400, k=2, noise=0.1, seed=12),
                          ds.mean, ds.std)
    two = evaluate_coreset(coreset, test, test.labels, (2, 512, 256), tprime=5, seed=3)
    cuts = len(halves_calls)
    monkeypatch.setattr(_twocore, "_start_worker", lambda: False)
    one = evaluate_coreset(coreset, test, test.labels, (2, 512, 256), tprime=5, seed=3)
    assert cuts >= 5 and len(halves_calls) == 2 * cuts
    assert one == two


def _evaluate_in_float64(coreset, test_x, test_labels, widths, tprime, seed):
    """evaluate_coreset's steps, written out from the public functions with
    the network left in float64: (acc, nll)."""
    from vbpc.posterior import solve_posterior
    from vbpc.predictive import metrics, predictive_moments, probit_log_softmax
    net = network.init_net(widths, coreset.k, np.random.SeedSequence([seed, 0]))
    state = None
    for _ in range(tprime):
        net, state = network.gaussian_step(net, coreset.images, coreset.labels,
                                           coreset.hyper.gamma, TrainConfig.pool_lr,
                                           state=state)
    post = solve_posterior(network.features(net, coreset.images), coreset.labels,
                           coreset.hyper)
    batch = predictive_moments(post, network.features(net, test_x))
    assert net.head.dtype == np.float64
    return metrics(probit_log_softmax(batch.mean, batch.variance).data, test_labels)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eval_agrees_with_a_float64_network(seed):
    # ten classes of 64-pixel prototypes: the float32 evaluation net gives
    # the float64 one's accuracy, and its NLL to rounding. Over seeds 0-5,
    # the float64 net training with float64 moments, |NLL difference| read
    # 1.3e-9 to 1.7e-6 (seed 2); the gate is ten times the worst
    from vbpc.data import PseudoCoreset, scaled_onehot_labels
    from vbpc.posterior import Hyperparams
    rng = np.random.default_rng(5)
    classes = np.repeat(np.arange(10), 10)
    prototypes = rng.standard_normal((10, 64))
    images = 0.5 * prototypes[classes] + rng.standard_normal((100, 64))
    test_labels = rng.integers(0, 10, 500)
    test_x = 0.5 * prototypes[test_labels] + rng.standard_normal((500, 64))
    coreset = PseudoCoreset(images=images, labels=scaled_onehot_labels(classes, 10),
                            ipc=10, hyper=Hyperparams(rho=1.0, gamma=100.0,
                                                      beta_s=100.0, beta_d=1e-8))
    acc, nll = _evaluate_in_float64(coreset, test_x, test_labels, (64, 128, 128), 30, seed)
    got = evaluate_coreset(coreset, test_x, test_labels, (64, 128, 128), tprime=30,
                           seed=seed)
    assert got["acc"] == acc
    assert abs(got["nll"] - nll) <= 1.7e-5


def test_eval_in_chunks_gives_the_one_chunk_result(monkeypatch):
    # 300 test rows in chunks of 64, the last one short, each read through
    # the split's rows: the accuracy of one chunk, and its NLL to round-off.
    # One chunk of a split gives what one array of its rows gives
    train_ds, test_ds = image_like_splits(0, n_train=200, n_test=300)
    coreset = init_coreset(train_ds, 3, "sample", seed=0)
    widths = (64, 128, 128)
    whole = evaluate_coreset(coreset, test_ds, test_ds.labels, widths, tprime=10, seed=1)
    assert whole == evaluate_coreset(coreset, test_ds.rows(slice(None)), test_ds.labels,
                                     widths, tprime=10, seed=1)
    reads = []
    real = Dataset.rows
    monkeypatch.setattr(Dataset, "rows", lambda self, idx, dtype=np.float64:
                        reads.append(idx) or real(self, idx, dtype))
    monkeypatch.setattr(trainer, "EVAL_CHUNK", 64)
    chunked = evaluate_coreset(coreset, test_ds, test_ds.labels, widths, tprime=10, seed=1)
    assert [(part.start, part.stop) for part in reads] == [(lo, lo + 64)
                                                           for lo in range(0, 300, 64)]
    assert chunked["acc"] == whole["acc"]
    assert abs(chunked["nll"] - whole["nll"]) <= 1e-12 * abs(whole["nll"])
    assert (chunked["cond_lb"], chunked["jitter_retries"]) == (whole["cond_lb"],
                                                               whole["jitter_retries"])


def test_eval_reads_a_split_in_float32_blocks(monkeypatch):
    # a split's chunk reaches the float32 net as float32 rows, standardized
    # in float64 blocks of about STAT_BLOCK_BYTES: no float64 block holds a
    # whole chunk, and the result is the float64 array's
    train_ds, test_ds = image_like_splits(2, n_train=200, n_test=300)
    coreset = init_coreset(train_ds, 3, "sample", seed=0)
    widths = (64, 32)
    want = evaluate_coreset(coreset, test_ds.rows(slice(None)), test_ds.labels, widths,
                            tprime=3, seed=1)
    monkeypatch.setattr(data, "STAT_BLOCK_BYTES", 8 * 64 * 40)
    monkeypatch.setattr(trainer, "EVAL_CHUNK", 128)
    loaded = []
    real = Dataset._loaded
    monkeypatch.setattr(Dataset, "_loaded", lambda self, idx=slice(None), out=None:
                        loaded.append(real(self, idx, out)) or loaded[-1])
    got = evaluate_coreset(coreset, test_ds, test_ds.labels, widths, tprime=3, seed=1)
    assert got == want
    assert loaded and max(len(block) for block in loaded) == 40
    assert all(block.dtype == np.float64 for block in loaded)


def test_eval_counts_one_feature_pass_per_input():
    # the BMA path must evaluate the feature map exactly once per test point
    calls = []
    import vbpc.trainer as trainer_mod
    original = trainer_mod.features

    def counting(net, x):
        calls.append(len(x))
        return original(net, x)

    ds = moons_dataset(n=100)
    coreset = init_coreset(ds, ipc=2, mode="sample", seed=0)
    test = normalize_with(gen_synthetic("moons", n=40, k=2, noise=0.1, seed=11),
                          ds.mean, ds.std)
    trainer_mod.features = counting
    try:
        evaluate_coreset(coreset, test, test.labels, (2, 8), tprime=0, seed=1)
    finally:
        trainer_mod.features = original
    assert calls.count(40) == 1


def test_eval_casts_the_coreset_images_once(monkeypatch):
    # the float32 images made for the Gaussian steps also feed the
    # posterior's feature pass: of every checked cast, one has the images'
    # shape (30 x 16; the labels are 30 x 3, the test split 50 x 16)
    from vbpc.data import PseudoCoreset, scaled_onehot_labels
    from vbpc.posterior import Hyperparams
    rng = np.random.default_rng(24)
    coreset = PseudoCoreset(images=rng.standard_normal((30, 16)),
                            labels=scaled_onehot_labels(np.arange(30) % 3, 3), ipc=10,
                            hyper=Hyperparams(rho=1.0, gamma=100.0, beta_s=30.0,
                                              beta_d=1e-8))
    calls = []
    real = nd._checked_cast

    def counting(values, dtype, name):
        calls.append((np.shape(values), name))
        return real(values, dtype, name)

    monkeypatch.setattr(nd, "_checked_cast", counting)
    evaluate_coreset(coreset, rng.standard_normal((50, 16)), rng.integers(0, 3, 50),
                     (16, 8), tprime=2, seed=0)
    assert [name for shape, name in calls if shape == (30, 16)] == ["coreset images"]


def test_eval_drops_the_fits_adam_state_before_the_test_pass(monkeypatch):
    # the fit's moments, twice a float32 net, are dead by the time the
    # first test chunk reaches the predictive
    from vbpc.data import PseudoCoreset, scaled_onehot_labels
    from vbpc.posterior import Hyperparams
    rng = np.random.default_rng(25)
    coreset = PseudoCoreset(images=rng.standard_normal((12, 6)),
                            labels=scaled_onehot_labels(np.arange(12) % 3, 3), ipc=4,
                            hyper=Hyperparams(rho=1.0, gamma=100.0, beta_s=12.0,
                                              beta_d=1e-8))
    states, alive = [], []
    real_step, real_predictive = trainer.gaussian_step, trainer.log_predictive

    def stepping(*args, **kwargs):
        net, state = real_step(*args, **kwargs)
        states.append(weakref.ref(state))
        return net, state

    def predicting(*args):
        alive.append(sum(ref() is not None for ref in states))
        return real_predictive(*args)

    monkeypatch.setattr(trainer, "gaussian_step", stepping)
    monkeypatch.setattr(trainer, "log_predictive", predicting)
    evaluate_coreset(coreset, rng.standard_normal((20, 6)), rng.integers(0, 3, 20),
                     (6, 8), tprime=3, seed=0)
    assert len(states) == 3 and alive[0] == 0


# ---------------------------------------------------------------------------
# the pipelined loop against the serial one
# ---------------------------------------------------------------------------

def serial_train(config, dataset, sink):
    """The training loop one step at a time: outer loss, backward, Adam,
    then the pool update, before the next step begins. `train` overlaps
    each pool update with the next coreset step and must match this bit
    for bit, bar the records' `ms`. Its `jitter_retries` counts the calls
    of `scipy.linalg.cholesky` that raised during the run, through a
    wrapper of its own, and reads nothing the library counts."""
    real_cholesky = scipy.linalg.cholesky
    failed = []

    def counting_cholesky(*args, **kwargs):
        try:
            return real_cholesky(*args, **kwargs)
        except scipy.linalg.LinAlgError:
            failed.append(None)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.linalg, "cholesky", counting_cholesky)
        return _serial_loop(config, dataset, sink, failed)


def _serial_loop(config, dataset, sink, failed):
    config = config.resolve_beta_s(dataset.k)
    hyper = config.hyperparams()
    coreset = init_coreset(dataset, config.ipc, config.init_mode,
                           config.seed_init, hyper=hyper)
    pool = pool_new(config.pool_size, (dataset.d, *config.hidden), dataset.k,
                    config.seed_pool, config.pool_period)
    sample_rng = np.random.default_rng(np.random.SeedSequence([config.seed_pool, 1]))
    noise_rng = np.random.default_rng(config.seed_noise)
    sampler = BatchSampler(dataset, config.batch_size, config.seed_data)
    # the pixels, their moments and their noise in float32, the labels and
    # theirs in float64
    images = np.array(coreset.images, dtype=np.float32)
    labels = np.array(coreset.labels)
    state_x, state_y = AdamState.init([images]), AdamState.init([labels])
    for step in range(config.steps):
        lr = cosine_lr(step, config.steps, config.coreset_lr)
        batch = sampler.next()
        idx = pool_sample(pool, sample_rng)
        loss_images = images
        if config.noise_aug and config.noise_sigma != 0.0:
            loss_images = images + config.noise_sigma * noise_rng.standard_normal(
                images.shape, dtype=np.float32)
        try:
            tape = nd.Tape()
            loss, breakdown = outer_loss(coreset.with_arrays(loss_images, labels),
                                         pool.slots[idx].net, batch, dataset.n, hyper,
                                         tape)
            grad_x, grad_y = coreset_grad(loss, tape)
            state_x, (images,) = adam_step(state_x, [images], [grad_x], lr)
            if config.learn_labels:
                state_y, (labels,) = adam_step(state_y, [labels], [grad_y], lr)
            pool_update(pool, idx, images, labels, hyper.gamma, config.pool_lr)
        except nd.NonFiniteError as err:
            sink({"step": step, "event": "abort", "error": str(err),
                  "jitter_retries": len(failed)})
            raise TrainAbort(f"non-finite value at step {step}: {err}") from err
        if step % config.log_interval == 0 or step == config.steps - 1:
            sink({"step": step, "loss": breakdown.total,
                  "lik": breakdown.likelihood_term, "kl": breakdown.kl_term,
                  "lr": lr, "jitter_retries": len(failed),
                  "cond_lb": breakdown.cond_lb})
    return coreset.with_arrays(images.astype(np.float64), labels)


def run_loop(loop, config, dataset):
    """(records without `ms`, the coreset's bytes or the abort's message)."""
    records = []
    try:
        out = loop(config, dataset, records.append)
        result = (out.images.tobytes(), out.labels.tobytes())
    except TrainAbort as err:
        result = str(err)
    for record in records:
        record.pop("ms", None)
    return records, result


def fail_gaussian_step_at(monkeypatch, call):
    """Make the pool's Gaussian step raise NonFiniteError at its `call`-th
    call in each run; returns the reset for the next run."""
    real = network.gaussian_step
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise nd.NonFiniteError("forced in the pool step")
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "gaussian_step", failing)
    return calls.clear


# widths whose products, Adam blocks and coreset features are cut in halves
PIPELINE = dict(steps=12, batch_size=64, ipc=32, hidden=(256, 1024),
                pool_period=3, log_interval=1)


@pytest.mark.parametrize("worker", ["on", "off"])
@pytest.mark.parametrize("case", [
    dict(pool_size=1),                      # every step reads the pending slot
    dict(pool_size=2),
    dict(pool_size=10, log_interval=5),
    dict(pool_size=3, noise_aug=False),
    dict(pool_size=3, noise_sigma=0.0),
    dict(pool_size=3, learn_labels=False),
    dict(pool_size=3, coreset_lr=1e300),    # aborts in step 0's coreset Adam
    dict(pool_size=3, abort_in_pool_call=5),
], ids=lambda case: ",".join(f"{k}={v}" for k, v in case.items()))
def test_train_matches_the_serial_loop_bit_for_bit(monkeypatch, case, worker):
    if worker == "off":
        monkeypatch.setattr(_twocore, "_worker", False)
    case = dict(case)
    reset = None
    if "abort_in_pool_call" in case:
        reset = fail_gaussian_step_at(monkeypatch, case.pop("abort_in_pool_call"))
    config = TrainConfig(**{**PIPELINE, **case})
    ds = moons_dataset(n=400)
    want = run_loop(serial_train, config, ds)
    if reset is not None:
        reset()
    got = run_loop(train, config, ds)
    assert got == want
    aborts = [r for r in want[0] if r.get("event") == "abort"]
    assert len(aborts) == ("coreset_lr" in case or reset is not None)


def test_pool_step_and_rotation_run_on_the_calling_thread(monkeypatch):
    # the pool's Gaussian steps and its draws (the pool's, then each
    # rotation's)
    where = {"gaussian_step": [], "_draw_nets": []}
    for name in where:
        real = getattr(network, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            where[_name].append(threading.get_ident())
            return _real(*args, **kwargs)

        monkeypatch.setattr(network, name, recording)
    config = TrainConfig(**{**PIPELINE, "pool_size": 2, "pool_period": 2})
    train(config, moons_dataset(n=400))
    assert len(where["gaussian_step"]) == config.steps
    assert len(where["_draw_nets"]) > 1 + config.pool_size  # rotations happened
    assert set().union(*where.values()) == {threading.get_ident()}


@pytest.mark.parametrize("pool_size", [1, 2, 3])
def test_every_step_is_one_halves_call(halves_calls, pool_size):
    # at desk scale no product or Adam block is cut: each step is one call,
    # whether or not it samples the pending slot, and a pool of two nets or
    # more adds the call that draws it
    config = tiny_config(steps=6, pool_size=pool_size)
    train(config, moons_dataset())
    assert len(halves_calls) == config.steps + (pool_size > 1)


class TrackedHalf(_twocore._Half):
    made = []

    def __init__(self, fn):
        super().__init__(fn)
        TrackedHalf.made.append(self)


@pytest.mark.parametrize("ending", ["returns", "pool abort", "coreset abort"])
def test_train_leaves_no_half_queued_or_running(monkeypatch, ending):
    if _twocore._start_worker() is False:
        pytest.skip("one CPU: no worker")
    TrackedHalf.made = []
    monkeypatch.setattr(_twocore, "_Half", TrackedHalf)
    config = TrainConfig(**{**PIPELINE, "pool_size": 3})
    if ending == "pool abort":
        fail_gaussian_step_at(monkeypatch, 6)
    elif ending == "coreset abort":
        real = trainer.outer_loss
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 7:
                raise nd.NonFiniteError("forced in a coreset step")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "outer_loss", failing)
    if ending == "returns":
        train(config, moons_dataset(n=400))
    else:
        with pytest.raises(TrainAbort):
            train(config, moons_dataset(n=400))
    assert TrackedHalf.made and all(half.done for half in TrackedHalf.made)
    assert not _twocore._queue
