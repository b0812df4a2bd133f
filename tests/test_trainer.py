"""Optimizer steps, schedules, sampling, the training loop, evaluation."""

import math
import threading

import numpy as np
import pytest
import scipy.linalg

from vbpc.data import gen_synthetic, normalize, normalize_with, init_coreset
from vbpc import _twocore, ndiff as nd, network, objective, optim, trainer
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
    """The Adam expression written out on whole arrays."""
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
    # one block spans two full slices and a ragged tail, cut in halves after
    # the first slice; one spans five and a tail, cut after the second; one
    # is a single slice and one 1 x 1, neither cut
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
    np.testing.assert_allclose(x[order], ds.X[np.lexsort(ds.X.T)])


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
    ds = moons_dataset()
    config = tiny_config(steps=1, coreset_lr=0.0)
    out = train(config, ds)
    init = init_coreset(ds, config.ipc, config.init_mode, config.seed_init)
    np.testing.assert_array_equal(out.images, init.images)
    np.testing.assert_array_equal(out.labels, init.labels)


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
    # step 2's loss raises after its factorization took the retry, inside the
    # posterior solve or after it: the abort record counts that retry too
    solve_fwd, solve_vjp, arity = nd._REGISTRY["cholesky_solve_spd"]
    for module, name, real_fn in ((nd._REGISTRY, "cholesky_solve_spd", solve_fwd),
                                  (objective, "kl_to_prior", objective.kl_to_prior)):
        def failing(*args, _real=real_fn, **kwargs):
            hits.append(None)
            if len(hits) == 3:
                raise nd.NonFiniteError("forced after the factorization")
            return _real(*args, **kwargs)

        with monkeypatch.context() as patch:
            if module is nd._REGISTRY:
                patch.setitem(module, name, (failing, solve_vjp, arity))
            else:
                patch.setattr(module, name, failing)
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
        nd._chol_of(nd.Array([[1.0, 1.0], [1.0, 1.0]]))

    train(tiny_config(steps=6, pool_size=3), moons_dataset(), sink=sink)
    assert [r["jitter_retries"] for r in records] == [0] * 6


def test_training_reduces_loss_on_moons():
    ds = moons_dataset(n=400)
    config = tiny_config(steps=150, batch_size=64, hidden=(16, 16),
                         ipc=5, log_interval=10)
    records = []
    out = train(config, ds, sink=records.append)
    assert records[-1]["loss"] < records[0]["loss"]
    assert out.images.shape == (10, 2)


def test_abort_on_non_finite_diagnostic():
    ds = moons_dataset()
    bad_x = ds.X.copy()
    bad_x[0, 0] = 1e308  # overflows inside the feature matmul
    from vbpc.data import Dataset
    bad = Dataset(X=bad_x, labels=ds.labels, k=ds.k, mean=ds.mean, std=ds.std)
    records = []
    with pytest.raises(TrainAbort):
        train(tiny_config(batch_size=120), bad, sink=records.append)
    assert records and records[-1]["event"] == "abort"


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
    import vbpc.trainer
    from vbpc.network import init_net
    ds = moons_dataset(n=200)
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=0)
    net = init_net((2, 8), 2, seed=0)
    net = net.replace_params([np.zeros_like(p) for p in net.params])
    monkeypatch.setattr(vbpc.trainer, "init_net", lambda *args: net)
    test = normalize_with(gen_synthetic("moons", n=100, k=2, noise=0.1, seed=9),
                          ds.mean, ds.std)
    out = evaluate_coreset(coreset, test.X, test.labels, widths=(2, 8),
                           tprime=0)
    assert abs(out["nll"] - math.log(2.0)) <= 0.05


def test_eval_deterministic_per_seed():
    ds = moons_dataset(n=200)
    coreset = init_coreset(ds, ipc=3, mode="sample", seed=0)
    test = normalize_with(gen_synthetic("moons", n=80, k=2, noise=0.1, seed=10),
                          ds.mean, ds.std)
    a = evaluate_coreset(coreset, test.X, test.labels, (2, 16), tprime=20, seed=4)
    b = evaluate_coreset(coreset, test.X, test.labels, (2, 16), tprime=20, seed=4)
    assert a == b


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
        evaluate_coreset(coreset, test.X, test.labels, (2, 8), tprime=0, seed=1)
    finally:
        trainer_mod.features = original
    assert calls.count(40) == 1


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
    images, labels = np.array(coreset.images), np.array(coreset.labels)
    state_x, state_y = AdamState.init([images]), AdamState.init([labels])
    for step in range(config.steps):
        lr = cosine_lr(step, config.steps, config.coreset_lr)
        batch = sampler.next()
        idx, net = pool_sample(pool, sample_rng)
        loss_images = images
        if config.noise_aug and config.noise_sigma != 0.0:
            loss_images = images + config.noise_sigma * noise_rng.standard_normal(images.shape)
        try:
            tape = nd.Tape()
            loss, breakdown = outer_loss(coreset.with_arrays(loss_images, labels),
                                         net, batch, dataset.n, hyper, tape)
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
    return coreset.with_arrays(images, labels)


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
    dict(pool_size=3, coreset_lr=1e300),    # aborts in step 0's pool update
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
    where = {"gaussian_step": [], "init_net": []}
    for name in where:
        real = getattr(network, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            where[_name].append(threading.get_ident())
            return _real(*args, **kwargs)

        monkeypatch.setattr(network, name, recording)
    config = TrainConfig(**{**PIPELINE, "pool_size": 2, "pool_period": 2})
    train(config, moons_dataset(n=400))
    assert len(where["gaussian_step"]) == config.steps
    assert len(where["init_net"]) > config.pool_size        # rotations happened
    assert set(where["gaussian_step"]) | set(where["init_net"]) == {threading.get_ident()}


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
