"""Coreset training loop: batch sampling, pool rotation, adaptive updates.

Each step samples a data batch and a pool network, builds the stochastic
outer loss on a fresh tape (optionally with Gaussian noise added to the
coreset images; the pixels' only consumer is the loss, so augmentation
lives here), takes an Adam step on the coreset with a single-cycle cosine
schedule, and then gives the sampled pool slot one Gaussian-likelihood
update. Metrics records go to a sink callable and carry the number of
the run's own Cholesky factorizations, up to this step, that needed the
jitter retry, and a lower bound on the condition number of the step's
factored Gram system; a non-finite value anywhere in a step aborts with a
diagnostic record and never returns a corrupted coreset.

The pixels train in float32, the dtype of the pool slots that read them:
the images are cast once on entry (`network._read_only`, which refuses a
value beyond float32's range), and their Adam moments, their noise and
their gradient are float32, so a step's coreset pass makes one cast, its
features up to the float64 posterior. The labels keep float64, with a
float64 Adam state of their own. `train` returns the images upcast to
float64, exactly, so what is saved and evaluated is a float64 coreset.

The loop is a two-stage pipeline. Step t's pool update needs the coreset
that step t's Adam made, and step t+1's coreset step (outer loss, backward,
the coreset's Adam step) needs that coreset and the network of the slot it
samples. So, unless step t+1 samples the slot step t updates, the two are
independent. Every iteration t+1 is one `_twocore._halves` call: the
calling thread runs step t's pool update, if it is still pending, then
draws step t+2's batch (its rows read, standardized and rounded to float32)
and the standard-normal draw for its noise, while the worker runs the
coreset step, which reads its slot's net when it runs. When the slots are
the same, the update runs first, alone, and the calling thread's half only
draws; the last step's update runs after the loop. Every op gets the inputs
it gets in the serial order, and each random stream (batches, slots, noise)
is drawn in its own order, so the records (bar `ms`) and the coreset are
bit-identical to the serial loop's on any number of cores. A step's record
is emitted once its pool update is done, with the retries of the steps up
to it, summed in step order; a failure in step t's pool update aborts at
step t even when step t+1's coreset step failed too. `ms` is the wall time
from the previous step's record to this one's. The pool update stays on the
calling thread: it allocates the parameter-sized buffers, and glibc keeps
the buffers a thread frees in that thread's own arena.
"""

import ctypes
import functools
import math
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _twocore, ndiff as nd, network
from .data import Dataset, _check_class_sizes, init_coreset
from .network import (features, gaussian_step, pool_new, pool_sample,
                      pool_update)
from .objective import coreset_grad, outer_loss
from .optim import AdamState, adam_step, cosine_lr
from .posterior import Hyperparams, condition_lower_bound, solve_posterior
from .predictive import (log_predictive, metrics, predictive_moments,  # noqa: F401
                         probit_log_softmax)  # the last two for perfbench's tracer

# Test rows per prediction chunk: whole float32 registers (16 lanes), as
# `_twocore._product` cuts, and >= 1024, so its products reach SPLIT_WORK
EVAL_CHUNK = 2048


class TrainAbort(Exception):
    """Raised when a step produces a non-finite value."""


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 5000
    batch_size: int = 256
    ipc: int = 10
    hidden: tuple = (64, 64)
    rho: float = 1.0
    gamma: float = 100.0
    beta_s: float | None = None        # None resolves to nhat
    beta_d: float = 1e-8
    coreset_lr: float = 0.003
    pool_lr: float = 0.0003
    pool_size: int = 10
    pool_period: int = 100
    noise_sigma: float = 0.1
    noise_aug: bool = True
    learn_labels: bool = True
    init_mode: str = "sample"
    seed_data: int = 0
    seed_pool: int = 1
    seed_noise: int = 2
    seed_init: int = 3
    log_interval: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.steps < 1 or self.batch_size < 1 or self.ipc < 1:
            raise ValueError("steps, batch_size and ipc must be >= 1")
        if self.log_interval < 1:
            raise ValueError("log_interval must be >= 1")
        for name in ("seed_data", "seed_pool", "seed_noise", "seed_init"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if any(w < 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        # an unset beta_s resolves to nhat later; 1.0 stands in for it here
        Hyperparams(rho=self.rho, gamma=self.gamma,
                    beta_s=1.0 if self.beta_s is None else self.beta_s,
                    beta_d=self.beta_d)
        # coreset_lr = 0 is allowed as the do-nothing step used in tests
        if self.coreset_lr < 0 or self.pool_lr <= 0:
            raise ValueError("coreset lr must be >= 0, pool lr > 0")
        if self.pool_size < 1 or self.pool_period < 1:
            raise ValueError("pool_size and pool_period must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.init_mode not in ("sample", "uniform"):
            raise ValueError(f"unknown init mode {self.init_mode!r}")

    def resolve_beta_s(self, k):
        if self.beta_s is not None:
            return self
        return replace(self, beta_s=float(self.ipc * k))

    def hyperparams(self):
        if self.beta_s is None:
            raise ValueError("beta_s unresolved; call resolve_beta_s first")
        return Hyperparams(rho=self.rho, gamma=self.gamma, beta_s=self.beta_s,
                           beta_d=self.beta_d)


def _check_dataset(config, dataset):
    """Raise ValueError when `dataset` cannot feed a run of `config`. `train`
    and `vbpc train` both call it, the command before it writes anything."""
    if config.init_mode == "sample":
        _check_class_sizes(dataset, config.ipc)
    if config.batch_size > dataset.n:
        raise ValueError(f"batch size {config.batch_size} exceeds dataset "
                         f"size {dataset.n}")


class BatchSampler:
    """Without-replacement batches within an epoch, reshuffled between
    epochs; `size` is at most `dataset.n` (`_check_dataset`). A batch's rows
    come in the pool slots' float32 (`Dataset.rows`, which refuses a row
    beyond float32's range), so no float64 block of them is made."""

    def __init__(self, dataset, size, seed):
        self.dataset = dataset
        self.size = size
        self.rng = np.random.default_rng(seed)
        self._order = self.rng.permutation(dataset.n)
        self._cursor = 0

    def next(self):
        if self._cursor >= self.dataset.n:
            self._order = self.rng.permutation(self.dataset.n)
            self._cursor = 0
        idx = self._order[self._cursor:self._cursor + self.size]
        self._cursor += len(idx)
        return self.dataset.rows(idx, dtype=np.float32), self.dataset.onehot(idx)


def _draw_noise(shape, dtype, sigma, rng):
    """sigma times a fresh float32 standard-normal draw
    (`network._standard_normal`), scaled in `dtype`, float32 or float64, in
    a buffer of its own; None, with nothing drawn, at sigma = 0. A float64
    draw is the float32 one upcast exactly."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return None
    noise = network._standard_normal(rng, np.empty(shape, np.float32))
    noise = noise.astype(dtype, copy=False)
    noise *= sigma
    return noise


def _add_noise(images, noise):
    """images + noise in the noise's buffer, made read-only; images
    themselves when the noise is None."""
    if noise is None:
        return images
    noisy = np.add(images, noise, out=noise)
    noisy.flags.writeable = False
    return noisy


def augment_noise(images, sigma, rng):
    """Additive Gaussian pixel noise, float32 normals scaled by sigma in the
    images' dtype (`_draw_noise`), in a fresh read-only buffer; sigma = 0 is
    the identity path."""
    return _add_noise(images, _draw_noise(images.shape, images.dtype, sigma, rng))


class _Step:
    """A training step from its coreset step to its record: its slot's
    index, the coreset its Adam step made, and what the record reports."""

    def __init__(self, number, lr, idx, images, labels):
        self.number, self.lr, self.idx = number, lr, idx
        self.images, self.labels = images, labels
        self.breakdown = None
        self.error = None


def _release_freed_memory():
    """Hand the heap pages freed so far back to the operating system. glibc
    keeps them resident until `malloc_trim`; other C libraries lack the call,
    and this does nothing there."""
    if os.name != "posix":
        return
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


def train(config, dataset, sink=None):
    """Run the full training loop and return the learned coreset.

    `sink` receives one dict per log interval (and on step 0, the final
    step, and on abort), each once that step's pool update is done. The
    returned coreset carries the resolved hyperparameters so evaluation
    reuses them, and its images upcast, exactly, from the float32 they
    train in, so it is float64 like any other coreset. The pool and the
    loop's buffers are freed on return, and their heap pages go back to the
    operating system: glibc would keep them resident, under whatever the
    caller allocates next.
    """
    try:
        return _train(config, dataset, sink)
    finally:
        _release_freed_memory()


def _train(config, dataset, sink):
    """The loop of `train`; its pool and buffers die when it returns."""
    emit = sink if sink is not None else (lambda record: None)
    _check_dataset(config, dataset)
    config = config.resolve_beta_s(dataset.k)
    hyper = config.hyperparams()
    coreset = init_coreset(dataset, config.ipc, config.init_mode,
                           config.seed_init, hyper=hyper)
    widths = (dataset.d, *config.hidden)
    pool = pool_new(config.pool_size, widths, dataset.k, config.seed_pool,
                    config.pool_period)
    sample_rng = np.random.default_rng(np.random.SeedSequence([config.seed_pool, 1]))
    noise_rng = np.random.default_rng(config.seed_noise)
    sampler = BatchSampler(dataset, config.batch_size, config.seed_data)

    # the pixels train in float32, the labels in float64, each with the
    # Adam state of its dtype
    images = network._read_only(coreset.images, np.float32, "coreset images")
    labels = np.array(coreset.labels)
    image_state = AdamState.init([images])
    label_state = AdamState.init([labels])
    retries = 0         # of the steps settled so far
    sigma = config.noise_sigma if config.noise_aug else 0.0
    ahead = []          # the batch and noise of the next step, drawn ahead
    last = time.perf_counter()

    def coreset_step(step, batch, noise):
        """Outer loss through its slot's net, backward and the coreset's Adam
        step; replaces the step's coreset with the one it makes."""
        try:
            if isinstance(batch, nd.NonFiniteError):
                raise batch
            # the noisy images are read-only, so the tape adopts them
            loss_images = _add_noise(step.images, noise)
            tape = nd.Tape()
            loss, step.breakdown = outer_loss(
                coreset.with_arrays(loss_images, step.labels),
                pool.slots[step.idx].net, batch, dataset.n, hyper, tape)
            grad_x, grad_y = coreset_grad(loss, tape)
            _, (step.images,) = adam_step(image_state, [step.images], [grad_x],
                                          step.lr)
            if config.learn_labels:
                _, (step.labels,) = adam_step(label_state, [step.labels],
                                              [grad_y], step.lr)
        except Exception as err:    # raised by `settle`, in step order
            step.error = err

    def pool_step(step):
        """The pool update of `step`, from the coreset its Adam step made."""
        try:
            pool_update(pool, step.idx, step.images, step.labels, hyper.gamma,
                        config.pool_lr)
        except Exception as err:
            step.error = err

    def draw(number):
        """The batch and the noise of step `number`, if the run has such a
        step; the noise is None when the run adds none. A batch row beyond
        float32's range stands in for the batch as its NonFiniteError, which
        aborts step `number` in its coreset step."""
        if number < config.steps:
            try:
                batch = sampler.next()
            except nd.NonFiniteError as err:
                batch = err
            ahead.append((batch,
                          _draw_noise(images.shape, images.dtype, sigma, noise_rng)))

    def settle(step):
        """Report `step`, whose pool update is done, or raise its error: a
        non-finite value aborts with a record."""
        nonlocal last, retries
        if step.error is not None and not isinstance(step.error, nd.NonFiniteError):
            raise step.error
        # with no breakdown, the error is outer_loss's and counts its retries
        retries += (step.error.retries if step.breakdown is None
                    else step.breakdown.jitter_retries)
        if step.error is not None:
            emit({"step": step.number, "event": "abort", "error": str(step.error),
                  "jitter_retries": retries})
            raise TrainAbort(f"non-finite value at step {step.number}: "
                             f"{step.error}") from step.error
        now = time.perf_counter()
        if step.number % config.log_interval == 0 or step.number == config.steps - 1:
            emit({"step": step.number,
                  "loss": step.breakdown.total,
                  "lik": step.breakdown.likelihood_term,
                  "kl": step.breakdown.kl_term,
                  "lr": step.lr,
                  "jitter_retries": retries,
                  "cond_lb": step.breakdown.cond_lb,
                  "ms": (now - last) * 1e3})
        last = now

    draw(0)
    pending = None      # the step whose pool update has not run yet
    for number in range(config.steps):
        lr = cosine_lr(number, config.steps, config.coreset_lr)
        batch, noise = ahead.pop()
        step = _Step(number, lr, pool_sample(pool, sample_rng), images, labels)
        if pending is not None and pending.idx == step.idx:
            pool_step(pending)      # this slot's update first, alone
            settle(pending)
            pending = None

        def caller_side():
            if pending is not None:
                pool_step(pending)
            draw(number + 1)

        _twocore._halves(caller_side,
                         lambda: coreset_step(step, batch, noise))
        if pending is not None:
            settle(pending)
        if step.error is not None:
            settle(step)
        images, labels = step.images, step.labels
        pending = step
    pool_step(pending)
    settle(pending)
    return coreset.with_arrays(network._read_only(images, np.float64, "coreset images"),
                               labels)


def evaluate_coreset(coreset, test_x, test_labels, widths, tprime=500, seed=0):
    """Variational inference and single-pass model averaging with a coreset.

    Trains a fresh network on the coreset with the Gaussian likelihood for
    `tprime` steps at the default pool rate, solves the posterior, and
    predicts the test split, an n x d array or a `Dataset`, EVAL_CHUNK rows
    at a time (`predictive.log_predictive`, one feature evaluation per
    input), so no copy of the whole split is made. Returns
    {"acc", "nll", "cond_lb", "jitter_retries"}: the last two report the
    health of the posterior's factored system, as the training records do.

    The network runs in float32: it is drawn as a pool slot is
    (`network._draw_nets`), the coreset's images are cast once
    (`network._read_only`, which refuses a value beyond float32's range),
    and its Gaussian steps and both feature passes run at sgemm's rate.
    `network.features` hands the coreset and test features to the
    posterior and the predictive moments as float64. When it returns,
    the heap pages its buffers held go back to the operating system, as
    after `train`.
    """
    if tprime < 0:
        raise ValueError(f"tprime must be >= 0, got {tprime}")
    try:
        return _evaluate(coreset, test_x, test_labels, widths, tprime, seed)
    finally:
        _release_freed_memory()


def _evaluate(coreset, test_x, test_labels, widths, tprime, seed):
    """The body of `evaluate_coreset`; its buffers die when it returns."""
    hyper = coreset.hyper
    net, = network._draw_nets(widths, coreset.k, [np.random.SeedSequence([seed, 0])],
                              np.float32)
    # one cast: the Gaussian steps adopt it and the posterior's features read it
    images = network._read_only(coreset.images, np.float32, "coreset images")
    state = None
    for _ in range(tprime):
        net, state = gaussian_step(net, images, coreset.labels, hyper.gamma,
                                   TrainConfig.pool_lr, state=state)
    del state       # the fit's float32 moments, a net's size twice over
    post = solve_posterior(features(net, images), coreset.labels, hyper)
    if isinstance(test_x, Dataset):     # in the net's float32, never whole in float64
        read = functools.partial(test_x.rows, dtype=np.float32)
    else:
        read = np.asarray(test_x).__getitem__
    log_probs = np.empty((len(test_x), coreset.k))
    for lo in range(0, len(test_x), EVAL_CHUNK):
        chunk = slice(lo, lo + EVAL_CHUNK)
        log_probs[chunk] = log_predictive(post, features(net, read(chunk))).data
    acc, nll = metrics(log_probs, test_labels)
    return {"acc": acc, "nll": nll, "cond_lb": condition_lower_bound(post),
            "jitter_retries": nd._retries_of(post.factor)}
