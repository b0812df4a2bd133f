"""Coreset training loop: batch sampling, pool rotation, adaptive updates.

Each step samples a data batch and a pool network, builds the stochastic
outer loss on a fresh tape (optionally with Gaussian noise added to the
coreset images; the pixels' only consumer is the loss, so augmentation
lives here), takes an Adam step on the coreset with a single-cycle cosine
schedule, and then gives the sampled pool slot one Gaussian-likelihood
update. Metrics records go to a sink callable and carry the number of
Cholesky factorizations the run needed the jitter retry for and a lower
bound on the condition number of the step's factored Gram system; a
non-finite value anywhere in a step aborts with a diagnostic record and
never returns a corrupted coreset.
"""

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import ndiff as nd
from .data import _check_class_sizes, init_coreset
from .network import (features, gaussian_step, init_net, pool_new,
                      pool_sample, pool_update)
from .objective import coreset_grad, outer_loss
from .optim import AdamState, adam_step, cosine_lr
from .posterior import Hyperparams, solve_posterior
from .predictive import metrics, predictive_moments, probit_log_softmax


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
    epochs; `size` is at most `dataset.n` (`_check_dataset`)."""

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
        return self.dataset.X[idx], self.dataset.onehot(idx)


def augment_noise(images, sigma, rng):
    """Additive Gaussian pixel noise; sigma = 0 is the identity path."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return images
    return images + sigma * rng.standard_normal(images.shape)


def train(config, dataset, sink=None):
    """Run the full training loop and return the learned coreset.

    `sink` receives one dict per log interval (and on step 0, the final
    step, and on abort). The returned coreset carries the resolved
    hyperparameters so evaluation reuses them.
    """
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

    images = np.array(coreset.images)
    labels = np.array(coreset.labels)
    state_x = AdamState.init([images])
    state_y = AdamState.init([labels])
    retries_before = nd.jitter_retries

    for step in range(config.steps):
        started = time.perf_counter()
        lr = cosine_lr(step, config.steps, config.coreset_lr)
        batch = sampler.next()
        idx, net = pool_sample(pool, sample_rng)
        loss_images = images
        if config.noise_aug:
            loss_images = augment_noise(images, config.noise_sigma, noise_rng)

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
            emit({"step": step, "event": "abort", "error": str(err),
                  "jitter_retries": nd.jitter_retries - retries_before})
            raise TrainAbort(f"non-finite value at step {step}: {err}") from err

        if (step % config.log_interval == 0) or step == config.steps - 1:
            emit({"step": step,
                  "loss": breakdown.total,
                  "lik": breakdown.likelihood_term,
                  "kl": breakdown.kl_term,
                  "lr": lr,
                  "jitter_retries": nd.jitter_retries - retries_before,
                  "cond_lb": breakdown.cond_lb,
                  "ms": (time.perf_counter() - started) * 1e3})

    return coreset.with_arrays(images, labels)


def evaluate_coreset(coreset, test_x, test_labels, widths, tprime=500, seed=0):
    """Variational inference and single-pass model averaging with a coreset.

    Trains a fresh network on the coreset with the Gaussian likelihood for
    `tprime` steps at the default pool rate, solves the posterior, and
    predicts the test split with one feature evaluation per input. Returns
    {"acc", "nll"}.
    """
    hyper = coreset.hyper
    net = init_net(widths, coreset.k, np.random.SeedSequence([seed, 0]))
    state = None
    for _ in range(tprime):
        net, state = gaussian_step(net, coreset.images, coreset.labels,
                                   hyper.gamma, TrainConfig.pool_lr, state=state)
    post = solve_posterior(features(net, coreset.images), coreset.labels, hyper)
    batch = predictive_moments(post, features(net, test_x))
    log_probs = probit_log_softmax(batch.mean, batch.variance)
    acc, nll = metrics(log_probs, test_labels)
    return {"acc": acc, "nll": nll}
