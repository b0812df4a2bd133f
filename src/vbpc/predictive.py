"""Predictive moments, probit-approximate expected log-softmax, and
single-forward-pass Bayesian model averaging.

For a test feature phi the logits are Gaussian with mean phi^T m_j and one
shared scalar variance per input. The expected log-softmax under that
Gaussian is approximated by

    log softmax( mean / sqrt(1 + (pi/8) * variance) ),

which is exact at zero variance; the tape primitive
`ndiff.probit_log_softmax` holds the whole rule. A seeded Monte Carlo
estimator of the same expectation serves as the test oracle.
"""

from typing import NamedTuple

import numpy as np

from . import _twocore, ndiff as nd

# Samples per chunk of the Monte Carlo oracle
MC_CHUNK = 100_000


class PredictiveBatch(NamedTuple):
    """Per-input logit means (n x k) and shared scalar variances (n x 1),
    not yet clamped for round-off."""

    mean: nd.Array
    variance: nd.Array


def predictive_moments(p, phi_batch):
    """Gaussian predictive moments for a feature batch (n x h).

    mean = Phi_b @ M. The variance reads the posterior's factor W = L^{-1}
    of S = L L^T with one product with W^T for the batch: on the h side
    V* = rho^{-1} W^T W, so variance_i = ||phi_i W^T||^2 / rho, a sum of
    squares; on the nhat side variance_i = ||phi_i||^2 / rho -
    gamma/(rho^2 beta_s) ||(phi_i Phi^T) W^T||^2. W, Phi and the batch are
    read transposed through views, and no h x h buffer appears on the nhat
    side.
    Differentiable through the posterior; work on the batch features alone
    is constant, so it records nothing. The variance is not clamped here:
    round-off may leave it slightly negative, and `ndiff.probit_log_softmax`,
    which every consumer passes it through, checks and clamps it once.
    """
    hyper = p.hyper
    phi_batch = nd.constant(phi_batch)
    mean = nd.matmul(phi_batch, p.means)

    if p.weight_space:
        z = nd.matmul(phi_batch, p.factor, trans_b=True)                # n x h
        variance = nd.scale(nd.inner(z, z, axis=1), 1.0 / hyper.rho)
    else:
        # Phi phi_b^T, nhat x n: cut in halves through its n columns
        cross = nd.matmul(p.phi, phi_batch, trans_b=True)
        z = nd.matmul(cross, p.factor, trans_a=True, trans_b=True)      # n x nhat
        norms = nd.inner(phi_batch, phi_batch, axis=1)
        variance = nd.add(nd.scale(norms, 1.0 / hyper.rho),
                          nd.scale(nd.inner(z, z, axis=1), -hyper.variance_scale))
    return PredictiveBatch(mean, variance)


def probit_log_softmax(mean, variance):
    """Probit-scaled expected log-softmax, row-wise, of numpy or Array
    operands: mean n x k, variance n x 1. Row i is
    log softmax(mean_i / sqrt(1 + (pi/8) * variance_i)); the primitive
    `ndiff.probit_log_softmax` checks, clamps and scales the variance.
    """
    return nd.probit_log_softmax(nd.constant(mean), nd.constant(variance))


def mc_log_softmax(mean, variance, samples, seed, return_stderr=False):
    """Monte Carlo estimate of E[log softmax(z)], z ~ N(mean, variance I_k).

    mean is a k-vector, variance a scalar. Deterministic for a fixed seed;
    chunked so 1e6-sample runs stay cheap on memory. This is the oracle the
    probit approximation is validated against. Chunk i+1 is drawn here
    while the worker of `_twocore._halves` reduces chunk i, into buffers
    reused from chunk to chunk; the draws keep their order, so the estimate
    does not depend on the number of cores.
    """
    mean = np.asarray(mean, dtype=np.float64).ravel()
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    sd = np.sqrt(variance)
    k = mean.size
    total = np.zeros(k)
    total_sq = np.zeros(k)
    rows = min(MC_CHUNK, samples)
    draws = (np.empty((rows, k)), np.empty((rows, k)))
    work, row, col = np.empty((rows, k)), np.empty((rows, 1)), np.empty(k)

    def reduce(z):
        """Add the log-softmax of mean + sd * z, and its square, to the
        running sums; z is overwritten."""
        n = z.shape[0]
        e, s = work[:n], row[:n]
        np.multiply(z, sd, out=z)
        np.add(z, mean, out=z)
        np.max(z, axis=1, keepdims=True, out=s)
        np.subtract(z, s, out=z)
        np.exp(z, out=e)
        np.sum(e, axis=1, keepdims=True, out=s)
        np.log(s, out=s)
        np.subtract(z, s, out=z)
        np.add(total, np.sum(z, axis=0, out=col), out=total)
        np.square(z, out=e)
        np.add(total_sq, np.sum(e, axis=0, out=col), out=total_sq)

    z = rng.standard_normal(out=draws[0])
    done, chunk = rows, 1
    while done < samples:
        n = min(MC_CHUNK, samples - done)
        nxt = draws[chunk % 2][:n]
        _twocore._halves(lambda: rng.standard_normal(out=nxt), lambda: reduce(z))
        z, done, chunk = nxt, done + n, chunk + 1
    reduce(z)
    est = total / samples
    if not return_stderr:
        return est
    var = np.maximum(total_sq / samples - est ** 2, 0.0)
    return est, np.sqrt(var / samples)


def log_predictive(p, phi):
    """The model average: the probit rule on the predictive moments of test
    features phi (n x h), as per-row class log-probabilities (an n x k Array).
    One feature evaluation per input, as the moments read the posterior."""
    batch = predictive_moments(p, phi)
    return probit_log_softmax(batch.mean, batch.variance)


def bma_predict(p, phi_test):
    """Model-averaged class probabilities for test features (n x k numpy):
    `log_predictive`, exponentiated."""
    return np.exp(log_predictive(p, phi_test).data)


def metrics(log_probs, labels):
    """(accuracy, mean negative log-likelihood) for row log-distributions
    and one integer class id per row. Argmax ties resolve to the lowest
    class index.
    """
    logp = np.asarray(log_probs)
    idx = np.asarray(labels).astype(np.int64)
    if idx.ndim != 1:
        raise ValueError(f"labels are class ids, one per row; got shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= logp.shape[1]:
        raise ValueError("label index out of range")
    acc = float((logp.argmax(axis=1) == idx).mean())
    nll = float(-logp[np.arange(logp.shape[0]), idx].mean())
    return acc, nll
