"""Predictive moments, probit-approximate expected log-softmax, and
single-forward-pass Bayesian model averaging.

For a test feature phi the logits are Gaussian with mean phi^T m_j and one
shared scalar variance per input. The expected log-softmax under that
Gaussian is approximated by

    log softmax( mean / sqrt(1 + alpha * variance) ),   alpha = pi/8,

which is exact at zero variance. A seeded Monte Carlo estimator of the same
expectation serves as the test oracle.
"""

import math

import numpy as np

from . import ndiff as nd

ALPHA_PROBIT = math.pi / 8
VARIANCE_CLAMP = -1e-12


class PredictiveBatch:
    """Per-input logit means (n x k) and shared scalar variances (n x 1),
    not yet clamped for round-off."""

    def __init__(self, mean, variance):
        self.mean = mean
        self.variance = variance


def predictive_moments(p, phi_batch):
    """Gaussian predictive moments for a feature batch (n x h).

    mean = Phi_b @ M. The variance reads the posterior's factored system
    S = L L^T with one triangular solve for the batch:
    on the h side V* = rho^{-1} S^{-1}, so variance_i = ||L^{-1} phi_i^T||^2
    / rho, a sum of squares; on the nhat side variance_i = ||phi_i||^2 / rho
    - gamma/(rho^2 beta_s) ||L^{-1} Phi phi_i^T||^2. The batch is read
    transposed through a view, and no h x h buffer appears on the nhat side.
    Differentiable through the posterior; work on the batch features alone
    is constant, so it records nothing. The variance is not clamped here:
    round-off may leave it slightly negative, and `probit_log_softmax`,
    which every consumer passes it through, checks and clamps it once.
    """
    hyper = p.hyper
    phi_batch = nd.constant(phi_batch)
    if phi_batch.shape[1] != p.phi.shape[1]:
        raise nd.ShapeError(
            f"feature dim {phi_batch.shape[1]} != posterior dim {p.phi.shape[1]}")
    mean = nd.matmul(phi_batch, p.means)

    if p.weight_space:
        quad = nd.inv_quad_spd(p.system, phi_batch, rows=True)          # n x 1
        variance = nd.scale(quad, 1.0 / hyper.rho)
    else:
        cross = nd.matmul(p.phi, phi_batch, trans_b=True)               # nhat x n
        quad = nd.inv_quad_spd(p.system, cross)
        norms = nd.sum(nd.hadamard(phi_batch, phi_batch), axis=1)
        variance = nd.sub(nd.scale(norms, 1.0 / hyper.rho),
                          nd.scale(quad, hyper.variance_scale))
    return PredictiveBatch(mean, variance)


def probit_log_softmax(mean, variance):
    """Probit-scaled expected log-softmax, row-wise.

    mean: n x k, variance: n x 1 with entries >= 0; round-off negativity
    down to VARIANCE_CLAMP is clamped to zero, anything below raises.
    Row i is log softmax(mean_i / sqrt(1 + (pi/8) * variance_i)).
    """
    mean = nd.constant(mean)
    variance = nd.constant(variance)
    if variance.shape != (mean.shape[0], 1):
        raise nd.ShapeError(f"variance shape {variance.shape} for mean {mean.shape}")
    if float(variance.data.min()) < VARIANCE_CLAMP:
        raise ValueError(
            f"negative predictive variance {variance.data.min():.3e} beyond "
            f"round-off clamp; the posterior solve is broken")
    scaling = nd.rsqrt_shift(nd.relu(variance), alpha=ALPHA_PROBIT)
    return nd.row_log_softmax(nd.hadamard(mean, scaling))


def mc_log_softmax(mean, variance, samples, seed, return_stderr=False):
    """Monte Carlo estimate of E[log softmax(z)], z ~ N(mean, variance I_k).

    mean is a k-vector, variance a scalar. Deterministic for a fixed seed;
    chunked so 1e6-sample runs stay cheap on memory. This is the oracle the
    probit approximation is validated against.
    """
    mean = np.asarray(mean, dtype=np.float64).ravel()
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    sd = np.sqrt(variance)
    k = mean.size
    total = np.zeros(k)
    total_sq = np.zeros(k)
    done = 0
    while done < samples:
        m = min(100_000, samples - done)
        z = mean + sd * rng.standard_normal((m, k))
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        total += logp.sum(axis=0)
        total_sq += (logp ** 2).sum(axis=0)
        done += m
    est = total / samples
    if not return_stderr:
        return est
    var = np.maximum(total_sq / samples - est ** 2, 0.0)
    return est, np.sqrt(var / samples)


def bma_predict(p, phi_test):
    """Model-averaged class probabilities for test features (n x k numpy).

    Softmax of the probit-scaled predictive means; needs exactly one feature
    evaluation per input since the moments come from the stored posterior.
    """
    batch = predictive_moments(p, phi_test)
    logp = probit_log_softmax(batch.mean, batch.variance)
    return np.exp(logp.data)


def metrics(log_probs, labels):
    """(accuracy, mean negative log-likelihood) for row log-distributions.

    labels may be integer class ids or one-hot rows. Argmax ties resolve to
    the lowest class index.
    """
    logp = log_probs.data if isinstance(log_probs, nd.Array) else np.asarray(log_probs)
    labels = np.asarray(labels)
    idx = labels.argmax(axis=1) if labels.ndim == 2 else labels.astype(np.int64)
    if idx.min() < 0 or idx.max() >= logp.shape[1]:
        raise ValueError("label index out of range")
    acc = float((logp.argmax(axis=1) == idx).mean())
    nll = float(-logp[np.arange(logp.shape[0]), idx].mean())
    return acc, nll
