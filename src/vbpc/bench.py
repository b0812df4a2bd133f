"""Naive (dense h x h) vs efficient loss evaluation: time and tracked memory.

The efficient mode calls `outer_loss`, the loss training differentiates
(tape included), with the identity feature map on a random instance. The
naive mode materializes the shared covariance through the primal h x h
inverse, takes its log-determinant and trace directly, and computes
predictive variances through the dense matrix. Both paths flow
through the tracked array layer, so peak live float64 elements are
comparable evidence.
"""

import math
import time

import numpy as np

from . import ndiff as nd
from . import network
from .data import PseudoCoreset
from .objective import outer_loss
from .posterior import Hyperparams
from .predictive import probit_log_softmax

NAIVE_H_LIMIT = 8192
BATCH = 128
N_TOTAL = 50 * BATCH
K = 10          # classes


def _instance(h, nhat, k, batch, seed):
    rng = np.random.default_rng(seed)
    phi_hat = rng.standard_normal((nhat, h)) / math.sqrt(h)
    labels = rng.standard_normal((nhat, k))
    phi_b = rng.standard_normal((batch, h)) / math.sqrt(h)
    y_b = np.eye(k)[rng.integers(0, k, batch)]
    hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=float(nhat), beta_d=1e-8)
    return phi_hat, labels, phi_b, y_b, hyper


def efficient_loss(phi_hat, labels, phi_b, y_b, n_total, hyper):
    """The training loss: outer_loss with the identity feature map."""
    net = network.init_net((phi_hat.shape[1],), y_b.shape[1], seed=0)
    coreset = PseudoCoreset(phi_hat, labels, ipc=0, hyper=hyper)
    loss, _ = outer_loss(coreset, net, (phi_b, y_b), n_total, hyper, nd.Tape())
    return loss.item()


def naive_loss(phi_hat, labels, phi_b, y_b, n_total, hyper):
    """Dense route: V* materialized via the primal h x h system."""
    h = phi_hat.shape[1]
    k = y_b.shape[1]
    g = hyper.gamma / hyper.beta_s
    phi = nd.Array(phi_hat)
    lab = nd.Array(labels)
    eye_h = nd.eye(h)
    primal = nd.add(nd.scale(eye_h, hyper.rho),
                    nd.scale(nd.matmul(phi, phi, trans_a=True), g))
    # V* = primal^{-1} = W^T W for the cached W = L^{-1} (one syrk), h x h
    v_star = nd.Array._wrap(nd._inverse(nd._chol_of(primal)))
    means = nd.scale(nd.matmul(v_star, nd.matmul(phi, lab, trans_a=True)), g)

    logdet_v = -float(nd.logdet_trinv_spd(primal).data[0, 0])
    trace_v = float(np.trace(v_star.data))
    msq = nd.inner(means, means).item()
    kl = 0.5 * (k * (-h * math.log(hyper.rho) - logdet_v) - k * h
                + k * hyper.rho * trace_v + hyper.rho * msq)

    bphi = nd.Array(phi_b)
    mean_te = nd.matmul(bphi, means)
    spread = nd.matmul(bphi, v_star)
    variance = nd.inner(spread, bphi, axis=1)
    log_probs = probit_log_softmax(mean_te, variance)
    picked = float((y_b * log_probs.data).sum())
    likelihood = -(n_total / y_b.shape[0]) * picked
    return likelihood + hyper.beta_d * kl


def run_bench(h, nhat, mode, reps=3, seed=0):
    """Time the loss evaluation and report tracked allocation peaks.

    Returns {"mode", "h", "nhat", "peak_f64", "largest_block",
    "ms_per_100", "loss"}; ms_per_100 extrapolates mean wall time per
    evaluation.
    """
    if mode not in ("naive", "efficient"):
        raise ValueError(f"unknown bench mode {mode!r}")
    if mode == "naive" and h > NAIVE_H_LIMIT:
        raise ValueError(f"naive mode refuses h={h} > {NAIVE_H_LIMIT}")
    for name, size in (("h", h), ("nhat", nhat), ("reps", reps)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    phi_hat, labels, phi_b, y_b, hyper = _instance(h, nhat, K, BATCH, seed)
    evaluate = efficient_loss if mode == "efficient" else naive_loss

    loss = evaluate(phi_hat, labels, phi_b, y_b, N_TOTAL, hyper)  # warmup
    with nd.track_allocations() as window:
        started = time.perf_counter()
        for _ in range(reps):
            evaluate(phi_hat, labels, phi_b, y_b, N_TOTAL, hyper)
        elapsed = time.perf_counter() - started
    return {"mode": mode,
            "h": h,
            "nhat": nhat,
            "peak_f64": int(window.peak),
            "largest_block": int(window.largest_block),
            "ms_per_100": 100.0 * (elapsed / reps) * 1e3,
            "loss": loss}
