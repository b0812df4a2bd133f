"""Stochastic outer loss for coreset learning, and its gradient oracles.

The loss is -(n/|B|) sum_B sum_j y_ij [probit log softmax]_ij + beta_d * KL,
assembled entirely from tape primitives so one backward pass yields the
coreset gradients by direct differentiation through the closed-form inner
solution. Batch features enter as constants: the data and the pool network
are fixed for a coreset step, so gradients flow only into the coreset
leaves. The n/|B| rescaling applies to the likelihood term only; the KL is
unscaled.
"""

from dataclasses import dataclass

import numpy as np

from . import ndiff as nd
from . import network
from .data import PseudoCoreset
from .posterior import condition_lower_bound, solve_posterior, kl_to_prior
from .predictive import predictive_moments, probit_log_softmax

FD_COORD_LIMIT = 2000


@dataclass(frozen=True)
class OuterLossBreakdown:
    total: float
    likelihood_term: float
    kl_term: float
    cond_lb: float        # lower bound on cond of the factored Gram system
    jitter_retries: int   # 1 if factoring that system took the jitter retry


def outer_loss(coreset, net, batch, n_total, hyper, tape):
    """Build the stochastic outer loss on `tape`.

    coreset supplies images (nhat x d) and labels (nhat x k); batch is
    (X_b, Y_b) with one-hot Y_b. Registers the coreset leaves under the
    labels "images" / "labels" and returns (loss node, breakdown). With
    tape=None the coreset enters as constants and nothing is recorded.

    Both feature passes run through `net` itself, in its dtype, float32 for
    a pool slot, and reach the posterior as float64: the batch's through
    `network.features`, the coreset's on the tape through
    `network.features_graph`, which casts the image leaf to the net's dtype
    if it differs and the features up (`ndiff.cast`). The image gradient
    takes the leaf's dtype: float32 for the float32 images training keeps,
    float64 for float64 ones. The labels, their gradient and the posterior
    are float64.
    """
    x_b, y_b = batch
    if y_b.shape[0] == 0:
        raise ValueError("empty batch")
    images = nd.Array(coreset.images)
    labels = nd.Array(coreset.labels)
    if tape is not None:
        tape.leaf(images, label="images")
        tape.leaf(labels, label="labels")
    batch_phi = network.features(net, x_b)
    phi = network.features_graph(net, images)
    post = solve_posterior(phi, labels, hyper)
    try:
        moments = predictive_moments(post, batch_phi)
        log_probs = probit_log_softmax(moments.mean, moments.variance)
        picked = nd.inner(nd.constant(y_b), log_probs)
        likelihood = nd.scale(picked, -float(n_total) / y_b.shape[0])
        kl_term = nd.scale(kl_to_prior(post), hyper.beta_d)
        total = nd.add(likelihood, kl_term)
    except nd.NonFiniteError as err:
        err.retries = nd._retries_of(post.factor)
        raise
    return total, OuterLossBreakdown(total.item(), likelihood.item(),
                                     kl_term.item(), condition_lower_bound(post),
                                     nd._retries_of(post.factor))


def coreset_grad(loss, tape):
    """(grad images, grad labels) of a loss built by outer_loss."""
    grads = nd.backward(tape, loss)
    return (grads[tape.leaf_id("images")].data,
            grads[tape.leaf_id("labels")].data)


def loss_value(images, labels, net, batch, n_total, hyper):
    """Un-taped forward evaluation of the same loss (used by the oracle)."""
    coreset = PseudoCoreset(images, labels, ipc=0, hyper=hyper)
    return outer_loss(coreset, net, batch, n_total, hyper, None)[0].item()


def fd_grad_oracle(coreset, net, batch, n_total, hyper, eps=1e-5):
    """Central-difference gradient of the outer loss w.r.t. the coreset.

    Two forward evaluations per coordinate; guarded to tiny instances. The
    oracle shares only the forward loss definition with the taped path, not
    the adjoints it is checking.
    """
    images = np.array(coreset.images, dtype=np.float64)
    labels = np.array(coreset.labels, dtype=np.float64)
    if images.size + labels.size > FD_COORD_LIMIT:
        raise ValueError(
            f"instance too large for finite differences: "
            f"{images.size + labels.size} > {FD_COORD_LIMIT} coordinates")

    def central(target):
        grad = np.zeros_like(target)
        flat, gflat = target.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_value(images, labels, net, batch, n_total, hyper)
            flat[i] = orig - eps
            down = loss_value(images, labels, net, batch, n_total, hyper)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        return grad

    return central(images), central(labels)
