"""Outer loss assembly, coreset gradients vs finite differences."""

import math

import numpy as np
import pytest
import scipy.linalg

from vbpc import ndiff as nd
from vbpc import network
from vbpc.data import PseudoCoreset
from vbpc.objective import outer_loss, coreset_grad, fd_grad_oracle
from vbpc.posterior import Hyperparams, solve_posterior, kl_to_prior
from vbpc.predictive import predictive_moments, probit_log_softmax


def make_instance(rng, nhat=4, d=3, h=6, k=3, batch=8, beta_d=1e-8,
                  gamma=100.0):
    hyper = Hyperparams(rho=1.0, gamma=gamma, beta_s=float(nhat), beta_d=beta_d)
    net = network.init_net((d, h), k, seed=rng.integers(1 << 31))
    coreset = PseudoCoreset(images=rng.standard_normal((nhat, d)),
                            labels=rng.standard_normal((nhat, k)),
                            ipc=1, hyper=hyper)
    x_b = rng.standard_normal((batch, d))
    y_b = np.eye(k)[rng.integers(0, k, batch)]
    return coreset, net, (x_b, y_b), hyper


def zero_net(d, h, k):
    net = network.init_net((d, h), k, seed=0)
    return net.replace_params([np.zeros_like(p) for p in net.params])


# ---------------------------------------------------------------------------
# loss values
# ---------------------------------------------------------------------------

def test_prior_coreset_uniform_likelihood():
    # zero features and labels: predictive is uniform, KL exactly zero
    k, n_total = 3, 40
    hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=4.0, beta_d=1e-8)
    coreset = PseudoCoreset(images=np.zeros((4, 2)), labels=np.zeros((4, k)),
                            ipc=1, hyper=hyper)
    net = zero_net(2, 5, k)
    rng = np.random.default_rng(0)
    batch = (rng.standard_normal((8, 2)), np.eye(k)[rng.integers(0, k, 8)])
    tape = nd.Tape()
    _, breakdown = outer_loss(coreset, net, batch, n_total, hyper, tape)
    assert math.isclose(breakdown.likelihood_term, n_total * math.log(k),
                        rel_tol=1e-12)
    assert breakdown.kl_term == 0.0


def test_beta_d_zero_switches_off_kl():
    rng = np.random.default_rng(1)
    coreset, net, batch, hyper = make_instance(rng, beta_d=0.0)
    tape = nd.Tape()
    _, breakdown = outer_loss(coreset, net, batch, 16, hyper, tape)
    assert breakdown.kl_term == 0.0
    assert breakdown.total == breakdown.likelihood_term


def test_breakdown_sums_to_total():
    rng = np.random.default_rng(2)
    coreset, net, batch, hyper = make_instance(rng, beta_d=0.3)
    tape = nd.Tape()
    _, b = outer_loss(coreset, net, batch, 16, hyper, tape)
    assert math.isclose(b.total, b.likelihood_term + b.kl_term, rel_tol=1e-12)


def test_total_matches_module_recomposition():
    # independent recomposition from posterior/predictive module outputs
    rng = np.random.default_rng(3)
    coreset, net, batch, hyper = make_instance(rng, beta_d=1e-3)
    n_total = 24
    tape = nd.Tape()
    _, b = outer_loss(coreset, net, batch, n_total, hyper, tape)

    phi = network.features(net, coreset.images)
    post = solve_posterior(phi, coreset.labels, hyper)
    pred = predictive_moments(post, network.features(net, batch[0]))
    logp = probit_log_softmax(pred.mean, pred.variance)
    lik = -(n_total / batch[1].shape[0]) * float((batch[1] * logp.data).sum())
    total = lik + hyper.beta_d * kl_to_prior(post).item()
    assert math.isclose(b.total, total, rel_tol=1e-12)


def test_empty_batch_rejected():
    rng = np.random.default_rng(4)
    coreset, net, _, hyper = make_instance(rng)
    with pytest.raises(ValueError):
        outer_loss(coreset, net, (np.zeros((0, 3)), np.zeros((0, 3))), 8,
                   hyper, nd.Tape())


def test_batch_scaling_consistency():
    # |B| = n makes the stochastic loss the plain full-dataset loss
    rng = np.random.default_rng(5)
    coreset, net, batch, hyper = make_instance(rng, batch=8)
    tape = nd.Tape()
    _, b = outer_loss(coreset, net, batch, 8, hyper, tape)

    phi = network.features(net, coreset.images)
    post = solve_posterior(phi, coreset.labels, hyper)
    pred = predictive_moments(post, network.features(net, batch[0]))
    logp = probit_log_softmax(pred.mean, pred.variance)
    unscaled = -float((batch[1] * logp.data).sum()) \
        + hyper.beta_d * kl_to_prior(post).item()
    assert math.isclose(b.total, unscaled, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_fidelity_vs_fd():
    rng = np.random.default_rng(6)
    for _ in range(3):
        coreset, net, batch, hyper = make_instance(rng)
        tape = nd.Tape()
        loss, _ = outer_loss(coreset, net, batch, 8, hyper, tape)
        gx, gy = coreset_grad(loss, tape)
        fx, fy = fd_grad_oracle(coreset, net, batch, 8, hyper)
        for ad, fd in ((gx, fx), (gy, fy)):
            rel = np.abs(ad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() <= 1e-4


def test_duplicated_coreset_row_duplicates_gradient():
    rng = np.random.default_rng(7)
    coreset, net, batch, hyper = make_instance(rng)
    images = coreset.images.copy()
    labels = coreset.labels.copy()
    images[1], labels[1] = images[0], labels[0]
    dup = coreset.with_arrays(images, labels)
    tape = nd.Tape()
    loss, _ = outer_loss(dup, net, batch, 8, hyper, tape)
    gx, gy = coreset_grad(loss, tape)
    np.testing.assert_allclose(gx[0], gx[1], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(gy[0], gy[1], rtol=1e-9, atol=1e-12)


def test_kl_gradient_isolation():
    rng = np.random.default_rng(8)
    coreset, net, (x_b, y_b), hyper = make_instance(rng, beta_d=0.5)
    silent_batch = (x_b, np.zeros_like(y_b))

    tape = nd.Tape()
    loss, b = outer_loss(coreset, net, silent_batch, 8, hyper, tape)
    assert b.likelihood_term == 0.0
    gx, gy = coreset_grad(loss, tape)
    assert np.abs(gx).max() > 0  # KL does pull on the coreset

    off = Hyperparams(rho=hyper.rho, gamma=hyper.gamma, beta_s=hyper.beta_s,
                      beta_d=0.0)
    tape2 = nd.Tape()
    loss2, _ = outer_loss(coreset, net, silent_batch, 8, off, tape2)
    gx2, gy2 = coreset_grad(loss2, tape2)
    assert np.abs(gx2).max() == 0.0 and np.abs(gy2).max() == 0.0


def test_kl_label_gradient_analytic():
    # KL depends on labels only through rho/2 ||M||^2 with M linear in Y:
    # grad_Y = rho c^2 A^{-1} Phi Phi^T A^{-1} Y, c = gamma/(rho beta_s)
    rng = np.random.default_rng(9)
    coreset, net, (x_b, y_b), hyper = make_instance(rng, beta_d=1.0)
    batch = (x_b, np.zeros_like(y_b))
    tape = nd.Tape()
    loss, _ = outer_loss(coreset, net, batch, 8, hyper, tape)
    _, gy = coreset_grad(loss, tape)

    phi = network.features(net, coreset.images)
    c = hyper.kernel_scale
    a = np.eye(phi.shape[0]) + c * phi @ phi.T
    inv = np.linalg.inv(a)
    expect = hyper.rho * c * c * inv @ phi @ phi.T @ inv @ coreset.labels
    assert np.abs(gy - expect).max() / max(np.abs(expect).max(), 1e-12) <= 1e-6


def test_fd_oracle_constant_loss_zero_gradient():
    rng = np.random.default_rng(10)
    coreset, net, (x_b, y_b), hyper = make_instance(rng, beta_d=0.0)
    fx, fy = fd_grad_oracle(coreset, net, (x_b, np.zeros_like(y_b)), 8, hyper)
    assert np.abs(fx).max() == 0.0 and np.abs(fy).max() == 0.0


def test_fd_oracle_instance_guard():
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    big = PseudoCoreset(images=np.zeros((100, 30)), labels=np.zeros((100, 3)),
                        ipc=10, hyper=hyper)
    net = network.init_net((30, 4), 3, seed=0)
    with pytest.raises(ValueError):
        fd_grad_oracle(big, net, (np.zeros((2, 30)), np.eye(3)[:2]), 2, hyper)


def test_loss_path_avoids_hxh_buffers():
    rng = np.random.default_rng(12)
    h = 256
    hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=4.0, beta_d=1e-8)
    coreset = PseudoCoreset(images=rng.standard_normal((4, 3)),
                            labels=rng.standard_normal((4, 2)),
                            ipc=2, hyper=hyper)
    net = network.init_net((3, h), 2, seed=13)
    batch = (rng.standard_normal((8, 3)), np.eye(2)[rng.integers(0, 2, 8)])
    with nd.track_allocations() as window:
        tape = nd.Tape()
        loss, _ = outer_loss(coreset, net, batch, 8, hyper, tape)
        coreset_grad(loss, tape)
    assert window.largest_block < h * h


def test_step_shares_one_factorization(monkeypatch):
    # one Cholesky of the min(h, nhat) square Gram system and one trtri of
    # its factor; the label solve, the predictive variance and their
    # adjoints are products with that inverse, and the KL's log det, trace
    # and adjoint read it too, so scipy solves nothing. The same counts hold
    # on the nhat side (nhat=4 < h=6) and on the h side (nhat=8 > h=6); one
    # test id covers both.
    counts = {"cholesky": 0, "dtrtri": 0, "cho_solve": 0, "solve_triangular": 0}
    factored = []
    for name in counts:
        module = scipy.linalg.lapack if name == "dtrtri" else scipy.linalg
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            if _name == "cholesky":
                factored.append(args[0].shape)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for nhat, h in ((4, 6), (8, 6)):
        counts.update(dict.fromkeys(counts, 0))
        factored.clear()
        rng = np.random.default_rng(14)
        coreset, net, batch, hyper = make_instance(rng, nhat=nhat, h=h,
                                                   beta_d=0.5)
        tape = nd.Tape()
        loss, _ = outer_loss(coreset, net, batch, 8, hyper, tape)
        coreset_grad(loss, tape)
        assert counts == {"cholesky": 1, "dtrtri": 1, "cho_solve": 0,
                          "solve_triangular": 0}, (nhat, h)
        assert factored == [(min(h, nhat), min(h, nhat))], (nhat, h)


def test_outer_loss_clamps_the_variance_once():
    # one relu per feature layer, one for the predictive variance
    for nhat, h in ((4, 6), (8, 6)):
        rng = np.random.default_rng(15)
        coreset, net, batch, hyper = make_instance(rng, nhat=nhat, h=h)
        tape = nd.Tape()
        outer_loss(coreset, net, batch, 8, hyper, tape)
        ops = [op for op, _, _, _ in tape.records]
        assert ops.count("relu") == len(net.weights) + 1, (nhat, h)
        assert ops.count("rsqrt_shift") == 1, (nhat, h)


def test_kl_reads_the_system_alone():
    # the KL's log det S and Tr S^{-1} are one record; the one quadratic-form
    # record left is the predictive variance's
    for nhat, h in ((4, 6), (8, 6)):
        rng = np.random.default_rng(16)
        coreset, net, batch, hyper = make_instance(rng, nhat=nhat, h=h, beta_d=0.5)
        tape = nd.Tape()
        outer_loss(coreset, net, batch, 8, hyper, tape)
        ops = [op for op, _, _, _ in tape.records]
        assert ops.count("logdet_trinv_spd") == 1, (nhat, h)
        assert ops.count("inv_quad_spd") == 1, (nhat, h)
