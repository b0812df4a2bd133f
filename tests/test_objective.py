"""Outer loss assembly, coreset gradients vs finite differences."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from vbpc import ndiff as nd
from vbpc import network
from vbpc.data import PseudoCoreset, scaled_onehot_labels
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
    # one record per feature layer, and the variance clamped inside the
    # probit rule, once
    for nhat, h in ((4, 6), (8, 6)):
        rng = np.random.default_rng(15)
        coreset, net, batch, hyper = make_instance(rng, nhat=nhat, h=h)
        tape = nd.Tape()
        outer_loss(coreset, net, batch, 8, hyper, tape)
        ops = [op for op, _, _, _ in tape.records]
        assert ops.count("affine_relu") == len(net.weights), (nhat, h)
        assert ops.count("probit_log_softmax") == 1, (nhat, h)
        assert "relu" not in ops and "sub" not in ops, (nhat, h)


@pytest.mark.parametrize("nhat,records", [(8, 26), (4, 28)])
def test_tape_records_per_outer_loss(monkeypatch, nhat, records):
    # two hidden layers, as perfbench's image workloads have: nhat=8 > h=6
    # solves on the h side as `solve-heavy` does, nhat=4 on the nhat side as
    # `wide` does. The probit rule is one record, and each sum of products
    # one `inner`; the factor is one `inv_chol` record, and each solve two
    # products with it. A pool slot's Gaussian step makes 6 primitive calls
    rng = np.random.default_rng(17)
    coreset, _, batch, hyper = make_instance(rng, nhat=nhat, h=6, k=10)
    net = network.init_net((3, 6, 6), 10, seed=18)
    tape = nd.Tape()
    outer_loss(coreset, net, batch, 8, hyper, tape)
    assert len(tape.records) == records
    calls = []
    real_apply = nd.apply
    monkeypatch.setattr(nd, "apply",
                        lambda op, *args, **kw: calls.append(op) or real_apply(op, *args, **kw))
    network.gaussian_step(net, coreset.images, coreset.labels, hyper.gamma, 1e-3)
    assert len(calls) == 6, calls


def test_kl_reads_the_system_alone():
    # the KL's log det S and Tr S^{-1} are one record on the system's one
    # factor node, which the means and the predictive variance read too
    for nhat, h in ((4, 6), (8, 6)):
        rng = np.random.default_rng(16)
        coreset, net, batch, hyper = make_instance(rng, nhat=nhat, h=h, beta_d=0.5)
        tape = nd.Tape()
        outer_loss(coreset, net, batch, 8, hyper, tape)
        ops = [op for op, _, _, _ in tape.records]
        assert ops.count("logdet_trinv") == 1, (nhat, h)
        assert ops.count("inv_chol") == 1, (nhat, h)
        factor = next(out for op, out, _, _ in tape.records if op == "inv_chol")
        (kl_in,) = next(ins for op, _, ins, _ in tape.records if op == "logdet_trinv")
        assert kl_in == factor, (nhat, h)


# ---------------------------------------------------------------------------
# float32 pool slots
# ---------------------------------------------------------------------------

def image_instance(seed, nhat, widths):
    """Ten classes of 64-pixel prototypes blended with noise, a 64-row
    batch, and a float32 pool slot of `widths` (input width 64)."""
    rng = np.random.default_rng(seed)
    k = 10
    prototypes = rng.standard_normal((k, 64))
    classes = np.arange(nhat) % k
    hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=float(nhat), beta_d=1e-3)
    coreset = PseudoCoreset(
        images=0.5 * prototypes[classes] + rng.standard_normal((nhat, 64)),
        labels=scaled_onehot_labels(classes, k), ipc=nhat // k, hyper=hyper)
    y_b = rng.integers(0, k, 64)
    batch = (0.5 * prototypes[y_b] + rng.standard_normal((64, 64)), np.eye(k)[y_b])
    slot = network.pool_new(1, widths, k, seed, period=5).slots[0].net
    return coreset, slot, batch, hyper


def loss_and_grads(coreset, net, batch, hyper):
    tape = nd.Tape()
    loss, _ = outer_loss(coreset, net, batch, 1000, hyper, tape)
    return (loss.item(), *coreset_grad(loss, tape))


@pytest.mark.parametrize("nhat, widths", [
    (20, (64, 32, 32)),         # nhat side
    (40, (64, 16, 16)),         # h side
    (20, (64, 128, 128)),
    (100, (64, 64, 64)),
])
def test_float32_slot_agrees_with_its_float64_upcast(nhat, widths):
    # the slot differs from its exact float64 copy in both feature passes,
    # which it runs in float32: the batch features, and the coreset's taped
    # pass, whose images are rounded to float32 on the way in and whose
    # gradient comes back through float32 layers. Over these shapes and
    # seeds 0-7 the loss's relative error read at most 1.9e-8 and the
    # gradients' largest error, relative to their largest entry, 1.6e-6
    # (images, at nhat 20, seed 5) and 5.7e-7 (labels). The gates were set
    # at ten times the worst when only the batch features ran in float32
    # (1.1e-8, 3.8e-7, 2.7e-7), and were kept: they are 5.7, 2.4 and 6.6
    # times the worst errors now
    for seed in range(3):
        coreset, slot, batch, hyper = image_instance(seed, nhat, widths)
        assert slot.head.dtype == np.float32
        upcast = slot.replace_params([p.astype(np.float64) for p in slot.params])
        loss32, gx32, gy32 = loss_and_grads(coreset, slot, batch, hyper)
        loss64, gx64, gy64 = loss_and_grads(coreset, upcast, batch, hyper)
        assert abs(loss32 - loss64) <= 1.1e-7 * abs(loss64)
        assert gx32.dtype == gy32.dtype == np.float64
        assert np.abs(gx32 - gx64).max() <= 3.8e-6 * np.abs(gx64).max()
        assert np.abs(gy32 - gy64).max() <= 3.8e-6 * np.abs(gy64).max()


def test_coreset_pass_casts_only_through_a_float32_slot():
    # the float32 slot's taped pass is its own layers between two casts;
    # a float64 net's makes no cast node
    coreset, slot, batch, hyper = image_instance(0, 20, (64, 32, 32))
    for net, casts in ((slot, 2), (network.init_net((64, 32, 32), 10, seed=1), 0)):
        tape = nd.Tape()
        outer_loss(coreset, net, batch, 1000, hyper, tape)
        ops = [op for op, _, _, _ in tape.records]
        assert ops.count("cast") == casts and ops.count("affine_relu") == 2


def test_float32_training_images_cast_once():
    # the float32 images training keeps go into a float32 slot with no cast:
    # its pass records one, the features up to float64, where float64
    # images record two and a float64 net none; the image gradient takes
    # the leaf's dtype and the labels' stays float64
    coreset, slot, batch, hyper = image_instance(0, 20, (64, 32, 32))
    net64 = network.init_net((64, 32, 32), 10, seed=1)
    images32 = network._read_only(coreset.images, np.float32, "coreset images")
    for net, images, casts in ((slot, images32, 1), (slot, coreset.images, 2),
                               (net64, coreset.images, 0), (net64, images32, 1)):
        tape = nd.Tape()
        loss, _ = outer_loss(coreset.with_arrays(images, coreset.labels), net,
                             batch, 1000, hyper, tape)
        ops = [op for op, _, _, _ in tape.records]
        assert ops.count("cast") == casts and ops.count("affine_relu") == 2
        grad_x, grad_y = coreset_grad(loss, tape)
        assert grad_x.dtype == images.dtype and grad_y.dtype == np.float64
    # float32 images and their float64 upcast give the slot the same pass
    got = loss_and_grads(coreset.with_arrays(images32, coreset.labels), slot, batch, hyper)
    want = loss_and_grads(coreset.with_arrays(images32.astype(np.float64), coreset.labels),
                          slot, batch, hyper)
    assert got[0] == want[0] and got[2].tobytes() == want[2].tobytes()
    assert got[1].tobytes() == want[1].astype(np.float32).tobytes()


def test_float32_slot_refuses_a_coreset_beyond_float32():
    # the coreset's taped images enter the slot by the rule a pool step's
    # images do: the error names float32's range, with no overflow warning
    coreset, slot, batch, hyper = image_instance(0, 20, (64, 32, 32))
    images = coreset.images.copy()
    images[3, 5] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nd.NonFiniteError,
                           match="beyond float32's range: largest magnitude 1.000e\\+39"):
            outer_loss(coreset.with_arrays(images, coreset.labels), slot, batch,
                       1000, hyper, nd.Tape())


def _outer_loss_on_float64_layers(coreset, net, batch, n_total, hyper, tape):
    """The outer loss as it was written before pool slots were float32: the
    batch features and the coreset's taped features through the float64
    `net` itself."""
    x_b, y_b = batch
    images, labels = nd.Array(coreset.images), nd.Array(coreset.labels)
    tape.leaf(images, label="images")
    tape.leaf(labels, label="labels")
    batch_phi = nd.Array(network.features(net, x_b))
    post = solve_posterior(network.features_graph(net, images), labels, hyper)
    moments = predictive_moments(post, batch_phi)
    log_probs = probit_log_softmax(moments.mean, moments.variance)
    likelihood = nd.scale(nd.inner(nd.constant(y_b), log_probs),
                          -float(n_total) / y_b.shape[0])
    return nd.add(likelihood, nd.scale(kl_to_prior(post), hyper.beta_d))


@pytest.mark.parametrize("nhat, widths", [
    (20, (64, 32, 32)),         # nhat side
    (40, (64, 16, 16)),         # h side
    (100, (64, 512, 512)),      # products cut in halves
])
def test_float64_net_outer_loss_is_bit_identical(nhat, widths):
    coreset, _, batch, hyper = image_instance(4, nhat, widths)
    net = network.init_net(widths, 10, seed=5)
    tape = nd.Tape()
    loss = _outer_loss_on_float64_layers(coreset, net, batch, 1000, hyper, tape)
    want = (loss.data.tobytes(), *(g.tobytes() for g in coreset_grad(loss, tape)))
    got = loss_and_grads(coreset, net, batch, hyper)
    assert (np.float64(got[0]).tobytes(), got[1].tobytes(), got[2].tobytes()) == want
