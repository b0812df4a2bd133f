"""Predictive moments, probit vs Monte Carlo, BMA, metrics."""

import math

import numpy as np
import pytest

from vbpc import ndiff as nd
from vbpc.posterior import Hyperparams, solve_posterior, dense_variance
from vbpc.predictive import (predictive_moments, probit_log_softmax,
                             mc_log_softmax, bma_predict, log_predictive, metrics)

ALPHA = math.pi / 8


def canonical_posterior():
    phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    y = np.array([[1.0, 0.0], [0.0, 0.0]])
    return solve_posterior(phi, y, Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_prior_predictive_variance():
    hyper = Hyperparams(rho=2.5, gamma=1.0, beta_s=1.0)
    p = solve_posterior(np.zeros((2, 4)), np.zeros((2, 3)), hyper)
    phi_te = np.array([[1.0, 2.0, 0.0, -1.0]])
    batch = predictive_moments(p, phi_te)
    np.testing.assert_array_equal(batch.mean.data, np.zeros((1, 3)))
    assert math.isclose(batch.variance.item(), (phi_te ** 2).sum() / 2.5, rel_tol=1e-13)


def test_null_feature_gives_null_moments():
    p = canonical_posterior()
    batch = predictive_moments(p, np.zeros((1, 3)))
    assert batch.mean.data.max() == 0.0
    assert batch.variance.item() == 0.0


def test_canonical_variance_matches_dense_quadratic():
    p = canonical_posterior()
    phi_te = np.array([[1.0, 0.0, 0.0]])
    batch = predictive_moments(p, phi_te)
    assert math.isclose(batch.variance.item(), 0.5, rel_tol=1e-13)
    dense = float((phi_te @ dense_variance(p).data @ phi_te.T)[0, 0])
    assert math.isclose(batch.variance.item(), dense, rel_tol=1e-12)


def test_variance_matches_dense_oracle_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        h = int(rng.integers(2, 32))
        nhat = int(rng.integers(1, 10))
        hyper = Hyperparams(rho=float(10 ** rng.uniform(-1, 2)),
                            gamma=float(10 ** rng.uniform(-1, 2)),
                            beta_s=float(10 ** rng.uniform(-1, 2)))
        p = solve_posterior(rng.standard_normal((nhat, h)),
                            rng.standard_normal((nhat, 3)), hyper)
        phi_te = rng.standard_normal((5, h))
        batch = predictive_moments(p, phi_te)
        dense = np.einsum("ij,jk,ik->i", phi_te, dense_variance(p).data, phi_te)
        err = np.abs(batch.variance.data[:, 0] - dense).max() / np.abs(dense).max()
        assert err <= 1e-10


@pytest.mark.parametrize("nhat,h", [(3, 5), (6, 4)])
def test_taped_moments_record_nothing_for_the_batch_alone(nhat, h):
    # nhat side: the batch row norms and their scaling are constant work (2
    # ops); h side: none. The variance is left unclamped: the primitive
    # probit_log_softmax clamps it, once. Beside the mean's product, the h
    # side records phi_b W^T, its row sums of squares and their scaling; the
    # nhat side phi_b Phi^T, its product with W^T, the sums of squares,
    # their scaling and the sum with the norms
    rng = np.random.default_rng(nhat * h)
    tape = nd.Tape()
    phi = tape.leaf(nd.Array(rng.standard_normal((nhat, h))))
    labels = tape.leaf(nd.Array(rng.standard_normal((nhat, 2))))
    post = solve_posterior(phi, labels, Hyperparams(rho=1.0, gamma=3.0, beta_s=2.0))
    before = len(tape.records)
    batch = predictive_moments(post, rng.standard_normal((7, h)))
    added = tape.records[before:]
    assert all(any(i is not None for i in in_ids) for _, _, in_ids, _ in added)
    assert len(added) == (4 if post.weight_space else 6)
    assert "probit_log_softmax" not in [op for op, _, _, _ in added]
    assert tape.node_id(batch.variance) is not None


@pytest.mark.parametrize("nhat,h", [(8, 512), (512, 8)])
def test_solve_and_moments_make_no_transposed_copy(nhat, h):
    # every transposed operand is read as a view, so no buffer the size of
    # Phi is born; the batch stays smaller than nhat, since its row norms
    # form an n x h product
    rng = np.random.default_rng(nhat + h)
    phi = nd.Array(rng.standard_normal((nhat, h)))
    labels = nd.Array(rng.standard_normal((nhat, 2)))
    batch = nd.Array(rng.standard_normal((4, h)))
    hyper = Hyperparams(rho=1.0, gamma=3.0, beta_s=float(nhat))
    with nd.track_allocations() as window:
        predictive_moments(solve_posterior(phi, labels, hyper), batch)
    assert 0 < window.largest_block < h * nhat


def test_moments_dimension_mismatch():
    # on either side `matmul`, the first product with the batch, rejects a
    # batch of another width
    for nhat in (2, 5):
        p = solve_posterior(np.ones((nhat, 3)), np.zeros((nhat, 2)),
                            Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0))
        for h in (2, 4):
            with pytest.raises(nd.ShapeError, match="matmul"):
                predictive_moments(p, np.zeros((1, h)))


# ---------------------------------------------------------------------------
# probit log-softmax
# ---------------------------------------------------------------------------

def test_probit_zero_variance_is_plain_log_softmax():
    m = np.array([[1.0, 0.0]])
    out = probit_log_softmax(m, np.zeros((1, 1)))
    expect = m - np.log(np.exp(m).sum())
    np.testing.assert_allclose(out.data, expect, atol=1e-15)
    np.testing.assert_allclose(out.data, [[-0.31326168751822286, -1.3132616875182228]],
                               atol=1e-12)


def test_probit_constant_rows_are_uniform():
    rng = np.random.default_rng(22)
    for k in (2, 5, 10):
        m = np.full((3, k), rng.uniform(-2, 2))
        var = rng.uniform(0, 4, (3, 1))
        out = probit_log_softmax(m, var)
        np.testing.assert_allclose(out.data, math.log(1.0 / k), atol=1e-12)


def test_probit_within_monte_carlo_band_small_variance():
    # the Jensen bias of the surrogate shrinks with variance; at 0.1 the
    # 3*stderr + 0.05 band holds (it does not at 0.25 and above)
    m = np.array([1.0, 0.0])
    probit = probit_log_softmax(m.reshape(1, -1), np.array([[0.1]])).data[0]
    mc, stderr = mc_log_softmax(m, 0.1, samples=1_000_000, seed=123,
                                return_stderr=True)
    assert np.all(np.abs(probit - mc) <= 3 * stderr + 0.05)


def test_probit_bias_at_unit_variance_matches_quadrature():
    # the surrogate drops a Jensen term; at m=[1,0], var=1 the true
    # expectation (deterministic quadrature) is -0.491802 vs probit -0.356654,
    # so the gap is a property of the approximation, not an implementation bug
    m = np.array([1.0, 0.0])
    probit = probit_log_softmax(m.reshape(1, -1), np.array([[1.0]])).data[0]
    np.testing.assert_allclose(probit, [-0.3566543129, -1.2040209398], atol=1e-9)
    mc = mc_log_softmax(m, 1.0, samples=1_000_000, seed=123)
    assert math.isclose(mc[0], -0.49180170897514, abs_tol=2e-3)
    assert 0.12 < abs(probit[0] - mc[0]) < 0.15


def test_probit_rejects_bad_variance():
    # a numerical failure, which training aborts on, not a usage error
    with pytest.raises(nd.NonFiniteError, match="negative predictive variance"):
        probit_log_softmax(np.zeros((1, 2)), np.array([[-1e-6]]))
    # round-off negativity is clamped to zero
    out = probit_log_softmax(np.array([[1.0, 0.0]]), np.array([[-1e-13]]))
    assert np.isfinite(out.data).all()
    # a variance that is not n x 1 is a shape error
    for shape in ((3, 2), (2, 1), (1, 3)):
        with pytest.raises(nd.ShapeError, match="probit_log_softmax"):
            probit_log_softmax(np.zeros((3, 2)), np.zeros(shape))


def test_probit_rows_normalize():
    rng = np.random.default_rng(23)
    out = probit_log_softmax(rng.standard_normal((6, 5)), rng.uniform(0, 3, (6, 1)))
    np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-12)


def test_variance_shrinks_confidence():
    m = np.array([[2.0, 0.3, -1.0]])
    peak = [np.exp(probit_log_softmax(m, np.array([[v]])).data).max()
            for v in (0.0, 0.25, 1.0, 4.0, 16.0)]
    assert all(a >= b for a, b in zip(peak, peak[1:]))


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_mc_zero_variance_exact():
    m = np.array([0.5, -1.0, 2.0])
    expect = m - np.log(np.exp(m - m.max()).sum()) - m.max()
    np.testing.assert_allclose(mc_log_softmax(m, 0.0, samples=7, seed=0),
                               expect, atol=1e-15)


def test_mc_uniform_mean_symmetry():
    # symmetric means give mutually equal entries; at zero variance they
    # equal log(1/k) exactly, under noise they sit below it (Jensen)
    k = 4
    exact = mc_log_softmax(np.zeros(k), 0.0, samples=10, seed=1)
    np.testing.assert_allclose(exact, math.log(1.0 / k), atol=1e-15)
    est = mc_log_softmax(np.zeros(k), 1.0, samples=100_000, seed=1)
    assert est.max() - est.min() <= 0.01
    assert est.max() < math.log(1.0 / k)


def test_mc_deterministic_per_seed():
    m = np.array([1.0, 0.0])
    a = mc_log_softmax(m, 1.0, samples=5000, seed=99)
    b = mc_log_softmax(m, 1.0, samples=5000, seed=99)
    np.testing.assert_array_equal(a, b)


def mc_reference(mean, variance, samples, seed):
    """The estimator as one loop over fresh chunks, nothing overlapped."""
    rng = np.random.default_rng(seed)
    sd = np.sqrt(variance)
    total, total_sq, done = np.zeros(mean.size), np.zeros(mean.size), 0
    while done < samples:
        m = min(100_000, samples - done)
        z = mean + sd * rng.standard_normal((m, mean.size))
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        total += logp.sum(axis=0)
        total_sq += (logp ** 2).sum(axis=0)
        done += m
    est = total / samples
    return est, np.sqrt(np.maximum(total_sq / samples - est ** 2, 0.0) / samples)


@pytest.mark.parametrize("samples", [1, 99_999, 100_000, 100_001, 250_000])
def test_mc_overlapped_chunks_are_bit_equal_to_one_loop(samples):
    # chunk i + 1 is drawn while chunk i is reduced on the worker, into
    # buffers reused from chunk to chunk; every bit is the plain loop's
    mean = np.random.default_rng(samples).uniform(-3, 3, 5)
    est, stderr = mc_log_softmax(mean, 1.7, samples, seed=samples,
                                 return_stderr=True)
    want_est, want_stderr = mc_reference(mean, 1.7, samples, seed=samples)
    assert est.tobytes() == want_est.tobytes()
    assert stderr.tobytes() == want_stderr.tobytes()


# ---------------------------------------------------------------------------
# BMA and metrics
# ---------------------------------------------------------------------------

def test_bma_prior_is_uniform():
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    p = solve_posterior(np.zeros((2, 3)), np.zeros((2, 4)), hyper)
    probs = bma_predict(p, np.array([[1.0, -2.0, 0.5]]))
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_bma_canonical_value():
    p = canonical_posterior()
    probs = bma_predict(p, np.array([[1.0, 0.0, 0.0]]))
    scaled = np.array([0.5, 0.0]) / math.sqrt(1 + ALPHA * 0.5)
    expect = np.exp(scaled) / np.exp(scaled).sum()
    np.testing.assert_allclose(probs[0], expect, rtol=1e-12)


@pytest.mark.parametrize("nhat, h", [(4, 6), (9, 5)])
def test_bma_predict_is_the_exponentiated_log_predictive(nhat, h):
    # one model average on both sides of the factored system: the
    # probabilities are its log-probabilities exponentiated, bit for bit,
    # and those are the probit rule on the moments
    rng = np.random.default_rng(26)
    p = solve_posterior(rng.standard_normal((nhat, h)), rng.standard_normal((nhat, 3)),
                        Hyperparams(rho=1.0, gamma=20.0, beta_s=float(nhat)))
    assert p.weight_space == (h < nhat)
    phi_te = rng.standard_normal((30, h))
    logp = log_predictive(p, phi_te)
    batch = predictive_moments(p, phi_te)
    assert logp.data.tobytes() == probit_log_softmax(batch.mean, batch.variance).data.tobytes()
    assert bma_predict(p, phi_te).tobytes() == np.exp(logp.data).tobytes()


def test_bma_argmax_matches_mean_argmax():
    rng = np.random.default_rng(25)
    p = solve_posterior(rng.standard_normal((4, 6)), rng.standard_normal((4, 3)),
                        Hyperparams(rho=1.0, gamma=20.0, beta_s=4.0))
    phi_te = rng.standard_normal((40, 6))
    probs = bma_predict(p, phi_te)
    means = predictive_moments(p, phi_te).mean.data
    np.testing.assert_array_equal(probs.argmax(axis=1), means.argmax(axis=1))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_metrics_perfect_and_uniform():
    logp = np.log(np.array([[0.999999, 1e-6], [1e-6, 0.999999]]))
    acc, nll = metrics(logp, np.array([0, 1]))
    assert acc == 1.0 and 0.0 < nll < 1e-5

    uniform = np.full((6, 10), math.log(0.1))
    acc, nll = metrics(uniform, np.arange(6))
    assert math.isclose(nll, math.log(10.0), rel_tol=1e-12)


def test_metrics_hand_case():
    logp = np.log(np.array([[0.7, 0.3], [0.4, 0.6]]))
    acc, nll = metrics(logp, np.array([0, 0]))
    assert acc == 0.5
    assert math.isclose(nll, -(math.log(0.7) + math.log(0.4)) / 2, rel_tol=1e-12)
    assert math.isclose(nll, 0.6364828379064437, rel_tol=1e-12)


def test_metrics_tie_breaks_low_index():
    logp = np.log(np.array([[0.5, 0.5]]))
    acc, _ = metrics(logp, np.array([0]))
    assert acc == 1.0


def test_metrics_label_out_of_range():
    with pytest.raises(ValueError):
        metrics(np.log(np.array([[0.5, 0.5]])), np.array([2]))


def test_metrics_takes_class_ids_not_one_hot_rows():
    with pytest.raises(ValueError, match="class ids"):
        metrics(np.log(np.full((2, 2), 0.5)), np.eye(2))
