"""Closed-form posterior vs dense h x h oracles, KL, fixed point."""

import math

import numpy as np
import pytest

from vbpc import ndiff as nd
from vbpc import network, objective, posterior
from vbpc.data import PseudoCoreset
from vbpc.posterior import (Hyperparams, CoresetPosterior, solve_posterior,
                            dense_variance, logdet_v, trace_v, kl_to_prior,
                            fixed_point_residual)
from vbpc.predictive import predictive_moments


# ---------------------------------------------------------------------------
# dense oracles (primal h x h route, independent of the kernel-form code)
# ---------------------------------------------------------------------------

def oracle_mean(phi, y, hyper):
    h = phi.shape[1]
    g = hyper.gamma / hyper.beta_s
    return np.linalg.solve(hyper.rho * np.eye(h) + g * phi.T @ phi, g * phi.T @ y)


def oracle_variance(phi, hyper):
    h = phi.shape[1]
    g = hyper.gamma / hyper.beta_s
    return np.linalg.inv(hyper.rho * np.eye(h) + g * phi.T @ phi)


def oracle_kl(phi, y, hyper):
    """Gaussian KL per class against N(0, rho^{-1} I), constants included."""
    h, k = phi.shape[1], y.shape[1]
    v = oracle_variance(phi, hyper)
    m = oracle_mean(phi, y, hyper)
    _, logdet_vstar = np.linalg.slogdet(v)
    return 0.5 * (k * (-h * math.log(hyper.rho) - logdet_vstar) - k * h
                  + k * hyper.rho * np.trace(v) + hyper.rho * (m ** 2).sum())


def canonical_instance():
    phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    y = np.array([[1.0, 0.0], [0.0, 0.0]])
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    return phi, y, hyper


def random_instance(rng, h_range=(2, 64), n_range=(1, 16), k_range=(2, 10)):
    h = int(rng.integers(h_range[0], h_range[1] + 1))
    nhat = int(rng.integers(n_range[0], n_range[1] + 1))
    k = int(rng.integers(k_range[0], k_range[1] + 1))
    hyper = Hyperparams(rho=float(10 ** rng.uniform(-1, 2)),
                        gamma=float(10 ** rng.uniform(-1, 2)),
                        beta_s=float(10 ** rng.uniform(-1, 2)))
    phi = rng.standard_normal((nhat, h))
    y = rng.standard_normal((nhat, k))
    return phi, y, hyper


# ---------------------------------------------------------------------------
# solve_posterior / mean
# ---------------------------------------------------------------------------

def test_zero_features_prior_mean():
    hyper = Hyperparams(rho=2.0, gamma=5.0, beta_s=3.0)
    p = solve_posterior(np.zeros((4, 6)), np.ones((4, 2)), hyper)
    np.testing.assert_array_equal(p.means.data, np.zeros((6, 2)))


def test_canonical_mean():
    phi, y, hyper = canonical_instance()
    p = solve_posterior(phi, y, hyper)
    np.testing.assert_allclose(p.means.data[:, 0], [0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(p.means.data[:, 1], 0.0, atol=1e-15)


def test_kernel_mean_matches_primal_oracle():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((4, 6))
    y = rng.standard_normal((4, 2))
    hyper = Hyperparams(rho=0.7, gamma=3.0, beta_s=2.0)
    p = solve_posterior(phi, y, hyper)
    expect = oracle_mean(phi, y, hyper)
    err = np.abs(p.means.data - expect).max() / np.abs(expect).max()
    assert err <= 1e-10


def test_non_finite_features_rejected():
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    phi = np.zeros((2, 3))
    phi[0, 0] = np.inf
    with pytest.raises(nd.NonFiniteError):
        solve_posterior(phi, np.zeros((2, 2)), hyper)


@pytest.mark.parametrize("weight_space,op", [(True, "matmul"),
                                             (False, "cholesky_solve_spd")])
def test_labels_of_another_row_count_raise_in_the_primitive(weight_space, op):
    # the h side reads the labels through Phi^T Y, the nhat side through
    # the solve S^{-1} Y: either primitive rejects a row count not nhat
    hyper = Hyperparams(rho=1.0, gamma=2.0, beta_s=3.0)
    phi = np.random.default_rng(8).standard_normal((3, 4))
    for rows in (2, 4):
        with pytest.raises(nd.ShapeError, match=op):
            posterior._solve(phi, np.zeros((rows, 2)), hyper, weight_space=weight_space)


# ---------------------------------------------------------------------------
# dense variance
# ---------------------------------------------------------------------------

def test_variance_prior_case():
    hyper = Hyperparams(rho=4.0, gamma=1.0, beta_s=1.0)
    p = solve_posterior(np.zeros((2, 5)), np.zeros((2, 2)), hyper)
    np.testing.assert_allclose(dense_variance(p).data, np.eye(5) / 4.0, atol=1e-15)


def test_variance_canonical_diagonal():
    phi, y, hyper = canonical_instance()
    p = solve_posterior(phi, y, hyper)
    np.testing.assert_allclose(dense_variance(p).data, np.diag([0.5, 0.5, 1.0]),
                               atol=1e-14)


def test_variance_matches_primal_oracle():
    rng = np.random.default_rng(6)
    phi, y, hyper = random_instance(rng)
    p = solve_posterior(phi, y, hyper)
    expect = oracle_variance(phi, hyper)
    err = np.abs(dense_variance(p).data - expect).max() / np.abs(expect).max()
    assert err <= 1e-10


def test_variance_guard():
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    p = solve_posterior(np.zeros((1, 4097)), np.zeros((1, 2)), hyper)
    with pytest.raises(ValueError):
        dense_variance(p)


# ---------------------------------------------------------------------------
# log-det / trace / KL
# ---------------------------------------------------------------------------

def test_logdet_prior_and_rank_one():
    hyper = Hyperparams(rho=3.0, gamma=2.0, beta_s=5.0)
    p0 = solve_posterior(np.zeros((1, 4)), np.zeros((1, 2)), hyper)
    assert math.isclose(logdet_v(p0).item(), -4 * math.log(3.0), rel_tol=1e-14)

    row = np.array([[0.5, -1.5, 2.0, 0.25]])
    p1 = solve_posterior(row, np.zeros((1, 2)), hyper)
    expect = -4 * math.log(3.0) - math.log(1.0 + hyper.kernel_scale * (row ** 2).sum())
    assert math.isclose(logdet_v(p1).item(), expect, rel_tol=1e-13)


def test_logdet_canonical():
    phi, y, hyper = canonical_instance()
    p = solve_posterior(phi, y, hyper)
    assert math.isclose(logdet_v(p).item(), math.log(0.25), rel_tol=1e-13)


def test_trace_prior_and_canonical():
    hyper = Hyperparams(rho=2.0, gamma=1.0, beta_s=1.0)
    p0 = solve_posterior(np.zeros((2, 6)), np.zeros((2, 2)), hyper)
    assert math.isclose(trace_v(p0).item(), 6 / 2.0, rel_tol=1e-14)

    phi, y, hyper = canonical_instance()
    p = solve_posterior(phi, y, hyper)
    assert math.isclose(trace_v(p).item(), 2.0, rel_tol=1e-13)


def test_kl_zero_for_empty_coreset():
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    p = solve_posterior(np.zeros((3, 5)), np.zeros((3, 2)), hyper)
    assert kl_to_prior(p).item() == 0.0


def test_kl_canonical_value():
    phi, y, hyper = canonical_instance()
    p = solve_posterior(phi, y, hyper)
    # 1/2 (2*log 4 - 6 + 2*2 + 0.25) frozen from the dense Gaussian-KL oracle
    expect = 0.5 * (2 * math.log(4.0) - 6 + 4 + 0.25)
    assert math.isclose(expect, 0.5112943611198906, rel_tol=1e-12)
    assert math.isclose(kl_to_prior(p).item(), expect, rel_tol=1e-12)
    assert math.isclose(kl_to_prior(p).item(), oracle_kl(phi, y, hyper), rel_tol=1e-12)


def test_kl_matches_dense_oracle_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        phi, y, hyper = random_instance(rng, h_range=(2, 24))
        p = solve_posterior(phi, y, hyper)
        expect = oracle_kl(phi, y, hyper)
        assert abs(kl_to_prior(p).item() - expect) / max(abs(expect), 1e-8) <= 1e-8


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_satisfied_by_solution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi, y, hyper = random_instance(rng)
        p = solve_posterior(phi, y, hyper)
        assert fixed_point_residual(p) <= 1e-8


def test_fixed_point_detects_perturbation():
    phi, y, hyper = canonical_instance()
    p = solve_posterior(phi, y, hyper)
    bad = CoresetPosterior(p.phi, p.labels, p.system, p.weight_space,
                           nd.Array(p.means.data + 0.1), p.hyper)
    assert fixed_point_residual(bad) >= 0.01


def test_fixed_point_zero_for_prior():
    hyper = Hyperparams(rho=1.5, gamma=2.0, beta_s=3.0)
    p = solve_posterior(np.zeros((2, 4)), np.zeros((2, 3)), hyper)
    assert fixed_point_residual(p) == 0.0


# ---------------------------------------------------------------------------
# both sides: the nhat x nhat and the h x h Gram system
# ---------------------------------------------------------------------------

def both_sides(phi, y, hyper):
    """The same instance solved through each side, nhat side first."""
    return [posterior._solve(phi, y, hyper, weight_space=side)
            for side in (False, True)]


@pytest.mark.parametrize("h", [5, 6, 7])
def test_side_selected_by_shape(h):
    rng = np.random.default_rng(h)
    nhat = 6
    p = solve_posterior(rng.standard_normal((nhat, h)),
                        rng.standard_normal((nhat, 2)),
                        Hyperparams(rho=1.0, gamma=3.0, beta_s=2.0))
    assert p.weight_space is (h < nhat)
    assert p.system.shape == (min(h, nhat),) * 2


@pytest.mark.parametrize("nhat,h", [(3, 8), (8, 3), (6, 6), (16, 5), (5, 40)])
def test_both_sides_match_dense_oracle(nhat, h):
    rng = np.random.default_rng(100 * nhat + h)
    for _ in range(4):
        _, _, hyper = random_instance(rng)
        phi = rng.standard_normal((nhat, h))
        y = rng.standard_normal((nhat, 3))
        phi_test = rng.standard_normal((7, h))
        v = oracle_variance(phi, hyper)
        m = oracle_mean(phi, y, hyper)
        kl = oracle_kl(phi, y, hyper)
        _, ld = np.linalg.slogdet(v)
        sigma = np.einsum("ij,jk,ik->i", phi_test, v, phi_test)
        for side, p in zip((False, True), both_sides(phi, y, hyper)):
            assert p.weight_space == side
            assert p.system.shape == ((h, h) if side else (nhat, nhat))
            assert np.abs(p.means.data - m).max() / np.abs(m).max() <= 1e-10
            assert np.abs(dense_variance(p).data - v).max() / np.abs(v).max() <= 1e-10
            assert abs(logdet_v(p).item() - ld) / abs(ld) <= 1e-10
            assert abs(trace_v(p).item() - np.trace(v)) / np.trace(v) <= 1e-10
            assert abs(kl_to_prior(p).item() - kl) / max(abs(kl), 1e-8) <= 1e-8
            var = predictive_moments(p, phi_test).variance.data[:, 0]
            assert np.abs(var - sigma).max() / np.abs(sigma).max() <= 1e-10
            assert fixed_point_residual(p) <= 1e-8


@pytest.mark.parametrize("nhat,h", [(4, 6), (8, 6)])
def test_both_sides_give_the_same_coreset_gradients(monkeypatch, nhat, h):
    rng = np.random.default_rng(nhat * h)
    d, k, batch = 3, 3, 8
    hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=float(nhat), beta_d=0.5)
    net = network.init_net((d, h), k, seed=7)
    coreset = PseudoCoreset(images=rng.standard_normal((nhat, d)),
                            labels=rng.standard_normal((nhat, k)),
                            ipc=1, hyper=hyper)
    data = (rng.standard_normal((batch, d)), np.eye(k)[rng.integers(0, k, batch)])
    results = []
    for side in (False, True):
        monkeypatch.setattr(
            objective, "solve_posterior",
            lambda phi, labels, hyper, side=side:
                posterior._solve(phi, labels, hyper, weight_space=side))
        tape = nd.Tape()
        loss, _ = objective.outer_loss(coreset, net, data, 40, hyper, tape)
        results.append((loss.item(), *objective.coreset_grad(loss, tape)))
    (loss_n, gx_n, gy_n), (loss_h, gx_h, gy_h) = results
    assert abs(loss_h - loss_n) <= 1e-12 * abs(loss_n)
    assert np.abs(gx_h - gx_n).max() <= 1e-10 * np.abs(gx_n).max()
    assert np.abs(gy_h - gy_n).max() <= 1e-10 * np.abs(gy_n).max()


def test_condition_lower_bound_on_both_sides():
    rng = np.random.default_rng(17)
    for _ in range(10):
        phi, y, hyper = random_instance(rng, h_range=(2, 24))
        for p in both_sides(phi, y, hyper):
            bound = posterior.condition_lower_bound(p)
            assert 1.0 <= bound <= np.linalg.cond(p.system.data) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_woodbury_equivalence_sweep():
    rng = np.random.default_rng(10)
    for _ in range(100):
        phi, y, hyper = random_instance(rng)
        p = solve_posterior(phi, y, hyper)
        v = oracle_variance(phi, hyper)
        m = oracle_mean(phi, y, hyper)
        scale = max(np.abs(m).max(), 1e-12)
        assert np.abs(p.means.data - m).max() / scale <= 1e-10
        assert np.abs(dense_variance(p).data - v).max() / np.abs(v).max() <= 1e-10
        _, ld = np.linalg.slogdet(v)
        assert abs(logdet_v(p).item() - ld) / max(abs(ld), 1e-8) <= 1e-10
        assert abs(trace_v(p).item() - np.trace(v)) / np.trace(v) <= 1e-10


def test_dense_variance_spectrum_and_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(10):
        phi, y, hyper = random_instance(rng, h_range=(2, 16))
        v = dense_variance(solve_posterior(phi, y, hyper)).data
        assert np.abs(v - v.T).max() <= 1e-12 * max(np.abs(v).max(), 1.0)
        eigs = np.linalg.eigvalsh(v)
        assert eigs.min() > 0
        assert eigs.max() <= 1.0 / hyper.rho + 1e-12


def test_mean_linear_in_labels():
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((5, 8))
    y1 = rng.standard_normal((5, 3))
    y2 = rng.standard_normal((5, 3))
    hyper = Hyperparams(rho=1.3, gamma=4.0, beta_s=2.0)
    a, b = 1.7, -0.4
    m_combo = solve_posterior(phi, a * y1 + b * y2, hyper).means.data
    m_split = (a * solve_posterior(phi, y1, hyper).means.data
               + b * solve_posterior(phi, y2, hyper).means.data)
    assert np.abs(m_combo - m_split).max() / np.abs(m_split).max() <= 1e-12


def test_kl_never_negative():
    rng = np.random.default_rng(14)
    for _ in range(50):
        phi, y, hyper = random_instance(rng, h_range=(2, 20))
        assert kl_to_prior(solve_posterior(phi, y, hyper)).item() >= -1e-10


def test_no_hxh_allocation_outside_dense_variance():
    rng = np.random.default_rng(15)
    h = 128
    phi = rng.standard_normal((8, h))
    y = rng.standard_normal((8, 3))
    hyper = Hyperparams(rho=1.0, gamma=10.0, beta_s=8.0)
    with nd.track_allocations() as window:
        p = solve_posterior(phi, y, hyper)
        logdet_v(p)
        trace_v(p)
        kl_to_prior(p)
        fixed_point_residual(p)
    assert window.largest_block < h * h


def test_kl_gradient_matches_finite_differences():
    # certifies the taped route through the closed-form solve
    rng = np.random.default_rng(16)
    phi_val = rng.standard_normal((3, 4))
    y_val = rng.standard_normal((3, 2))
    hyper = Hyperparams(rho=1.2, gamma=3.0, beta_s=2.0)

    tape = nd.Tape()
    phi = tape.leaf(nd.Array(phi_val))
    y = tape.leaf(nd.Array(y_val))
    kl = kl_to_prior(solve_posterior(phi, y, hyper))
    grads = nd.backward(tape, kl)

    def kl_value(phi_v, y_v):
        return kl_to_prior(solve_posterior(phi_v, y_v, hyper)).item()

    eps = 1e-5
    for leaf, val, evaluate in (
            (phi, phi_val, lambda v: kl_value(v, y_val)),
            (y, y_val, lambda v: kl_value(phi_val, v))):
        ad = grads[tape.node_id(leaf)].data
        fd = np.zeros_like(val)
        flat, fdf = val.ravel(), fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = evaluate(val)
            flat[i] = orig - eps
            down = evaluate(val)
            flat[i] = orig
            fdf[i] = (up - down) / (2 * eps)
        assert (np.abs(ad - fd) / np.maximum(np.abs(fd), 1e-8)).max() <= 1e-5
