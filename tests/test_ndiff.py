"""Gradient-tape layer: primitive semantics, adjoints vs finite differences,
Cholesky behavior, tape determinism, work cut in two halves, allocation
tracking."""

import math
import os
import re
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

from vbpc import _twocore, ndiff as nd, network
from vbpc.data import PseudoCoreset
from vbpc.objective import coreset_grad, outer_loss
from vbpc.posterior import Hyperparams
from vbpc.ndiff import VARIANCE_CLAMP


def fd_gradient(fn, values, eps=1e-5):
    """Central finite differences of scalar fn w.r.t. one numpy operand."""
    grad = np.zeros_like(values)
    flat = values.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(values)
        flat[i] = orig - eps
        down = fn(values)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.abs(b), floor)


def scalarize(out, probe):
    return nd.inner(out, nd.constant(probe))


def total(a):
    """The sum of a's entries: its inner product with ones."""
    return nd.inner(a, nd.constant(np.ones(a.shape)))


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    out = nd.matmul(nd.Array(a), nd.eye(3))
    np.testing.assert_array_equal(out.data, a)


def test_relu_definition():
    # the layer max(x w + b, 0): pre-activations [[-1.5, 3.5], [3.5, -2.5]]
    x = nd.Array([[1.0, 2.0], [3.0, -1.0]])
    w = nd.Array([[1.0, 0.0], [-1.0, 2.0]])
    b = nd.Array([[-0.5, -0.5]])
    out = nd.affine_relu(x, w, b)
    np.testing.assert_array_equal(out.data, [[0.0, 3.5], [3.5, 0.0]])


def test_logdet_diagonal():
    out = nd.logdet_trinv(nd.inv_chol(nd.Array([[2.0, 0.0], [0.0, 2.0]])))
    assert out.shape == (1, 2)
    assert math.isclose(out.data[0, 0], 2.0 * math.log(2.0), rel_tol=1e-14)
    assert math.isclose(out.data[0, 1], 1.0, rel_tol=1e-14)


def test_row_log_softmax_rows_normalize():
    # the probit rule's rows are log-distributions at any variance
    rng = np.random.default_rng(1)
    mean = nd.Array(rng.standard_normal((5, 7)))
    for variance in (np.zeros((5, 1)), rng.uniform(0.0, 4.0, (5, 1))):
        out = nd.probit_log_softmax(mean, nd.Array(variance))
        sums = np.exp(out.data).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_rsqrt_shift_values():
    # row i is log softmax(mean_i / sqrt(1 + alpha variance_i))
    alpha = math.pi / 8
    mean = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 0.0]])
    x = np.array([[0.0], [1.0], [4.0]])
    out = nd.probit_log_softmax(nd.Array(mean), nd.Array(x))
    scaled = mean / np.sqrt(1.0 + alpha * x)
    want = scaled - np.log(np.exp(scaled).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(out.data, want, rtol=1e-14)


def test_rsqrt_shift_clamps_round_off_negativity():
    # a variance in [VARIANCE_CLAMP, 0) reads as zero: its row is the one
    # at zero variance and its gradient exactly 0; positive entries keep
    # the plain formula
    alpha = math.pi / 8
    mean = nd.Array(np.random.default_rng(2).standard_normal((4, 3)))
    x = np.array([[VARIANCE_CLAMP], [-1e-15], [0.5], [3.0]])
    tape = nd.Tape()
    leaf = tape.leaf(nd.Array(x))
    out = nd.probit_log_softmax(mean, leaf)
    grad = nd.backward(tape, total(out))[tape.node_id(leaf)].data
    at_zero = nd.probit_log_softmax(mean, nd.zeros((4, 1))).data
    assert out.data[:2].tobytes() == at_zero[:2].tobytes()
    assert grad[:2, 0].tolist() == [0.0, 0.0] and (grad[2:] != 0.0).all()
    scaled = mean.data[2:] / np.sqrt(1.0 + alpha * x[2:])
    want = scaled - np.log(np.exp(scaled).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(out.data[2:], want, rtol=1e-14)


def test_probit_rule_raises_below_the_clamp():
    # the primitive holds the whole rule: a variance below the round-off
    # clamp is a broken posterior solve, not a row at zero variance
    mean = nd.Array(np.zeros((2, 3)))
    for low in (np.nextafter(VARIANCE_CLAMP, -1.0), -5.0):
        with pytest.raises(nd.NonFiniteError, match="negative predictive variance"):
            nd.probit_log_softmax(mean, nd.Array([[0.5], [low]]))


def test_row_gather_and_sum_axes():
    # rows are gathered as the outer loss picks labels: an inner product
    # with a one-hot mask over axis 1; a sum is an inner product with ones
    a = nd.Array([[1.0, 2.0], [3.0, 4.0]])
    picked = nd.inner(a, nd.Array([[0.0, 1.0], [1.0, 0.0]]), axis=1)
    np.testing.assert_array_equal(picked.data, [[2.0], [3.0]])
    ones = nd.Array(np.ones((2, 2)))
    np.testing.assert_array_equal(nd.inner(a, ones).data, [[10.0]])
    np.testing.assert_array_equal(nd.inner(a, ones, axis=1).data, [[3.0], [7.0]])
    with pytest.raises(nd.ShapeError, match="axis"):
        nd.inner(a, ones, axis=0)
    with pytest.raises(nd.ShapeError, match="inner"):
        nd.inner(a, nd.Array([[1.0, 1.0]]))


def test_shape_mismatch_raises():
    with pytest.raises(nd.ShapeError):
        nd.matmul(nd.zeros((2, 3)), nd.zeros((2, 3)))
    with pytest.raises(nd.ShapeError):
        nd.add(nd.zeros((2, 3)), nd.zeros((3, 2)))


def test_non_finite_result_is_error():
    big = nd.Array(np.full((2, 2), 1e200))
    with pytest.raises(nd.NonFiniteError):
        nd.inner(big, big)
    with pytest.raises(nd.NonFiniteError):
        nd.Array([[float("nan")]])


# ---------------------------------------------------------------------------
# cholesky (the factor node W = L^{-1} that every solve, quadratic form and
# log-det reads)
# ---------------------------------------------------------------------------

def solve(w, b):
    """S^{-1} b = W^T (W b), as the posterior solves."""
    return nd.matmul(w, nd.matmul(w, b), trans_a=True)


def test_cholesky_identity():
    np.testing.assert_array_equal(nd.inv_chol(nd.eye(3)).data, np.eye(3))


def test_cholesky_hand_recurrence():
    # hand recurrence on [[4,2],[2,3]]: l11=2, l21=1, l22=sqrt(2), so
    # W = L^{-1} has w11=1/2, w21=-1/(2 sqrt 2), w22=1/sqrt 2
    out = nd.inv_chol(nd.Array([[4.0, 2.0], [2.0, 3.0]])).data
    expect = np.array([[0.5, 0.0],
                       [-1.0 / (2.0 * math.sqrt(2.0)), 1.0 / math.sqrt(2.0)]])
    np.testing.assert_allclose(out, expect, rtol=1e-15)


def test_cholesky_indefinite_raises():
    with pytest.raises(nd.NonSPDError, match="jitter retry failed"):
        nd.inv_chol(nd.Array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_jitter_rescues_singular_psd():
    # each factor node records its own retry; a healthy one records none
    singular = nd.inv_chol(nd.Array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.all(np.diag(singular.data) > 0)
    assert nd._retries_of(singular) == 1
    healthy = nd.inv_chol(nd.Array([[2.0, 1.0], [1.0, 2.0]]))
    assert nd._retries_of(healthy) == 0 and nd._retries_of(singular) == 1
    # products with the node are plain nodes, with no retry of their own
    assert nd._retries_of(nd.matmul(singular, singular)) == 0


def test_cholesky_reconstruction_tolerance():
    # W S W^T = I, and W is the inverse of scipy's lower factor, in C order
    rng = np.random.default_rng(7)
    for _ in range(5):
        q = rng.standard_normal((6, 6))
        a = q @ q.T + 6 * np.eye(6)
        w = nd.inv_chol(nd.Array(a)).data
        assert w.flags.c_contiguous and not w.flags.writeable
        assert np.linalg.norm(w @ a @ w.T - np.eye(6)) <= 1e-12
        chol = scipy.linalg.cholesky(a, lower=True)
        assert np.linalg.norm(np.linalg.inv(w) - chol) <= 1e-12 * np.linalg.norm(chol)
        assert not np.triu(w, 1).any()


def test_cholesky_solve_residual_well_conditioned():
    # condition number ~1e6 via controlled spectrum
    rng = np.random.default_rng(11)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = (q * np.logspace(-3, 3, 8)) @ q.T
        b = rng.standard_normal((8, 3))
        x = solve(nd.inv_chol(nd.Array(a)), nd.Array(b)).data
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10


def test_inv_quad_matches_dense_solve():
    # the quadratic forms b_j^T a^{-1} b_j as the predictive variance reads
    # them: row sums of squares of (b^T W^T)
    rng = np.random.default_rng(12)
    spectra = [np.logspace(-3, 3, 8), rng.uniform(1.0, 5.0, 8)]  # cond ~1e6, ~5
    for spectrum in spectra:
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            a = (q * spectrum) @ q.T
            b = rng.standard_normal((8, 5))
            z = nd.matmul(nd.Array(b.T), nd.inv_chol(nd.Array(a)), trans_b=True)
            out = nd.inner(z, z, axis=1).data
            expect = np.diag(b.T @ np.linalg.solve(a, b)).reshape(-1, 1)
            assert out.shape == (5, 1)
            np.testing.assert_allclose(out, expect, rtol=1e-10)


def test_inv_quad_shape_and_spd_errors():
    # the factor takes a square system, and a product with it checks the
    # other operand's shape
    with pytest.raises(nd.ShapeError, match=re.escape("inv_chol: expected a square "
                                                      "matrix, got (2, 3)")):
        nd.inv_chol(nd.zeros((2, 3)))
    with pytest.raises(nd.ShapeError, match="logdet_trinv"):
        nd.logdet_trinv(nd.zeros((2, 3)))
    with pytest.raises(nd.ShapeError, match="matmul"):
        nd.matmul(nd.inv_chol(nd.eye(3)), nd.zeros((2, 4)))
    with pytest.raises(nd.NonSPDError):
        nd.inv_chol(nd.Array([[1.0, 2.0], [2.0, 1.0]]))


def test_non_finite_factor_raises_with_its_retry(monkeypatch):
    # a W that trtri leaves non-finite raises where it is made, and the
    # error carries whether its factorization took the jitter retry
    real = scipy.linalg.lapack.dtrtri
    monkeypatch.setattr(scipy.linalg.lapack, "dtrtri",
                        lambda c, **kw: (real(c, **kw)[0] * np.inf, 0))
    for system, retried in (([[2.0, 1.0], [1.0, 2.0]], 0), ([[1.0, 1.0], [1.0, 1.0]], 1)):
        with pytest.raises(nd.NonFiniteError, match="inv_chol") as raised:
            nd.inv_chol(nd.Array(system))
        assert raised.value.retries == retried


# ---------------------------------------------------------------------------
# adjoints vs central finite differences
# ---------------------------------------------------------------------------

def check_primitive_gradient(make_operands, build, n_points=20, tol=1e-5, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        operands = make_operands(rng)
        out_shape = build(*[nd.Array(o) for o in operands]).shape
        probe = rng.standard_normal(out_shape)

        def value(k, vals, operands=operands):
            ops = [o if j != k else vals for j, o in enumerate(operands)]
            out = build(*[nd.Array(o) for o in ops])
            return float((out.data * probe).sum())

        tape = nd.Tape()
        leaves = [tape.leaf(nd.Array(o)) for o in operands]
        loss = scalarize(build(*leaves), probe)
        grads = nd.backward(tape, loss)
        for k, leaf in enumerate(leaves):
            ad = grads[tape.node_id(leaf)].data
            fd = fd_gradient(lambda v, k=k: value(k, v), operands[k].copy())
            assert rel_err(ad, fd).max() <= tol, f"operand {k}"


def test_grad_matmul():
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)), rng.standard_normal((4, 2))),
        lambda a, b: nd.matmul(a, b))


@pytest.mark.parametrize("trans_a,trans_b", [(True, False), (False, True),
                                             (True, True)])
def test_grad_matmul_transposed_operands(trans_a, trans_b):
    shape_a = (4, 3) if trans_a else (3, 4)
    shape_b = (2, 4) if trans_b else (4, 2)
    check_primitive_gradient(
        lambda rng: (rng.standard_normal(shape_a), rng.standard_normal(shape_b)),
        lambda a, b: nd.matmul(a, b, trans_a=trans_a, trans_b=trans_b))


@pytest.mark.parametrize("flag", ["trans_a", "trans_b"])
def test_grad_gram_of_one_leaf(flag):
    # the leaf sits in both slots, as Phi does in the posterior's Gram
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)),),
        lambda a: nd.matmul(a, a, **{flag: True}))


@pytest.mark.parametrize("flag", ["trans_a", "trans_b"])
def test_gram_adjoint_is_one_product(monkeypatch, flag):
    # a^T a or a a^T of one buffer: backward makes one product, a (g + g^T)
    # or (g + g^T) a, which is the two partials' sum to round-off, and a
    # central difference agrees with it
    rng = np.random.default_rng(21)
    a_val = rng.standard_normal((50, 30))
    side = 30 if flag == "trans_a" else 50
    probe = rng.standard_normal((side, side))     # no symmetry: g != g^T
    products = []
    real = _twocore._product
    monkeypatch.setattr(_twocore, "_product",
                        lambda x, y: products.append(None) or real(x, y))
    tape = nd.Tape()
    a = tape.leaf(nd.Array(a_val))
    loss = nd.inner(nd.matmul(a, a, **{flag: True}), nd.constant(probe))
    products.clear()
    got = nd.backward(tape, loss)[tape.node_id(a)].data
    assert len(products) == 1
    two = a_val @ probe.T + a_val @ probe if flag == "trans_a" else probe @ a_val + probe.T @ a_val
    np.testing.assert_allclose(got, two, rtol=0, atol=1e-13 * np.abs(two).max())
    check_primitive_gradient(lambda rng: (rng.standard_normal((6, 4)),),
                             lambda x: nd.matmul(x, x, **{flag: True}), n_points=5, seed=3)


def test_shape_error_names_the_oriented_shapes():
    with pytest.raises(nd.ShapeError, match=re.escape("matmul: (3, 2) @ (3, 2)")):
        nd.matmul(nd.zeros((2, 3)), nd.zeros((3, 2)), trans_a=True)
    with pytest.raises(nd.ShapeError, match=re.escape("matmul: (2, 3) @ (2, 3)")):
        nd.matmul(nd.zeros((2, 3)), nd.zeros((3, 2)), trans_b=True)


def test_grad_add_sub_broadcast():
    # a - b is add(a, scale(b, -1)); add does not broadcast
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)), rng.standard_normal((3, 4))),
        lambda a, b: nd.add(a, b), n_points=5)
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)), rng.standard_normal((3, 4))),
        lambda a, b: nd.add(a, nd.scale(b, -1.0)), n_points=5)
    for shape_b in [(1, 4), (3, 1), (1, 1)]:
        with pytest.raises(nd.ShapeError, match="add"):
            nd.add(nd.zeros((3, 4)), nd.zeros(shape_b))


def test_grad_scale():
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)),),
        lambda a: nd.scale(a, -2.5))


def test_grad_relu():
    # the layer's three operands, at samples whose pre-activations keep
    # away from the kink
    def operands(rng):
        while True:
            x, w, b = (rng.standard_normal(shape) for shape in ((3, 4), (4, 5), (1, 5)))
            if np.abs(x @ w + b).min() > 0.2:
                return x, w, b

    check_primitive_gradient(operands, lambda x, w, b: nd.affine_relu(x, w, b))


def test_grad_row_log_softmax():
    # at zero variance the probit rule is the row log-softmax of the mean
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 5)),),
        lambda a: nd.probit_log_softmax(a, nd.zeros((3, 1))))


def test_grad_rsqrt_shift():
    # the variance's gradient, through the shift, at a fixed mean
    mean = nd.Array(np.random.default_rng(5).standard_normal((5, 3)))
    check_primitive_gradient(
        lambda rng: (rng.uniform(0.05, 4.0, (5, 1)),),
        lambda v: nd.probit_log_softmax(mean, v))


def test_grad_probit_log_softmax():
    # both operands, at variances away from the clamp's kink at zero
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((4, 3)), rng.uniform(0.05, 4.0, (4, 1))),
        lambda m, v: nd.probit_log_softmax(m, v))


def _old_probit_composition(mean, variance, g, alpha):
    """The probit rule as the three primitives it replaced wrote it: the
    shift 1/sqrt(1 + alpha max(v, 0)), the broadcast product and the row
    log-softmax, then their adjoints in reverse: (out, d mean, d variance)
    for the incoming gradient g."""
    shift = 1.0 / np.sqrt(1.0 + alpha * np.maximum(variance, 0.0))
    scaled = mean * shift
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    g_scaled = g - np.exp(out) * g.sum(axis=1, keepdims=True)
    g_mean = g_scaled * shift
    g_shift = (g_scaled * mean).sum(axis=1, keepdims=True)
    g_var = -0.5 * alpha * shift ** 3 * g_shift * (variance > 0.0)
    return out, g_mean, g_var


@pytest.mark.parametrize("k", [1, 4])
def test_probit_log_softmax_is_the_old_composition_bit_for_bit(k):
    # variances in [VARIANCE_CLAMP, 0), at 0 and above it
    rng = np.random.default_rng(30 + k)
    alpha = math.pi / 8
    mean_val = rng.standard_normal((7, k)) * 3.0
    var_val = np.array([[VARIANCE_CLAMP], [-1e-15], [0.0], [1e-9], [0.3],
                        [2.0], [50.0]])
    g = rng.standard_normal((7, k))
    tape = nd.Tape()
    mean, variance = tape.leaf(nd.Array(mean_val)), tape.leaf(nd.Array(var_val))
    out = nd.probit_log_softmax(mean, variance)
    grads = nd.backward(tape, nd.inner(out, nd.Array(g)))
    want = _old_probit_composition(mean_val, var_val, g, alpha)
    got = (out.data, grads[tape.node_id(mean)].data, grads[tape.node_id(variance)].data)
    for w, x in zip(want, got):
        assert x.shape == w.shape and x.tobytes() == w.tobytes()


def spd_operand(rng, m=4):
    q = rng.standard_normal((m, m))
    return q @ q.T + m * np.eye(m)


def test_grad_inv_chol():
    # the factor node alone: a central difference steps one entry of S,
    # which the forward symmetrizes, so it reads the symmetrized adjoint
    check_primitive_gradient(lambda rng: (spd_operand(rng),), nd.inv_chol)


@pytest.mark.parametrize("m", [1, 7, 256])
def test_inv_chol_vjp_is_the_tril_expression_bit_for_bit(m):
    # the adjoint keeps Phi in the first product's buffer and the sum in
    # Phi's: the bits of the expression that copies with `np.tril` and sums
    # into a fresh buffer (at m = 256 the products are cut in halves)
    rng = np.random.default_rng(m)
    _, saved = nd._fwd_inv_chol(spd_operand(rng, m))
    w, g = saved[0], rng.standard_normal((m, m))
    x = np.tril(_twocore._product(g, w.T))
    x[np.diag_indices_from(x)] *= 0.5
    y = _twocore._product(w.T, _twocore._product(x, w))
    want = y + y.T
    want *= -0.5
    got, = nd._vjp_inv_chol(g, saved, (True,))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_grad_cholesky_solve():
    # the solve S^{-1} b as the posterior composes it, through the node
    check_primitive_gradient(
        lambda rng: (spd_operand(rng), rng.standard_normal((4, 3))),
        lambda a, b: solve(nd.inv_chol(a), b))


def test_grad_logdet():
    # the W-side primitive alone, on lower triangles with a positive
    # diagonal; the random probe weights both columns, log det S and Tr S^{-1}
    def operands(rng):
        w = np.tril(rng.standard_normal((4, 4)))
        w[np.diag_indices(4)] = rng.uniform(0.5, 2.0, 4)
        return (w,)

    check_primitive_gradient(operands, nd.logdet_trinv)
    check_primitive_gradient(lambda rng: (spd_operand(rng),),
                             lambda a: nd.logdet_trinv(nd.inv_chol(a)), n_points=5)


def test_grad_inv_quad():
    # the quadratic forms of b's rows, as the predictive variance reads them
    def quad(a, b):
        z = nd.matmul(b, nd.inv_chol(a), trans_b=True)
        return nd.inner(z, z, axis=1)

    check_primitive_gradient(
        lambda rng: (spd_operand(rng), rng.standard_normal((3, 4))), quad)


def test_grad_sum_axes():
    # a sum, over all entries or per row, is an inner product with ones
    ones = nd.Array(np.ones((3, 4)))
    for axis in [None, 1]:
        check_primitive_gradient(
            lambda rng: (rng.standard_normal((3, 4)),),
            lambda a, ax=axis: nd.inner(a, ones, axis=ax), n_points=7)


@pytest.mark.parametrize("axis", [None, 1])
def test_sum_of_squares_makes_one_gradient_buffer(axis):
    # inner(a, a) hands backward its two equal partials already summed, as
    # one buffer bit for bit the sum of the two, in float64 and float32
    rng = np.random.default_rng(6)
    for dtype in (np.float64, np.float32):
        a = rng.standard_normal((5, 4)).astype(dtype)
        g = rng.standard_normal((1, 1) if axis is None else (5, 1)).astype(dtype)
        parts = nd._vjp_inner(g, (a, a), (True, True))
        assert parts[1] is None and parts[0].dtype == dtype
        assert parts[0].tobytes() == (g * a + g * a).tobytes()


@pytest.mark.parametrize("axis", [None, 1])
def test_grad_inner(axis):
    # each operand, and one leaf passed as both, as ||r||^2 passes it
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)), rng.standard_normal((3, 4))),
        lambda a, b: nd.inner(a, b, axis=axis), n_points=7)
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)),),
        lambda a: nd.inner(a, a, axis=axis), n_points=7)


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------

def test_backward_identity_chain():
    tape = nd.Tape()
    x = tape.leaf(nd.Array([[3.0]]))
    grads = nd.backward(tape, x)
    assert grads[tape.node_id(x)].item() == 1.0


def test_backward_matmul_vs_fd():
    rng = np.random.default_rng(3)
    a_val = rng.standard_normal((3, 4))
    b_val = rng.standard_normal((4, 2))
    tape = nd.Tape()
    a = tape.leaf(nd.Array(a_val))
    b = nd.Array(b_val)
    loss = total(nd.matmul(a, b))
    ad = nd.backward(tape, loss)[tape.node_id(a)].data

    def f(v):
        return float((v @ b_val).sum())

    fd = fd_gradient(f, a_val.copy())
    assert rel_err(ad, fd, floor=1e-8).max() <= 1e-6


def test_backward_logdet_is_symmetrized_inverse():
    # the adjoint of log det a is a^{-1}, and that of Tr a^{-1} is -a^{-2},
    # through the factor node: exactly symmetric, as the node's adjoint is a
    # sum with its transpose
    rng = np.random.default_rng(4)
    for m in (3, 40):
        q = rng.standard_normal((m, m))
        a_val = q @ q.T + m * np.eye(m)
        inv = np.linalg.inv(a_val)
        for weights, want in (([[1.0], [0.0]], inv), ([[0.0], [1.0]], -inv @ inv)):
            tape = nd.Tape()
            a = tape.leaf(nd.Array(a_val))
            out = nd.matmul(nd.logdet_trinv(nd.inv_chol(a)), nd.Array(weights))
            ad = nd.backward(tape, out)[tape.node_id(a)].data
            assert rel_err(ad, 0.5 * (want + want.T)).max() <= 1e-8
            assert ad.tobytes() == ad.T.tobytes()
            assert np.linalg.norm(ad - want) <= 1e-12 * np.linalg.norm(want)


def test_backward_accumulates_fanout():
    tape = nd.Tape()
    x = tape.leaf(nd.Array([[1.0, 2.0]]))
    loss = total(nd.add(x, x))
    grads = nd.backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_id(x)].data, [[2.0, 2.0]])


def test_backward_untouched_leaf_gets_zero():
    tape = nd.Tape()
    x = tape.leaf(nd.Array([[1.0]]))
    y = tape.leaf(nd.Array([[1.0, 1.0]]))
    loss = nd.scale(x, 3.0)
    grads = nd.backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_id(y)].data, [[0.0, 0.0]])


def test_backward_seed_errors():
    tape = nd.Tape()
    x = tape.leaf(nd.Array([[1.0, 2.0]]))
    with pytest.raises(nd.ShapeError):
        nd.backward(tape, x)
    with pytest.raises(nd.NdiffError):
        nd.backward(tape, nd.Array([[1.0]]))


def test_constants_get_no_gradient_work():
    tape = nd.Tape()
    x = tape.leaf(nd.Array([[1.0, 2.0]]))
    c = nd.Array([[3.0, 4.0]])  # constant: never watched
    loss = nd.inner(x, c)
    grads = nd.backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_id(x)].data, [[3.0, 4.0]])
    assert tape.node_id(c) is None


def test_tape_replay_deterministic():
    def run():
        rng = np.random.default_rng(42)
        tape = nd.Tape()
        a = tape.leaf(nd.Array(rng.standard_normal((4, 4))))
        b = tape.leaf(nd.Array(rng.standard_normal((4, 2))))
        w = nd.inv_chol(nd.add(nd.eye(4), nd.matmul(a, a, trans_b=True)))
        x = solve(w, b)
        loss = nd.add(total(nd.affine_relu(x, nd.eye(2), nd.zeros((1, 2)))),
                      total(nd.logdet_trinv(w)))
        grads = nd.backward(tape, loss)
        return loss.item(), grads[tape.node_id(a)].data.copy(), grads[tape.node_id(b)].data.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(ga1, ga2)
    np.testing.assert_array_equal(gb1, gb2)


# ---------------------------------------------------------------------------
# which tape an op records on
# ---------------------------------------------------------------------------

def test_op_on_constants_is_not_recorded():
    tape = nd.Tape()
    x = tape.leaf(nd.Array([[1.0, 2.0]]))
    c = nd.Array([[3.0, 4.0]])
    doubled = nd.add(c, c)
    assert tape.records == [] and tape.node_id(doubled) is None
    loss = nd.inner(x, doubled)
    assert [op for op, *_ in tape.records] == ["inner"]
    grads = nd.backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_id(x)].data, [[6.0, 8.0]])


def test_operands_from_two_live_tapes_raise():
    first, second = nd.Tape(), nd.Tape()
    x = first.leaf(nd.Array([[1.0]]))
    y = second.leaf(nd.Array([[2.0]]))
    with pytest.raises(nd.NdiffError, match="two live tapes"):
        nd.add(x, y)


def test_nodes_of_a_dropped_tape_act_as_constants():
    tape = nd.Tape()
    y = nd.scale(tape.leaf(nd.Array([[2.0]])), 3.0)
    dropped = weakref.ref(tape)
    del tape
    assert dropped() is None  # nodes hold their tape weakly: it is freed at once
    other = nd.Tape()
    z = other.leaf(nd.Array([[5.0]]))
    out = nd.inner(y, z)  # y is a constant now, not a node of a second tape
    assert other.node_id(y) is None and len(other.records) == 1
    assert nd.backward(other, out)[other.node_id(z)].item() == 6.0
    nd.scale(y, 2.0)
    assert len(other.records) == 1


def _saved_buffers(saved):
    for item in saved:
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, tuple):
            yield from _saved_buffers(item)


def test_gradients_share_no_memory_with_saved_buffers():
    # add passes the incoming gradient through unchanged; every other
    # vjp returns a fresh buffer that backward adopts without a copy
    rng = np.random.default_rng(17)
    tape = nd.Tape()
    a = tape.leaf(nd.Array(rng.standard_normal((4, 3))))
    b = tape.leaf(nd.Array(rng.standard_normal((3, 3))))
    c = tape.leaf(nd.Array(rng.standard_normal((1, 3))))
    w = nd.inv_chol(nd.add(nd.matmul(b, b, trans_a=True), nd.eye(3)))
    h = nd.affine_relu(a, b, c)
    h = nd.add(h, nd.scale(a, -0.5))
    z = nd.matmul(a, w, trans_b=True)
    logp = nd.probit_log_softmax(nd.matmul(h, solve(w, b)), nd.inner(z, z, axis=1))
    loss = nd.add(nd.inner(logp, h), total(nd.logdet_trinv(w)))
    grads = nd.backward(tape, loss)
    saved = [buf for record in tape.records for buf in _saved_buffers(record[3])]
    assert saved
    for grad in grads.values():
        assert not grad.data.flags.writeable
        assert not any(np.shares_memory(grad.data, buf) for buf in saved)


# ---------------------------------------------------------------------------
# float32 operands
# ---------------------------------------------------------------------------

def _float32_graph(rng):
    """A float32 leaf through every primitive that takes float32."""
    tape = nd.Tape()
    x = tape.leaf(nd.Array(rng.standard_normal((5, 4)).astype(np.float32)))
    w = tape.leaf(nd.Array(rng.standard_normal((4, 3)).astype(np.float32)))
    b = tape.leaf(nd.Array(rng.standard_normal((1, 3)).astype(np.float32)))
    unused = tape.leaf(nd.Array(np.ones((2, 2), np.float32)))
    h = nd.affine_relu(x, w, b)
    h = nd.add(nd.matmul(h, w, trans_b=True), nd.scale(x, -0.5))
    loss = nd.scale(nd.inner(h, h), 0.25)
    return tape, loss, (x, w, b, unused)


def test_float32_ops_and_their_gradients_stay_float32():
    tape, loss, leaves = _float32_graph(np.random.default_rng(30))
    assert loss.data.dtype == np.float32
    grads = nd.backward(tape, loss)
    for leaf in leaves:
        grad = grads[tape.node_id(leaf)].data
        assert grad.dtype == np.float32 and grad.shape == leaf.shape
    assert not grads[tape.node_id(leaves[3])].data.any()


@pytest.mark.parametrize("op", [
    lambda a, b: nd.matmul(a, b), lambda a, b: nd.add(a, b),
    lambda a, b: nd.inner(a, b), lambda a, b: nd.affine_relu(a, b, nd.zeros((1, 3))),
])
def test_mixed_operand_dtypes_raise(op):
    a = nd.Array(np.ones((3, 3)))
    b = nd.Array(np.ones((3, 3), np.float32))
    with pytest.raises(nd.NdiffError, match="mixed operand dtypes"):
        op(a, b)
    with pytest.raises(nd.NdiffError, match="mixed operand dtypes"):
        op(b, a)


def test_spd_primitives_and_probit_take_float64_alone(monkeypatch):
    factored = []
    monkeypatch.setattr(scipy.linalg, "cholesky", lambda *a, **kw: factored.append(a))
    a32 = nd.Array((np.eye(3) * 2.0).astype(np.float32))
    b32 = nd.Array(np.ones((3, 2), np.float32))
    calls = [lambda: nd.inv_chol(a32), lambda: nd.logdet_trinv(a32),
             lambda: nd.probit_log_softmax(b32, nd.Array(np.ones((3, 1), np.float32)))]
    for call in calls:
        with pytest.raises(nd.NdiffError, match="takes float64 operands, got float32"):
            call()
    assert factored == []       # rejected before any factorization


# (m, n, k) at most 15% above SPLIT_WORK: the output's columns are whole
# 16-float registers, and cut, or only whole 8-double ones, and not cut
FLOAT32_PRODUCTS = [((129, 64, 509), 1), ((17, 2064, 121), 1), ((1001, 512, 9), 1),
                    ((40, 264, 401), 0), ((1001, 520, 9), 0)]


@pytest.mark.parametrize("shape,cuts", FLOAT32_PRODUCTS)
def test_float32_product_is_bit_equal_on_one_core_or_two(halves_calls, monkeypatch,
                                                         shape, cuts):
    m, n, k = shape
    assert _twocore.SPLIT_WORK <= m * n * k <= 1.15 * _twocore.SPLIT_WORK
    assert n % 16 == (0 if cuts else 8)
    rng = np.random.default_rng(m + n + k)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    two = _twocore._product(a, b)
    assert len(halves_calls) == cuts
    assert two.dtype == np.float32 and two.flags.c_contiguous
    monkeypatch.setattr(_twocore, "_worker", False)
    assert _twocore._product(a, b).tobytes() == two.tobytes() == (a @ b).tobytes()


def test_window_counts_a_float32_buffer_as_half():
    with nd.track_allocations() as window:
        kept = nd.zeros((10, 10), np.float32)
        assert window.live == window.peak == window.largest_block == 50
        also = nd.Array(np.ones((3, 3), np.float32))
        assert window.live == 54.5 and window.largest_block == 50
        del kept, also
    assert window.live == 0 and window.peak == 54.5


def _float32_layer_between_casts(x, w, b):
    return nd.cast(nd.affine_relu(nd.cast(x, np.float32), w, b), np.float64)


def test_grad_through_a_float32_layer_between_casts():
    # float64 -> float32 -> float64, as the coreset runs through a float32
    # pool slot. The difference steps the rounded input, so its step is
    # wider than the other checks' (at 1e-2 it crosses ReLU kinks); over
    # seeds 0-19 the largest error, relative to the largest entry, read
    # 1.7e-4 at eps = 1e-3 and 1.7e-2 at 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 5))
        w = nd.Array(rng.standard_normal((5, 3)).astype(np.float32))
        b = nd.Array(rng.standard_normal((1, 3)).astype(np.float32))
        probe = rng.standard_normal((4, 3))
        tape = nd.Tape()
        leaf = tape.leaf(nd.Array(x))
        loss = scalarize(_float32_layer_between_casts(leaf, w, b), probe)
        ad = nd.backward(tape, loss)[tape.node_id(leaf)].data
        fd = fd_gradient(lambda v: float(
            (_float32_layer_between_casts(nd.Array(v), w, b).data * probe).sum()),
            x.copy(), eps=1e-3)
        assert ad.dtype == np.float64
        assert np.abs(ad - fd).max() <= 5e-4 * np.abs(fd).max(), seed


@pytest.mark.parametrize("dtype, to", [(np.float64, np.float32), (np.float32, np.float64)])
def test_cast_gradient_takes_the_operand_dtype(dtype, to):
    tape = nd.Tape()
    x = tape.leaf(nd.Array(np.arange(6.0).reshape(2, 3).astype(dtype)))
    out = nd.cast(x, to)
    assert out.data.dtype == to
    loss = nd.inner(out, nd.constant(np.ones(out.shape, to)))
    grad = nd.backward(tape, loss)[tape.node_id(x)].data
    assert grad.dtype == dtype and (grad == 1.0).all()


def test_cast_output_is_adopted_without_a_second_copy(monkeypatch):
    made = []
    fwd, vjp, arity = nd._REGISTRY["cast"]

    def recording_fwd(*args, **params):
        out, saved = fwd(*args, **params)
        made.append(out)
        return out, saved

    monkeypatch.setitem(nd._REGISTRY, "cast", (recording_fwd, vjp, arity))
    x = nd.Array(np.random.default_rng(31).standard_normal((40, 30)))
    with nd.track_allocations() as window:
        out = nd.cast(x, np.float32)
    assert out.data is made[0] and out.data.flags.c_contiguous
    assert window.peak == window.largest_block == 40 * 30 / 2


def test_cast_beyond_float32_raises_with_no_warning():
    # the forward and the vjp apply `_checked_cast`, the rule a float32 net's
    # inputs are cast by: the error names float32's range and the largest
    # finite magnitude, where numpy would warn and give inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nd.NonFiniteError,
                           match="cast operand beyond float32's range: "
                                 "largest magnitude 1.000e\\+39"):
            nd.cast(nd.Array(np.array([[1.0, -1e39]])), np.float32)
        tape = nd.Tape()
        x = tape.leaf(nd.Array(np.ones((1, 2), np.float32)))
        loss = nd.scale(total(nd.cast(x, np.float64)), 1e300)
        with pytest.raises(nd.NonFiniteError, match="cast gradient beyond float32's range"):
            nd.backward(tape, loss)
    with pytest.raises(nd.NdiffError, match="to float32 or float64, got int32"):
        nd.cast(nd.Array(np.ones((1, 2))), np.int32)


# ---------------------------------------------------------------------------
# two halves
# ---------------------------------------------------------------------------

def test_cut_is_a_multiple_of_lanes_near_the_middle():
    lanes = _twocore.LANES
    for size in range(4096):
        mid = _twocore._cut(size)
        assert (mid == 0) == (size < 2 * lanes)
        if mid:
            assert mid % lanes == 0 and min(mid, size - mid) >= lanes
            assert abs((size - mid) - mid) <= lanes


# (m, n, k) of op(a) @ op(b), each at most 10% above SPLIT_WORK: odd rows
# cut through the rows, one into halves of 16 and 15 rows, odd inner and
# row sizes cut through the columns, two whose output columns are no whole
# number of LANES, never cut, and 24 rows cut into halves of 16 and 8 (the
# smallest share a half can get)
PRODUCTS = [((129, 64, 509), 1), ((1001, 512, 9), 1), ((31, 8, 16913), 1),
            ((40, 264, 401), 1), ((17, 2056, 121), 1), ((129, 65, 509), 0),
            ((1001, 511, 9), 0), ((24, 8, 21846), 1)]


@pytest.mark.parametrize("trans_a", [False, True])
@pytest.mark.parametrize("trans_b", [False, True])
@pytest.mark.parametrize("shape,cuts", PRODUCTS)
def test_cut_product_is_bit_equal_to_matmul(halves_calls, trans_a, trans_b, shape, cuts):
    m, n, k = shape
    assert _twocore.SPLIT_WORK <= m * n * k <= 1.1 * _twocore.SPLIT_WORK
    rng = np.random.default_rng(m + n + k)
    a = rng.standard_normal((k, m) if trans_a else (m, k))
    b = rng.standard_normal((n, k) if trans_b else (k, n))
    op_a, op_b = (a.T if trans_a else a), (b.T if trans_b else b)
    got = _twocore._product(op_a, op_b)
    assert len(halves_calls) == cuts
    assert got.flags.c_contiguous and got.tobytes() == (op_a @ op_b).tobytes()
    # the primitive and its adjoint: every product in them takes the cut
    tape = nd.Tape()
    la, lb = tape.leaf(nd.Array(a)), tape.leaf(nd.Array(b))
    out = nd.matmul(la, lb, trans_a=trans_a, trans_b=trans_b)
    g = rng.standard_normal((m, n))
    grads = nd.backward(tape, nd.inner(out, nd.Array(g)))
    ga = op_b @ g.T if trans_a else g @ op_b.T
    gb = g.T @ op_a if trans_b else op_a.T @ g
    assert out.data.tobytes() == got.tobytes()
    assert grads[tape.node_id(la)].data.tobytes() == ga.tobytes()
    assert grads[tape.node_id(lb)].data.tobytes() == gb.tobytes()


@pytest.mark.parametrize("flag", ["trans_a", "trans_b"])
def test_product_of_a_buffer_with_itself_is_never_cut(halves_calls, flag):
    a = np.random.default_rng(3).standard_normal((512, 200))
    one = nd.Array(a)
    gram = nd.matmul(one, one, **{flag: True}).data
    assert halves_calls == []
    want = a.T @ a if flag == "trans_a" else a @ a.T
    assert gram.tobytes() == want.tobytes()
    np.testing.assert_array_equal(gram, gram.T)    # numpy's syrk, exactly symmetric


# (m, n) of the m x m factor and the m x n right-hand sides, at most 10%
# above SPLIT_WORK; n = 420 is no whole number of LANES, so it is never cut
SOLVES = [((64, 1024), 1), ((136, 232), 1), ((256, 64), 1), ((100, 420), 0)]


def _solve_and_quad(a_val, b_val):
    """The solve S^{-1} b and the quadratic forms' sum ||W b||_F^2 through
    the factor node, forward and adjoint: the loss and the gradients of
    both operands, as bytes."""
    tape = nd.Tape()
    a, b = tape.leaf(nd.Array(a_val)), tape.leaf(nd.Array(b_val))
    w = nd.inv_chol(a)
    z = nd.matmul(w, b)
    loss = nd.add(nd.inner(z, z), total(nd.matmul(w, z, trans_a=True)))
    grads = nd.backward(tape, loss)
    return [loss.data.tobytes()] + [grads[tape.node_id(x)].data.tobytes()
                                    for x in (a, b)]


@pytest.mark.parametrize("op", ["N", "T", "S"])
@pytest.mark.parametrize("shape,cuts", SOLVES)
def test_cut_solve_is_bit_equal_to_scipy(halves_calls, monkeypatch, op, shape, cuts):
    # every solve is a product with the node W = L^{-1}, which scipy's
    # dtrtri makes: the cut solve is bit for bit the whole product with
    # that W, on the second core or not, and agrees with scipy's triangular
    # and Cholesky solves to rounding
    m, n = shape
    assert _twocore.SPLIT_WORK <= m * m * n <= 1.1 * _twocore.SPLIT_WORK
    rng = np.random.default_rng(m + n)
    q = rng.standard_normal((m, m))
    a_val = q @ q.T / m + np.eye(m)
    w = nd.inv_chol(nd.Array(a_val))
    chol = scipy.linalg.cholesky(a_val, lower=True)
    products = {"N": lambda b: nd.matmul(w, b), "T": lambda b: nd.matmul(w, b, trans_a=True),
                "S": lambda b: solve(w, b)}[op]
    whole = {"N": lambda b: w.data @ b, "T": lambda b: w.data.T @ b,
             "S": lambda b: w.data.T @ (w.data @ b)}[op]
    rhs = (rng.standard_normal((m, n)), rng.standard_normal((n, m)).T)
    halves_calls.clear()
    got = [products(nd.Array(b)).data for b in rhs]
    # one cut per product: one for "N" and "T", two for "S"
    assert len(halves_calls) == len(rhs) * (2 if op == "S" else 1) * cuts
    for b, x in zip(rhs, got):
        if op == "S":
            want = scipy.linalg.cho_solve((chol, True), b)
        else:
            want = scipy.linalg.solve_triangular(chol, b, lower=True, trans=op)
        assert x.flags.c_contiguous and x.tobytes() == whole(b).tobytes()
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    monkeypatch.setattr(_twocore, "_worker", False)
    for b, x in zip(rhs, got):
        assert products(nd.Array(b)).data.tobytes() == x.tobytes()


def test_inv_quad_and_cholesky_solve_cut_their_solves(halves_calls, monkeypatch):
    # the solve's and the quadratic forms' products with W at a cut size,
    # forward and adjoint: two products forward and four in the adjoints
    # (the node's own three, m^3 each, stay below the cut), each bit-equal
    # to the serial run
    rng = np.random.default_rng(21)
    q = rng.standard_normal((64, 64))
    a_val = q @ q.T / 64 + np.eye(64)
    b_val = rng.standard_normal((64, 1024))
    two = _solve_and_quad(a_val, b_val)
    assert len(halves_calls) == 6
    w = nd.inv_chol(nd.Array(a_val)).data
    z = nd.matmul(nd.inv_chol(nd.Array(a_val)), nd.Array(b_val))
    assert z.data.tobytes() == (w @ b_val).tobytes()
    z_ref = scipy.linalg.solve_triangular(np.linalg.cholesky(a_val), b_val, lower=True)
    np.testing.assert_allclose(nd.inner(z, z).item(), (z_ref * z_ref).sum(), rtol=1e-12)
    monkeypatch.setattr(_twocore, "_worker", False)
    assert _solve_and_quad(a_val, b_val) == two


def test_inv_quad_gradient_of_b_is_adopted_without_a_copy(monkeypatch):
    # the products with W write C order, and so does matmul's adjoint, so
    # the gradient of b (and the solve's result) is that very buffer; the
    # gradient is the only one of its size the window sees (a Fortran-order
    # one was copied, and its copy counted instead)
    made = {}
    fwd, vjp, arity = nd._REGISTRY["matmul"]

    def recording_fwd(*args, **params):
        out, saved = fwd(*args, **params)
        made["fwd"] = out
        return out, saved

    def recording_vjp(g, saved, needs):
        parts = vjp(g, saved, needs)
        made["vjp"] = parts
        return parts

    monkeypatch.setitem(nd._REGISTRY, "matmul", (recording_fwd, recording_vjp, arity))
    rng = np.random.default_rng(22)
    q = rng.standard_normal((50, 50))
    w = nd.inv_chol(nd.Array(q @ q.T + 50 * np.eye(50)))
    # b in the solve W^T (W b), and as the rows whose forms the variance reads
    for rows, shape in ((False, (50, 200)), (True, (200, 50))):
        tape = nd.Tape()
        b = tape.leaf(nd.Array(rng.standard_normal(shape)))
        out = nd.matmul(b, w, trans_b=True) if rows else solve(w, b)
        assert out.data is made["fwd"] and out.data.flags.c_contiguous
        with nd.track_allocations() as window:
            grad = nd.backward(tape, total(out))[tape.node_id(b)]
        # the last adjoint backward runs is the one that reaches b
        assert grad.data is made["vjp"][0 if rows else 1] and grad.data.flags.c_contiguous
        assert window.largest_block == 50 * 200


def test_worker_half_runs_under_the_callers_errstate():
    # the first half waits for the second to begin, so that the worker,
    # where there is one, runs it rather than the caller
    big = np.full((4, 4), 1e200)
    out = np.empty((4, 4))
    begun = threading.Event()
    where = []

    def second():
        where.append(threading.get_ident())
        begun.set()
        np.multiply(big, big, out=out)

    def first():
        begun.wait(timeout=30.0)
        begun.clear()

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _twocore._halves(first, second)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        _twocore._halves(first, second)
    assert np.isinf(out).all()
    on_worker = _twocore._start_worker() is not False
    assert [w != threading.get_ident() for w in where] == [on_worker] * 2


def test_caller_runs_the_half_the_worker_has_not_begun():
    # the worker is held inside one half; a second call's half waits in its
    # queue, so that call's caller runs it itself instead of waiting
    if _twocore._start_worker() is False:
        pytest.skip("one CPU: no worker")
    release = threading.Event()
    begun = threading.Event()
    runs = []

    def held():
        begun.set()
        release.wait(timeout=30.0)

    def outer_first():
        begun.wait(timeout=30.0)
        _twocore._halves(lambda: runs.append("first"),
                   lambda: runs.append(threading.get_ident()))
        release.set()

    _twocore._halves(outer_first, held)
    assert runs == ["first", threading.get_ident()]


def test_waiting_caller_runs_the_halves_the_worker_cuts():
    # the worker's half cuts its own work; the cut's first part waits until
    # its second part has begun, which only the caller, idle after its own
    # half, can begin
    if _twocore._start_worker() is False:
        pytest.skip("one CPU: no worker")
    outer_begun, inner_begun = threading.Event(), threading.Event()
    where = []

    def inner_second():
        where.append(threading.get_ident())
        inner_begun.set()

    def outer_second():
        outer_begun.set()
        _twocore._halves(lambda: inner_begun.wait(timeout=30.0), inner_second)

    _twocore._halves(lambda: outer_begun.wait(timeout=30.0), outer_second)
    assert where == [threading.get_ident()]


def _nested_halves(depth, leaves):
    """A binary tree of `_halves` calls, each leaf sleeping a little so that
    the two threads interleave; leaf i writes slot i of `leaves`."""
    def node(lo, hi, level):
        if level == depth:
            time.sleep(0.0005 * (lo % 3))
            leaves[lo] = lo
            return
        mid = (lo + hi) // 2
        _twocore._halves(lambda: node(lo, mid, level + 1),
                         lambda: node(mid, hi, level + 1))
    node(0, len(leaves), 0)


@pytest.mark.parametrize("worker", [True, False])
def test_nested_halves_from_both_threads_finish(monkeypatch, worker):
    if not worker:
        monkeypatch.setattr(_twocore, "_worker", False)
    elif _twocore._start_worker() is False:
        pytest.skip("one CPU: no worker")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            # two callers and the worker: more threads than cores
            trees = [[None] * 32 for _ in range(2)]
            runners = [threading.Thread(target=_nested_halves, args=(5, leaves),
                                        daemon=True) for leaves in trees]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=60.0)
                assert not runner.is_alive(), "nested halves deadlocked"
            assert trees == [list(range(32))] * 2
    finally:
        sys.setswitchinterval(interval)
    assert not _twocore._queue


def test_window_counts_exactly_under_two_threads():
    # buffers made and freed on several threads at once, finalizers on
    # either: no update of the window's counts may be lost
    def churn():
        for _ in range(2000):
            nd.zeros((1, 3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with nd.track_allocations() as window:
            threads = [threading.Thread(target=churn, daemon=True) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert window.live == 0 and window.largest_block == 3


def test_worker_keeps_no_buffer_of_a_finished_half():
    rng = np.random.default_rng(24)
    a, b = rng.standard_normal((300, 200)), rng.standard_normal((200, 256))
    out = _twocore._product(a, b)
    refs = [weakref.ref(x) for x in (a, b, out)]
    del a, b, out
    assert [r() for r in refs] == [None, None, None]


def test_halves_raise_the_exception_of_either():
    def fail():
        raise KeyError("half")

    for first, second in ((fail, lambda: None), (lambda: None, fail)):
        with pytest.raises(KeyError, match="half"):
            _twocore._halves(first, second)
    _twocore._halves(lambda: None, lambda: None)      # the worker is free again


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_computes_a_cut_product():
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal((300, 200)), rng.standard_normal((200, 256))
    want = (a @ b).tobytes()
    assert _twocore._product(a, b).tobytes() == want     # the worker now runs here
    pid = os.fork()
    if pid == 0:    # the child: exit 0 only if the cut product comes back right
        try:        # and, where a worker serves it, one the child started itself
            right = _twocore._product(a, b).tobytes() == want
            threads = 1 + bool(_twocore._worker)
            os._exit(0 if right and threading.active_count() == threads else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on a cut product")
    assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------
# adopting read-only buffers
# ---------------------------------------------------------------------------

def _read_only(arr):
    arr.flags.writeable = False
    return arr


def test_array_adopts_read_only_owned_c_contiguous_float64():
    values = _read_only(np.random.default_rng(0).standard_normal((3, 4)))
    assert np.shares_memory(nd.Array(values).data, values)
    assert np.shares_memory(nd.constant(values).data, values)


@pytest.mark.parametrize("make", [
    lambda x: x,                                        # writable
    lambda x: _read_only(x)[:, :2],                     # view: owns nothing
    lambda x: _read_only(np.asfortranarray(x)),         # not C-contiguous
    lambda x: _read_only(x.astype(np.float16)),         # neither float32 nor 64
    lambda x: _read_only(x.reshape(-1).copy()),         # not 2-d
])
def test_array_copies_anything_else(make):
    values = make(np.random.default_rng(1).standard_normal((3, 4)))
    arr = nd.Array(values)
    assert not np.shares_memory(arr.data, values)
    assert arr.data.dtype == np.float64
    np.testing.assert_array_equal(arr.data.ravel(),
                                  np.asarray(values, dtype=np.float64).ravel())
    assert not arr.data.flags.writeable


def test_array_adopts_and_copies_float32_as_float32():
    values = _read_only(np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32))
    assert nd.Array(values).data is values
    for copied in (nd.Array(values.copy()), nd.Array(values[:, :2])):
        assert copied.data.dtype == np.float32 and not copied.data.flags.writeable


def test_adopted_non_finite_buffer_raises():
    values = np.ones((2, 2))
    values[1, 0] = np.nan
    with pytest.raises(nd.NonFiniteError):
        nd.Array(_read_only(values))


def test_window_does_not_count_an_adopted_buffer():
    values = _read_only(np.ones((10, 10)))
    with nd.track_allocations() as window:
        nd.Array(values)
        assert window.peak == 0
        nd.Array(np.ones((10, 10)))
        assert window.peak == 100


# ---------------------------------------------------------------------------
# allocation tracking
# ---------------------------------------------------------------------------

def test_tracker_counts_live_and_peak():
    with nd.track_allocations() as window:
        a = nd.zeros((10, 10))
        b = nd.matmul(a, a)
        assert window.live >= 200
        assert window.largest_block >= 100
        del a, b
    assert window.live <= 8  # cached/incidental slack only


def test_tracker_window_scopes_peak():
    with nd.track_allocations() as outer:
        nd.zeros((5, 5))
        with nd.track_allocations() as inner:
            nd.zeros((20, 20))
        assert inner.largest_block == 400
    assert outer.largest_block == 400


def test_window_counts_only_buffers_born_inside():
    before = nd.zeros((100, 100))
    with nd.track_allocations() as window:
        del before
        nd.zeros((5, 5))
    assert window.peak - window.base == 25


def test_no_open_window_attaches_no_finalizer(monkeypatch):
    attached = []
    real_finalize = nd.weakref.finalize

    def counting_finalize(*args, **kwargs):
        attached.append(args[0])
        return real_finalize(*args, **kwargs)

    monkeypatch.setattr(nd.weakref, "finalize", counting_finalize)
    rng = np.random.default_rng(0)
    hyper = Hyperparams(rho=1.0, gamma=10.0, beta_s=4.0, beta_d=1e-3)
    coreset = PseudoCoreset(images=rng.standard_normal((4, 3)),
                            labels=rng.standard_normal((4, 2)),
                            ipc=2, hyper=hyper)
    net = network.init_net((3, 5), 2, seed=1)
    batch = (rng.standard_normal((6, 3)), np.eye(2)[rng.integers(0, 2, 6)])

    def step():
        tape = nd.Tape()
        loss, _ = outer_loss(coreset, net, batch, 12, hyper, tape)
        coreset_grad(loss, tape)
        network.gaussian_step(net, coreset.images, coreset.labels, hyper.gamma, 1e-3)

    step()
    assert attached == []
    with nd.track_allocations():
        step()
    assert attached  # the same step inside a window is counted
