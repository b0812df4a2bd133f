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
    return nd.sum(nd.hadamard(out, nd.constant(probe)))


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    out = nd.matmul(nd.Array(a), nd.eye(3))
    np.testing.assert_array_equal(out.data, a)


def test_relu_definition():
    out = nd.relu(nd.Array([[-1.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 2.0]])


def test_logdet_diagonal():
    out = nd.logdet_trinv_spd(nd.Array([[2.0, 0.0], [0.0, 2.0]]))
    assert out.shape == (1, 2)
    assert math.isclose(out.data[0, 0], 2.0 * math.log(2.0), rel_tol=1e-14)
    assert math.isclose(out.data[0, 1], 1.0, rel_tol=1e-14)


def test_row_log_softmax_rows_normalize():
    rng = np.random.default_rng(1)
    out = nd.row_log_softmax(nd.Array(rng.standard_normal((5, 7))))
    sums = np.exp(out.data).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_rsqrt_shift_values():
    alpha = math.pi / 8
    x = np.array([[0.0, 1.0, 4.0]])
    out = nd.rsqrt_shift(nd.Array(x), alpha=alpha)
    np.testing.assert_allclose(out.data, 1.0 / np.sqrt(1.0 + alpha * x), rtol=1e-15)


def test_row_gather_and_sum_axes():
    # rows are gathered as the outer loss picks labels: a one-hot mask and
    # a sum over axis 1
    a = nd.Array([[1.0, 2.0], [3.0, 4.0]])
    picked = nd.sum(nd.hadamard(a, nd.Array([[0.0, 1.0], [1.0, 0.0]])), axis=1)
    np.testing.assert_array_equal(picked.data, [[2.0], [3.0]])
    np.testing.assert_array_equal(nd.sum(a).data, [[10.0]])
    np.testing.assert_array_equal(nd.sum(a, axis=0).data, [[4.0, 6.0]])
    np.testing.assert_array_equal(nd.sum(a, axis=1).data, [[3.0], [7.0]])


def test_shape_mismatch_raises():
    with pytest.raises(nd.ShapeError):
        nd.matmul(nd.zeros((2, 3)), nd.zeros((2, 3)))
    with pytest.raises(nd.ShapeError):
        nd.add(nd.zeros((2, 3)), nd.zeros((3, 2)))


def test_non_finite_result_is_error():
    big = nd.Array(np.full((2, 2), 1e200))
    with pytest.raises(nd.NonFiniteError):
        nd.hadamard(big, big)
    with pytest.raises(nd.NonFiniteError):
        nd.Array([[float("nan")]])


# ---------------------------------------------------------------------------
# cholesky (the cached inverse factor W = L^{-1} shared by the solve and
# log-det primitives)
# ---------------------------------------------------------------------------

def test_cholesky_identity():
    np.testing.assert_array_equal(nd._chol_of(nd.eye(3)), np.eye(3))


def test_cholesky_hand_recurrence():
    # hand recurrence on [[4,2],[2,3]]: l11=2, l21=1, l22=sqrt(2), so
    # W = L^{-1} has w11=1/2, w21=-1/(2 sqrt 2), w22=1/sqrt 2
    out = nd._chol_of(nd.Array([[4.0, 2.0], [2.0, 3.0]]))
    expect = np.array([[0.5, 0.0],
                       [-1.0 / (2.0 * math.sqrt(2.0)), 1.0 / math.sqrt(2.0)]])
    np.testing.assert_allclose(out, expect, rtol=1e-15)


def test_cholesky_indefinite_raises():
    with pytest.raises(nd.NonSPDError):
        nd.cholesky_solve_spd(nd.Array([[1.0, 2.0], [2.0, 1.0]]), nd.eye(2))


def test_cholesky_jitter_rescues_singular_psd():
    # each factored array records its own retry; a healthy one records none
    singular = nd.Array([[1.0, 1.0], [1.0, 1.0]])
    assert nd._retries_of(singular) == 0        # not factored yet
    out = nd._chol_of(singular)
    assert np.all(np.diag(out) > 0)
    assert nd._retries_of(singular) == 1
    healthy = nd.Array([[2.0, 1.0], [1.0, 2.0]])
    nd._chol_of(healthy)
    assert nd._retries_of(healthy) == 0
    assert nd._chol_of(singular) is out and nd._retries_of(singular) == 1


def test_cholesky_reconstruction_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        q = rng.standard_normal((6, 6))
        a = q @ q.T + 6 * np.eye(6)
        w = nd._chol_of(nd.Array(a))
        assert np.linalg.norm(w @ a @ w.T - np.eye(6)) <= 1e-12


def test_cholesky_solve_residual_well_conditioned():
    # condition number ~1e6 via controlled spectrum
    rng = np.random.default_rng(11)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = (q * np.logspace(-3, 3, 8)) @ q.T
        b = rng.standard_normal((8, 3))
        x = nd.cholesky_solve_spd(nd.Array(a), nd.Array(b)).data
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10


def test_inv_quad_matches_dense_solve():
    rng = np.random.default_rng(12)
    spectra = [np.logspace(-3, 3, 8), rng.uniform(1.0, 5.0, 8)]  # cond ~1e6, ~5
    for spectrum in spectra:
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            a = (q * spectrum) @ q.T
            b = rng.standard_normal((8, 5))
            out = nd.inv_quad_spd(nd.Array(a), nd.Array(b)).data
            expect = np.diag(b.T @ np.linalg.solve(a, b)).reshape(-1, 1)
            assert out.shape == (5, 1)
            np.testing.assert_allclose(out, expect, rtol=1e-10)


def test_inv_quad_shape_and_spd_errors():
    with pytest.raises(nd.ShapeError):
        nd.inv_quad_spd(nd.eye(3), nd.zeros((2, 4)))
    with pytest.raises(nd.ShapeError):
        nd.inv_quad_spd(nd.zeros((2, 3)), nd.zeros((3, 1)))
    with pytest.raises(nd.NonSPDError):
        nd.inv_quad_spd(nd.Array([[1.0, 2.0], [2.0, 1.0]]), nd.zeros((2, 3)))


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


def test_inv_quad_over_rows_is_the_columns_of_the_transpose():
    # rows=True reads b.T as a view; a C-contiguous copy of b.T as the
    # columns gives the same bits in the value and in both gradients
    rng = np.random.default_rng(13)
    q = rng.standard_normal((4, 4))
    a_val = q @ q.T + 4 * np.eye(4)
    b_val = rng.standard_normal((6, 4))
    probe = nd.Array(rng.standard_normal((6, 1)))
    results = []
    for rows, b_in in ((True, b_val), (False, np.ascontiguousarray(b_val.T))):
        tape = nd.Tape()
        a = tape.leaf(nd.Array(a_val))
        b = tape.leaf(nd.Array(b_in))
        quad = nd.inv_quad_spd(a, b, rows=rows)
        grads = nd.backward(tape, nd.sum(nd.hadamard(quad, probe)))
        results.append((quad.data, grads[tape.node_id(a)].data,
                        grads[tape.node_id(b)].data))
    (q_rows, ga_rows, gb_rows), (q_cols, ga_cols, gb_cols) = results
    np.testing.assert_array_equal(q_rows, q_cols)
    np.testing.assert_array_equal(ga_rows, ga_cols)
    np.testing.assert_array_equal(gb_rows, gb_cols.T)


def test_shape_error_names_the_oriented_shapes():
    with pytest.raises(nd.ShapeError, match=re.escape("matmul: (3, 2) @ (3, 2)")):
        nd.matmul(nd.zeros((2, 3)), nd.zeros((3, 2)), trans_a=True)
    with pytest.raises(nd.ShapeError, match=re.escape("matmul: (2, 3) @ (2, 3)")):
        nd.matmul(nd.zeros((2, 3)), nd.zeros((3, 2)), trans_b=True)
    with pytest.raises(nd.ShapeError,
                       match=re.escape("inv_quad_spd: (3, 3) vs (4, 3)")):
        nd.inv_quad_spd(nd.eye(3), nd.zeros((3, 4)), rows=True)


def test_grad_add_sub_broadcast():
    for shape_b in [(3, 4), (1, 4), (3, 1), (1, 1)]:
        check_primitive_gradient(
            lambda rng, sb=shape_b: (rng.standard_normal((3, 4)), rng.standard_normal(sb)),
            lambda a, b: nd.add(a, b), n_points=5)
        check_primitive_gradient(
            lambda rng, sb=shape_b: (rng.standard_normal((3, 4)), rng.standard_normal(sb)),
            lambda a, b: nd.sub(a, b), n_points=5)


def test_grad_scale():
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)),),
        lambda a: nd.scale(a, -2.5))


def test_grad_hadamard_broadcast():
    for shape_b in [(3, 4), (1, 4), (3, 1)]:
        check_primitive_gradient(
            lambda rng, sb=shape_b: (rng.standard_normal((3, 4)), rng.standard_normal(sb)),
            lambda a, b: nd.hadamard(a, b), n_points=7)


def test_grad_relu():
    # keep samples away from the kink
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 4)) + 0.2 * np.sign(rng.standard_normal((3, 4))),),
        lambda a: nd.relu(a))


def test_grad_row_log_softmax():
    check_primitive_gradient(
        lambda rng: (rng.standard_normal((3, 5)),),
        lambda a: nd.row_log_softmax(a))


def test_grad_rsqrt_shift():
    check_primitive_gradient(
        lambda rng: (rng.uniform(0.0, 4.0, (5, 1)),),
        lambda a: nd.rsqrt_shift(a, alpha=math.pi / 8))


def test_grad_cholesky_solve():
    def operands(rng):
        q = rng.standard_normal((4, 4))
        return (q @ q.T + 4 * np.eye(4), rng.standard_normal((4, 3)))

    check_primitive_gradient(
        operands, lambda a, b: nd.cholesky_solve_spd(a, b), tol=1e-5)


def test_grad_logdet():
    def operands(rng):
        q = rng.standard_normal((4, 4))
        return (q @ q.T + 4 * np.eye(4),)

    # the random probe weights both columns, log det and the trace of a^{-1}
    check_primitive_gradient(operands, lambda a: nd.logdet_trinv_spd(a))


def test_grad_inv_quad():
    def operands(rng):
        q = rng.standard_normal((4, 4))
        return (q @ q.T + 4 * np.eye(4), rng.standard_normal((4, 3)))

    check_primitive_gradient(
        operands, lambda a, b: nd.inv_quad_spd(a, b))


def test_grad_sum_axes():
    for axis in [None, 0, 1]:
        check_primitive_gradient(
            lambda rng: (rng.standard_normal((3, 4)),),
            lambda a, ax=axis: nd.sum(a, axis=ax), n_points=7)


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
    loss = nd.sum(nd.matmul(a, b))
    ad = nd.backward(tape, loss)[tape.node_id(a)].data

    def f(v):
        return float((v @ b_val).sum())

    fd = fd_gradient(f, a_val.copy())
    assert rel_err(ad, fd, floor=1e-8).max() <= 1e-6


def test_backward_logdet_is_symmetrized_inverse():
    # the adjoint of log det a is a^{-1} = W^T W, and that of Tr a^{-1} is
    # -a^{-2} = -a^{-1} a^{-1}^T: both exactly symmetric, with no
    # symmetrizing pass
    rng = np.random.default_rng(4)
    for m in (3, 40):
        q = rng.standard_normal((m, m))
        a_val = q @ q.T + m * np.eye(m)
        inv = np.linalg.inv(a_val)
        for weights, want in (([[1.0], [0.0]], inv), ([[0.0], [1.0]], -inv @ inv)):
            tape = nd.Tape()
            a = tape.leaf(nd.Array(a_val))
            out = nd.matmul(nd.logdet_trinv_spd(a), nd.Array(weights))
            ad = nd.backward(tape, out)[tape.node_id(a)].data
            assert rel_err(ad, 0.5 * (want + want.T)).max() <= 1e-8
            assert ad.tobytes() == ad.T.tobytes()
            assert np.linalg.norm(ad - want) <= 1e-12 * np.linalg.norm(want)


def test_backward_accumulates_fanout():
    tape = nd.Tape()
    x = tape.leaf(nd.Array([[1.0, 2.0]]))
    loss = nd.sum(nd.add(x, x))
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
    loss = nd.sum(nd.hadamard(x, c))
    grads = nd.backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_id(x)].data, [[3.0, 4.0]])
    assert tape.node_id(c) is None


def test_tape_replay_deterministic():
    def run():
        rng = np.random.default_rng(42)
        tape = nd.Tape()
        a = tape.leaf(nd.Array(rng.standard_normal((4, 4))))
        b = tape.leaf(nd.Array(rng.standard_normal((4, 2))))
        spd = nd.add(nd.eye(4), nd.matmul(a, a, trans_b=True))
        x = nd.cholesky_solve_spd(spd, b)
        loss = nd.add(nd.sum(nd.relu(x)),
                      nd.sum(nd.logdet_trinv_spd(spd)))
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
    squared = nd.hadamard(c, c)
    assert tape.records == [] and tape.node_id(squared) is None
    loss = nd.sum(nd.hadamard(x, squared))
    assert [op for op, *_ in tape.records] == ["hadamard", "sum"]
    grads = nd.backward(tape, loss)
    np.testing.assert_array_equal(grads[tape.node_id(x)].data, [[9.0, 16.0]])


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
    out = nd.hadamard(y, z)  # y is a constant now, not a node of a second tape
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
    # add and sub pass the incoming gradient through unchanged; every other
    # vjp returns a fresh buffer that backward adopts without a copy
    rng = np.random.default_rng(17)
    tape = nd.Tape()
    a = tape.leaf(nd.Array(rng.standard_normal((4, 3))))
    b = tape.leaf(nd.Array(rng.standard_normal((3, 3))))
    c = tape.leaf(nd.Array(rng.standard_normal((1, 3))))
    spd = nd.add(nd.matmul(b, b, trans_a=True), nd.eye(3))
    h = nd.relu(nd.add(nd.matmul(a, b), c))
    h = nd.sub(nd.hadamard(h, a), nd.scale(a, 0.5))
    h = nd.row_log_softmax(nd.matmul(nd.cholesky_solve_spd(spd, b), h, trans_b=True))
    quad = nd.inv_quad_spd(spd, a, rows=True)
    loss = nd.add(nd.add(nd.sum(h), nd.sum(nd.logdet_trinv_spd(spd))),
                  nd.sum(nd.rsqrt_shift(quad, alpha=0.3)))
    grads = nd.backward(tape, loss)
    saved = [buf for record in tape.records for buf in _saved_buffers(record[3])]
    assert saved
    for grad in grads.values():
        assert not grad.data.flags.writeable
        assert not any(np.shares_memory(grad.data, buf) for buf in saved)


# ---------------------------------------------------------------------------
# two halves
# ---------------------------------------------------------------------------

# (m, n, k) of op(a) @ op(b), each at most 10% above SPLIT_WORK: odd rows
# cut through the rows, one into halves of 8 and 23 rows (the smallest
# share a half can get), odd inner and row sizes cut through the columns,
# and two whose output columns are no whole number of LANES, never cut
PRODUCTS = [((129, 64, 509), 1), ((1001, 512, 9), 1), ((31, 8, 16913), 1),
            ((40, 264, 401), 1), ((17, 2056, 121), 1), ((129, 65, 509), 0),
            ((1001, 511, 9), 0)]


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
    grads = nd.backward(tape, nd.sum(nd.hadamard(out, nd.Array(g))))
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


def _spd_primitives(a_val, b_val):
    """inv_quad_spd and cholesky_solve_spd, forward and adjoint: the loss
    and the gradients of both operands, as bytes."""
    tape = nd.Tape()
    a, b = tape.leaf(nd.Array(a_val)), tape.leaf(nd.Array(b_val))
    loss = nd.add(nd.sum(nd.inv_quad_spd(a, b)),
                  nd.sum(nd.cholesky_solve_spd(a, b)))
    grads = nd.backward(tape, loss)
    return [loss.data.tobytes()] + [grads[tape.node_id(x)].data.tobytes()
                                    for x in (a, b)]


@pytest.mark.parametrize("op", ["N", "T", "S"])
@pytest.mark.parametrize("shape,cuts", SOLVES)
def test_cut_solve_is_bit_equal_to_scipy(halves_calls, monkeypatch, op, shape, cuts):
    # every solve is a product with W = L^{-1}, which scipy's dtrtri makes:
    # the cut solve is bit for bit the whole product with that W, on the
    # second core or not, and agrees with scipy's triangular and Cholesky
    # solves to rounding
    m, n = shape
    assert _twocore.SPLIT_WORK <= m * m * n <= 1.1 * _twocore.SPLIT_WORK
    rng = np.random.default_rng(m + n)
    q = rng.standard_normal((m, m))
    a_val = q @ q.T / m + np.eye(m)
    w = nd._chol_of(nd.Array(a_val))
    chol = scipy.linalg.cholesky(a_val, lower=True)
    whole = {"N": lambda b: w @ b, "T": lambda b: w.T @ b,
             "S": lambda b: w.T @ (w @ b)}[op]
    rhs = (rng.standard_normal((m, n)), rng.standard_normal((n, m)).T)
    got = [nd._solve(w, b, op) for b in rhs]
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
        assert nd._solve(w, b, op).tobytes() == x.tobytes()


def test_inv_quad_and_cholesky_solve_cut_their_solves(halves_calls, monkeypatch):
    # the forward and adjoint solves of both primitives at a cut size: three
    # products forward and four in the adjoints, inv_quad_spd's X diag(g) X^T
    # among them, each bit-equal to the serial run
    rng = np.random.default_rng(21)
    q = rng.standard_normal((64, 64))
    a_val = q @ q.T / 64 + np.eye(64)
    b_val = rng.standard_normal((64, 1024))
    two = _spd_primitives(a_val, b_val)
    assert len(halves_calls) == 7
    w = nd._chol_of(nd.Array(a_val))
    z = w @ b_val
    quad = nd.inv_quad_spd(nd.Array(a_val), nd.Array(b_val)).data
    assert quad.tobytes() == (z * z).sum(axis=0).reshape(-1, 1).tobytes()
    z_ref = scipy.linalg.solve_triangular(np.linalg.cholesky(a_val), b_val, lower=True)
    np.testing.assert_allclose(quad, (z_ref * z_ref).sum(axis=0).reshape(-1, 1),
                               rtol=1e-12)
    monkeypatch.setattr(_twocore, "_worker", False)
    assert _spd_primitives(a_val, b_val) == two


def test_inv_quad_gradient_of_b_is_adopted_without_a_copy(monkeypatch):
    # the solves are products, which write C order, and in the columns form
    # the adjoint builds 2 X diag(g) in C order, so the gradient of b (and
    # the solve's result) is that very buffer; the gradient is the only one
    # of its size the window sees (a Fortran-order one was copied, and its
    # copy counted instead)
    made = {}
    for op in ("inv_quad_spd", "cholesky_solve_spd"):
        fwd, vjp, arity = nd._REGISTRY[op]

        def recording_fwd(*args, _op=op, _fwd=fwd, **params):
            out, saved = _fwd(*args, **params)
            made[_op, "fwd"] = out
            return out, saved

        def recording_vjp(g, saved, needs, _op=op, _vjp=vjp):
            parts = _vjp(g, saved, needs)
            made[_op, "vjp"] = parts[1]
            return parts

        monkeypatch.setitem(nd._REGISTRY, op, (recording_fwd, recording_vjp, arity))
    rng = np.random.default_rng(22)
    q = rng.standard_normal((50, 50))
    a = nd.Array(q @ q.T + 50 * np.eye(50))
    cases = (("inv_quad_spd", lambda b: nd.inv_quad_spd(a, b), (50, 200)),
             ("inv_quad_spd", lambda b: nd.inv_quad_spd(a, b, rows=True), (200, 50)),
             ("cholesky_solve_spd", lambda b: nd.cholesky_solve_spd(a, b), (50, 200)))
    for op, primitive, shape in cases:
        tape = nd.Tape()
        b = tape.leaf(nd.Array(rng.standard_normal(shape)))
        out = primitive(b)
        if op == "cholesky_solve_spd":
            assert out.data is made[op, "fwd"] and out.data.flags.c_contiguous
        loss = nd.sum(out)
        with nd.track_allocations() as window:
            grad = nd.backward(tape, loss)[tape.node_id(b)]
        assert grad.data is made[op, "vjp"] and grad.data.flags.c_contiguous
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
    lambda x: _read_only(x.astype(np.float32)),         # not float64
    lambda x: _read_only(x.reshape(-1).copy()),         # not 2-d
])
def test_array_copies_anything_else(make):
    values = make(np.random.default_rng(1).standard_normal((3, 4)))
    arr = nd.Array(values)
    assert not np.shares_memory(arr.data, values)
    np.testing.assert_array_equal(arr.data.ravel(),
                                  np.asarray(values, dtype=np.float64).ravel())
    assert not arr.data.flags.writeable


def test_adopted_non_finite_buffer_raises():
    values = np.ones((2, 2))
    values[1, 0] = np.nan
    with pytest.raises(nd.NonFiniteError):
        nd.Array(_read_only(values))


def test_adopt_checked_makes_no_copy_and_no_finiteness_pass(monkeypatch):
    values = _read_only(np.random.default_rng(2).standard_normal((3, 4)))
    passes = []
    real = np.isfinite
    monkeypatch.setattr(nd.np, "isfinite", lambda x: passes.append(x) or real(x))
    arr = nd._adopt_checked(values)
    assert arr.data is values and arr._node is None and passes == []
    writable = np.ones((2, 2))      # anything else goes through Array
    copied = nd._adopt_checked(writable)
    assert not np.shares_memory(copied.data, writable) and len(passes) == 1


def test_network_wraps_parameters_without_a_finiteness_pass(monkeypatch):
    # init_net and adam_step check the buffers they make; the tape adopts
    # them later with no second pass
    rng = np.random.default_rng(3)
    net = network.init_net((5, 16, 8), 3, seed=4)
    images, labels = rng.standard_normal((6, 5)), rng.standard_normal((6, 3))
    net, state = network.gaussian_step(net, images, labels, 10.0, 1e-3)
    wrapped = []
    real_init = nd.Array.__init__

    def recording(self, values):
        wrapped.append(id(values))
        real_init(self, values)

    monkeypatch.setattr(nd.Array, "__init__", recording)
    network.features_graph(net, nd.Array(images))
    network.gaussian_step(net, images, labels, 10.0, 1e-3, state=state)
    assert not {id(p) for p in net.params} & set(wrapped)


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
