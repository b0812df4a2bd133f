"""Gradient-tape layer: primitive semantics, adjoints vs finite differences,
Cholesky behavior, tape determinism, allocation tracking."""

import math
import re
import weakref

import numpy as np
import pytest

from vbpc import ndiff as nd, network
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
    out = nd.logdet_spd(nd.Array([[2.0, 0.0], [0.0, 2.0]]))
    assert math.isclose(out.item(), 2.0 * math.log(2.0), rel_tol=1e-14)


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
# cholesky (the cached factor shared by the solve and log-det primitives)
# ---------------------------------------------------------------------------

def test_cholesky_identity():
    np.testing.assert_array_equal(nd._chol_of(nd.eye(3)), np.eye(3))


def test_cholesky_hand_recurrence():
    # hand recurrence on [[4,2],[2,3]]: l11=2, l21=1, l22=sqrt(2)
    out = nd._chol_of(nd.Array([[4.0, 2.0], [2.0, 3.0]]))
    expect = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    np.testing.assert_allclose(out, expect, rtol=1e-15)


def test_cholesky_indefinite_raises():
    with pytest.raises(nd.NonSPDError):
        nd.cholesky_solve_spd(nd.Array([[1.0, 2.0], [2.0, 1.0]]), nd.eye(2))


def test_cholesky_jitter_rescues_singular_psd():
    before = nd.jitter_retries
    out = nd._chol_of(nd.Array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.all(np.diag(out) > 0)
    assert nd.jitter_retries == before + 1
    nd._chol_of(nd.Array([[2.0, 1.0], [1.0, 2.0]]))
    assert nd.jitter_retries == before + 1


def test_cholesky_reconstruction_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        q = rng.standard_normal((6, 6))
        a = q @ q.T + 6 * np.eye(6)
        chol = nd._chol_of(nd.Array(a))
        err = np.linalg.norm(chol @ chol.T - a) / np.linalg.norm(a)
        assert err <= 1e-12


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

    check_primitive_gradient(operands, lambda a: nd.logdet_spd(a))


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
    rng = np.random.default_rng(4)
    q = rng.standard_normal((3, 3))
    a_val = q @ q.T + 3 * np.eye(3)
    tape = nd.Tape()
    a = tape.leaf(nd.Array(a_val))
    out = nd.logdet_spd(a)
    ad = nd.backward(tape, out)[tape.node_id(a)].data
    inv = np.linalg.inv(a_val)
    assert rel_err(ad, 0.5 * (inv + inv.T)).max() <= 1e-8


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
                      nd.logdet_spd(spd))
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
    loss = nd.add(nd.add(nd.sum(h), nd.logdet_spd(spd)),
                  nd.sum(nd.rsqrt_shift(quad, alpha=0.3)))
    grads = nd.backward(tape, loss)
    saved = [buf for record in tape.records for buf in _saved_buffers(record[3])]
    assert saved
    for grad in grads.values():
        assert not grad.data.flags.writeable
        assert not any(np.shares_memory(grad.data, buf) for buf in saved)


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
