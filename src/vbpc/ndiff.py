"""Dense float64 matrices with a reverse-mode gradient tape.

Everything is a 2-d array (vectors are 1 x n or n x 1). The primitive set is
closed and fixed: higher layers compose only these ops, so the gradient-check
suite in the tests certifies every downstream gradient. Arrays are immutable
once built; a Tape records primitive applications and `backward` replays the
adjoints in reverse topological order.

There is no transpose primitive: `matmul` and `inv_quad_spd` take flags
that say which way they read an operand, and read it through a view.

Arrays carry their tape: a node refers weakly to it, and `apply` records on
the tape of its operands, so only the code that registers leaves and runs
`backward` names a tape. An op on constants alone records nothing, and a
node whose tape was dropped acts as a constant.

`Array(values)` adopts a read-only, owning, C-contiguous 2-d float64
buffer without a copy, since nobody can write through it (parameters that
`adam_step` returns, say); it copies anything else. `backward` passes a
gradient that a vjp returns unchanged on as the same Array and wraps every
other vjp result without a copy, so no gradient shares memory with a buffer
the forward saved.

The SPD primitives share one factorization per system: `a = L L^T`, of
which the cache keeps `W = L^{-1}`, so every solve is a product with W or
W^T, and log det a and Tr a^{-1} read W alone: -2 sum log diag W and
||W||_F^2. The cache also records whether the factorization took the
jitter retry, so each system reports its own.

Allocation windows (`vbpc._allocations`) count the buffers this layer
allocates; large products are cut in two halves by `vbpc._twocore`.
"""

import itertools
import math
import weakref

import numpy as np
import scipy.linalg

from . import _twocore
from ._allocations import _register_buffer, track_allocations  # noqa: F401

JITTER = 1e-10


class NdiffError(Exception):
    pass


class ShapeError(NdiffError):
    pass


class NonSPDError(NdiffError):
    pass


class NonFiniteError(NdiffError):
    retries = 0     # jitter retries of the factorization an outer loss made first


# ---------------------------------------------------------------------------
# arrays and tapes
# ---------------------------------------------------------------------------

def _adoptable(values):
    """A buffer nobody can write through: read-only, owning its memory,
    C-contiguous, 2-d float64."""
    return (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.ndim == 2 and values.flags.c_contiguous
            and values.flags.owndata and not values.flags.writeable)


def _as_owned_matrix(values):
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"arrays are 2-d, got ndim={arr.ndim}")
    return arr


class Array:
    """Immutable 2-d float64 matrix, optionally a node of a tape.

    `Array(values)` adopts `values` without a copy when it is a read-only,
    owning, C-contiguous 2-d float64 ndarray (parameters and coreset arrays
    from `adam_step`, say); any other input is copied. Either way a
    non-finite entry raises NonFiniteError. An adopted buffer was not born
    here, so no allocation window counts it.

    `_node` is None for a constant, else (weak reference to the tape, node
    id on it).
    """

    __slots__ = ("data", "_node", "_chol")

    def __init__(self, values):
        if _adoptable(values):
            data = values
        else:
            data = _as_owned_matrix(values)
            data.flags.writeable = False
            _register_buffer(data)
        if not np.isfinite(data).all():
            raise NonFiniteError("array contains non-finite entries")
        self.data = data
        self._node = None
        self._chol = None

    @classmethod
    def _wrap(cls, arr):
        """Adopt a freshly computed buffer without copying (internal)."""
        obj = cls.__new__(cls)
        if arr.dtype != np.float64 or not arr.flags.c_contiguous or not arr.flags.owndata:
            arr = np.array(arr, dtype=np.float64, order="C", copy=True)
        arr.flags.writeable = False
        _register_buffer(arr)
        obj.data = arr
        obj._node = None
        obj._chol = None
        return obj

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 array, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Array(shape={self.data.shape})"


def constant(values):
    return values if isinstance(values, Array) else Array(values)


def _adopt_checked(values):
    """Array(values) without the finiteness pass, for the parameter buffers
    of a network: `init_net` draws them finite and `adam_step` checks the
    ones it makes, and being read-only they stay finite. Anything `Array`
    would copy goes through it. A
    non-finite buffer made read-only elsewhere is not caught here, but
    makes the first op that reads it raise NonFiniteError."""
    if not _adoptable(values):
        return Array(values)
    obj = Array.__new__(Array)
    obj.data = values
    obj._node = None
    obj._chol = None
    return obj


def zeros(shape):
    return Array._wrap(np.zeros(shape, dtype=np.float64))


def eye(n):
    return Array._wrap(np.eye(n, dtype=np.float64))


class Tape:
    """Ordered record of primitive applications on one logical thread.

    Each record is (op, output node id, input node ids with None for a
    constant, what the forward saved for the adjoint).
    """

    def __init__(self):
        self.records = []
        self._ids = itertools.count()
        self._leaves = {}
        self._labels = {}
        self._ref = weakref.ref(self)   # shared by every node of this tape

    def leaf(self, array, label=None):
        """Register `array` as a differentiable leaf and return it."""
        node_id = self.node_id(array)
        if node_id is None:
            node_id = next(self._ids)
            array._node = (self._ref, node_id)
        self._leaves[node_id] = array
        if label is not None:
            self._labels[label] = node_id
        return array

    def node_id(self, array):
        node = array._node
        if node is None or node[0] is not self._ref:
            return None
        return node[1]

    def leaf_id(self, label):
        return self._labels[label]


# ---------------------------------------------------------------------------
# shared cholesky machinery
# ---------------------------------------------------------------------------

def _raw_cholesky(sym):
    """(L, retried): the lower Cholesky factor, and 1 if the first attempt
    failed and the one-shot jitter retry made it, else 0."""
    try:
        return scipy.linalg.cholesky(sym, lower=True), 0
    except scipy.linalg.LinAlgError:
        pass
    bump = JITTER * float(np.mean(np.diag(sym)))
    jittered = sym + bump * np.eye(sym.shape[0])
    try:
        return scipy.linalg.cholesky(jittered, lower=True), 1
    except scipy.linalg.LinAlgError:
        raise NonSPDError("matrix is not positive definite (jitter retry failed)")


def _chol_of(array):
    """W = L^{-1} for the lower Cholesky factor L of sym(array), cached so
    one factorization is shared. LAPACK's trtri inverts L in place, so W is
    the one m x m buffer the factorization leaves. The cache keeps, beside
    W, whether the factorization took the jitter retry (`_retries_of`)."""
    if array._chol is None:
        a = array.data
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected square matrix, got {a.shape}")
        sym = 0.5 * (a + a.T)
        chol, retried = _raw_cholesky(sym)
        inv_chol, info = scipy.linalg.lapack.dtrtri(chol, lower=1, overwrite_c=1)
        if info:
            raise NonSPDError(f"Cholesky factor is singular (trtri info {info})")
        inv_chol.flags.writeable = False
        _register_buffer(inv_chol)
        array._chol = (inv_chol, retried)
    return array._chol[0]


def _retries_of(array):
    """1 if a factorization cached on `array` took the jitter retry, else 0."""
    return 0 if array._chol is None else array._chol[1]


def _solve(inv_chol, b, op="N"):
    """A solve against S = L L^T as products with W = L^{-1}: op "N" is
    L^{-1} b = W b, "T" is L^{-T} b = W^T b and "S" is S^{-1} b = W^T (W b).
    In C order, cut as `_product` cuts."""
    if op == "N":
        return _twocore._product(inv_chol, b)
    if op == "T":
        return _twocore._product(inv_chol.T, b)
    return _twocore._product(inv_chol.T, _twocore._product(inv_chol, b))


# ---------------------------------------------------------------------------
# primitives: forward + vjp pairs
# ---------------------------------------------------------------------------

def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _check_broadcast(a, b, op):
    for da, db in zip(a.shape, b.shape):
        if db != da and db != 1:
            raise ShapeError(f"{op}: shape {b.shape} does not broadcast to {a.shape}")


def _fwd_matmul(a, b, trans_a=False, trans_b=False):
    """op(a) @ op(b) on views: BLAS gets a trans flag, and a @ a.T or
    a.T @ a on one buffer is numpy's syrk."""
    op_a = a.T if trans_a else a
    op_b = b.T if trans_b else b
    if op_a.shape[1] != op_b.shape[0]:
        raise ShapeError(f"matmul: {op_a.shape} @ {op_b.shape}")
    return _twocore._product(op_a, op_b), (op_a, op_b, trans_a, trans_b)


def _vjp_matmul(g, saved, needs):
    # d op(a) = g op(b)^T, d op(b) = op(a)^T g; a flagged one is built transposed
    op_a, op_b, trans_a, trans_b = saved
    ga = gb = None
    if needs[0]:
        ga = _twocore._product(op_b, g.T) if trans_a else _twocore._product(g, op_b.T)
    if needs[1]:
        gb = _twocore._product(g.T, op_a) if trans_b else _twocore._product(op_a.T, g)
    return ga, gb


def _fwd_add(a, b):
    _check_broadcast(a, b, "add")
    return a + b, (a.shape, b.shape)


def _vjp_add(g, saved, needs):
    sa, sb = saved
    return (g if needs[0] else None,
            _unbroadcast(g, sb) if needs[1] else None)


def _fwd_sub(a, b):
    _check_broadcast(a, b, "sub")
    return a - b, (a.shape, b.shape)


def _vjp_sub(g, saved, needs):
    sa, sb = saved
    return (g if needs[0] else None,
            -_unbroadcast(g, sb) if needs[1] else None)


def _fwd_scale(a, factor):
    if not math.isfinite(factor):
        raise NonFiniteError("scale: non-finite factor")
    return factor * a, (factor,)


def _vjp_scale(g, saved, needs):
    (factor,) = saved
    return (factor * g,)


def _fwd_hadamard(a, b):
    _check_broadcast(a, b, "hadamard")
    return a * b, (a, b)


def _vjp_hadamard(g, saved, needs):
    a, b = saved
    ga = g * b if needs[0] else None
    gb = _unbroadcast(g * a, b.shape) if needs[1] else None
    return ga, gb


def _fwd_relu(a):
    return np.maximum(a, 0.0), (a,)


def _vjp_relu(g, saved, needs):
    (a,) = saved
    return (g * (a > 0.0),)


def _fwd_row_log_softmax(a):
    shifted = a - a.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    return out, (out,)


def _vjp_row_log_softmax(g, saved, needs):
    (out,) = saved
    softmax = np.exp(out)
    return (g - softmax * g.sum(axis=1, keepdims=True),)


def _fwd_rsqrt_shift(a, alpha):
    shifted = 1.0 + alpha * a
    if shifted.min() <= 0.0:
        raise NonFiniteError("rsqrt_shift: 1 + alpha*x must be positive")
    out = 1.0 / np.sqrt(shifted)
    return out, (out, alpha)


def _vjp_rsqrt_shift(g, saved, needs):
    out, alpha = saved
    return (-0.5 * alpha * out ** 3 * g,)


def _fwd_cholesky_solve_spd(a, b, _chol=None):
    if a.shape[0] != a.shape[1] or a.shape[1] != b.shape[0]:
        raise ShapeError(f"cholesky_solve_spd: {a.shape} vs {b.shape}")
    x = _solve(_chol, b, "S")
    return x, (_chol, x)


def _vjp_cholesky_solve_spd(g, saved, needs):
    inv_chol, x = saved
    gb = _solve(inv_chol, g, "S")
    if needs[0]:
        gs = -gb @ x.T
        ga = 0.5 * (gs + gs.T)
    else:
        ga = None
    return ga, (gb if needs[1] else None)


def _inverse(inv_chol):
    """a^{-1} = W^T W for the cached W = L^{-1}: syrk, exactly symmetric."""
    return np.matmul(inv_chol.T, inv_chol)


def _fwd_logdet_trinv_spd(a, _chol=None):
    """The row [log det a, Tr a^{-1}] = [-2 sum log diag W, ||W||_F^2]; the
    squares are summed pairwise."""
    logdet = -2.0 * float(np.log(np.diag(_chol)).sum())
    return np.array([[logdet, float(np.square(_chol).sum())]]), (_chol,)


def _vjp_logdet_trinv_spd(g, saved, needs):
    """g_0 a^{-1} - g_1 a^{-2}, where a^{-2} = a^{-1} a^{-1}^T is a second
    syrk: both terms, and so the adjoint, are exactly symmetric."""
    inv = _inverse(saved[0])
    return (float(g[0, 0]) * inv - float(g[0, 1]) * np.matmul(inv, inv.T),)


def _fwd_inv_quad_spd(a, b, rows=False, _chol=None):
    """Entry j of the result is b_j^T a^{-1} b_j = ||L^{-1} b_j||^2 over the
    columns b_j of b, or over its rows with `rows`: one product with
    L^{-1}, and a sum of squares that cannot cancel. The rows are read
    through the view b.T."""
    op_b = b.T if rows else b
    if a.shape[0] != a.shape[1] or a.shape[1] != op_b.shape[0]:
        raise ShapeError(f"inv_quad_spd: {a.shape} vs {op_b.shape}")
    z = _solve(_chol, op_b)
    return (z * z).sum(axis=0).reshape(-1, 1), (_chol, z, rows)


def _vjp_inv_quad_spd(g, saved, needs):
    inv_chol, z, rows = saved
    x = _solve(inv_chol, z, "T")  # a^{-1} op(b)
    xg = x * g.T
    ga = None
    if needs[0]:
        ga = _twocore._product(xg, x.T)
        np.negative(ga, out=ga)     # -(xg x^T), bit-equal to (-xg) x^T
    # in C order, so backward adopts it without a copy
    gb = np.multiply(xg.T if rows else xg, 2.0, order="C") if needs[1] else None
    return ga, gb


def _fwd_sum(a, axis=None):
    if axis is None:
        out = np.array([[a.sum()]])
    elif axis == 0:
        out = a.sum(axis=0, keepdims=True)
    elif axis == 1:
        out = a.sum(axis=1, keepdims=True)
    else:
        raise ShapeError(f"sum: axis must be None, 0 or 1, got {axis}")
    return out, (a.shape,)


def _vjp_sum(g, saved, needs):
    (shape,) = saved
    return (np.broadcast_to(g, shape).copy(order="C"),)


_REGISTRY = {
    "matmul": (_fwd_matmul, _vjp_matmul, 2),
    "add": (_fwd_add, _vjp_add, 2),
    "sub": (_fwd_sub, _vjp_sub, 2),
    "scale": (_fwd_scale, _vjp_scale, 1),
    "hadamard": (_fwd_hadamard, _vjp_hadamard, 2),
    "relu": (_fwd_relu, _vjp_relu, 1),
    "row_log_softmax": (_fwd_row_log_softmax, _vjp_row_log_softmax, 1),
    "rsqrt_shift": (_fwd_rsqrt_shift, _vjp_rsqrt_shift, 1),
    "cholesky_solve_spd": (_fwd_cholesky_solve_spd, _vjp_cholesky_solve_spd, 2),
    "logdet_trinv_spd": (_fwd_logdet_trinv_spd, _vjp_logdet_trinv_spd, 1),
    "inv_quad_spd": (_fwd_inv_quad_spd, _vjp_inv_quad_spd, 2),
    "sum": (_fwd_sum, _vjp_sum, 1),
}


def apply(op, operands, **params):
    """Run one primitive on a tuple of Arrays, recording it on the live tape
    its operands are nodes of. The other operands are constants that get no
    gradient; with no such tape the op records nothing and returns a
    constant. Operands from two live tapes raise NdiffError.
    """
    if op not in _REGISTRY:
        raise NdiffError(f"unknown primitive {op!r}")
    fwd, _, arity = _REGISTRY[op]
    if len(operands) != arity:
        raise ShapeError(f"{op}: expected {arity} operands, got {len(operands)}")
    tape = None
    for o in operands:
        owner = o._node[0]() if o._node is not None else None
        if owner is not None and owner is not tape:
            if tape is not None:
                raise NdiffError(f"{op}: operands from two live tapes")
            tape = owner
    datas = [o.data for o in operands]
    if op in ("cholesky_solve_spd", "logdet_trinv_spd", "inv_quad_spd"):
        params["_chol"] = _chol_of(operands[0])     # `params` is this call's own
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out_data, saved = fwd(*datas, **params)
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"{op}: produced non-finite values")
    out = Array._wrap(out_data)
    if tape is not None:
        in_ids = tuple(tape.node_id(o) for o in operands)
        out_id = next(tape._ids)
        out._node = (tape._ref, out_id)
        tape.records.append((op, out_id, in_ids, saved))
    return out


def backward(tape, seed):
    """Gradients of the scalar `seed` with respect to every leaf of `tape`.

    Returns a dict node-id -> Array. Leaves the seed does not depend on get
    zero gradients. Fan-out accumulates by summation. A first partial that
    is the incoming gradient itself keeps its Array; any other is a fresh
    buffer from the vjp, wrapped without a copy. No gradient shares memory
    with a buffer the forward saved.
    """
    seed_id = tape.node_id(seed)
    if seed_id is None:
        raise NdiffError("seed is not on this tape")
    if seed.shape != (1, 1):
        raise ShapeError("seed must be a 1x1 scalar")
    grads = {seed_id: Array._wrap(np.ones((1, 1)))}
    for op, out_id, in_ids, saved in reversed(tape.records):
        g = grads.get(out_id)
        if g is None:
            continue
        _, vjp, _ = _REGISTRY[op]
        needs = tuple(i is not None for i in in_ids)
        parts = vjp(g.data, saved, needs)
        for in_id, part in zip(in_ids, parts):
            if in_id is None or part is None:
                continue
            prev = grads.get(in_id)
            if prev is None:
                grads[in_id] = g if part is g.data else Array._wrap(part)
            else:
                grads[in_id] = Array._wrap(prev.data + part)
    out = {}
    for leaf_id, leaf in tape._leaves.items():
        got = grads.get(leaf_id)
        out[leaf_id] = got if got is not None else zeros(leaf.shape)
    return out


# thin wrappers so call sites read like linear algebra

def matmul(a, b, trans_a=False, trans_b=False):
    return apply("matmul", (a, b), trans_a=trans_a, trans_b=trans_b)

def add(a, b):
    return apply("add", (a, b))

def sub(a, b):
    return apply("sub", (a, b))

def scale(a, factor):
    return apply("scale", (a,), factor=factor)

def hadamard(a, b):
    return apply("hadamard", (a, b))

def relu(a):
    return apply("relu", (a,))

def row_log_softmax(a):
    return apply("row_log_softmax", (a,))

def rsqrt_shift(a, alpha):
    return apply("rsqrt_shift", (a,), alpha=alpha)

def cholesky_solve_spd(a, b):
    return apply("cholesky_solve_spd", (a, b))

def logdet_trinv_spd(a):
    return apply("logdet_trinv_spd", (a,))

def inv_quad_spd(a, b, rows=False):
    return apply("inv_quad_spd", (a, b), rows=rows)

def sum(a, axis=None):  # noqa: A001 - mirrors np.sum naming
    return apply("sum", (a,), axis=axis)
