"""Dense float32 or float64 matrices with a reverse-mode gradient tape.

Everything is a 2-d array (vectors are 1 x n or n x 1). The primitive set is
closed and fixed: higher layers compose only these ops, so the gradient-check
suite in the tests certifies every downstream gradient. Arrays are immutable
once built; a Tape records primitive applications and `backward` replays the
adjoints in reverse topological order.

There is no transpose primitive: `matmul` takes flags that say which way
it reads an operand, and reads it through a view. Nor is there a
subtraction: `add` takes equal shapes, and a - b adds -b. The
layer max(x W + b, 0) is one primitive, `affine_relu`; so is the probit
rule log softmax(m / sqrt(1 + (pi/8) max(v, 0))), `probit_log_softmax`,
which takes a variance's round-off negativity down to VARIANCE_CLAMP to
zero and raises NonFiniteError below it. A sum of products, over all
entries or per row, is `inner`; a plain sum is an inner product with ones.

Arrays carry their tape: a node refers weakly to it, and `apply` records on
the tape of its operands, so only the code that registers leaves and runs
`backward` names a tape. An op on constants alone records nothing, and a
node whose tape was dropped acts as a constant.

An Array holds float32 or float64. `Array(values)` adopts a read-only,
owning, C-contiguous 2-d buffer of either dtype without a copy, since
nobody can write through it (parameters that `adam_step` returns, say); it
copies anything else, to float64 unless it is float32. An op takes
operands of one dtype and raises NdiffError on mixed ones. `matmul`,
`affine_relu`, `add`, `scale` and `inner` return their operands' dtype,
and so does every adjoint, from a seed of the loss's dtype. `cast` alone
changes the dtype: its forward is one C-ordered copy in the dtype asked
for, its vjp casts the gradient back to the operand's, and a finite value
beyond float32's range raises NonFiniteError in either. `inv_chol`,
`logdet_trinv` and `probit_log_softmax` take float64 alone: the posterior
is float64 whatever dtype its features were computed in. `backward`
passes a gradient that a vjp returns unchanged on as the same Array and
wraps every other vjp result without a copy, so no gradient shares memory
with a buffer the forward saved.

A symmetric positive definite system S = L L^T enters the tape through
one node, `inv_chol(S)` = W = L^{-1}: every solve is then a product with W
or W^T, each quadratic form an `inner` of one product with itself, and
`logdet_trinv(W)` reads log det S and Tr S^{-1} off W alone. The W node
records whether its factorization took the jitter retry (`_retries_of`),
so each system reports its own.

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

# the dtypes an Array keeps; anything else is copied to float64
_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
# the primitives whose operands must be float64
_FLOAT64_ONLY = frozenset(("inv_chol", "logdet_trinv", "probit_log_softmax"))


def _kept_dtype(values):
    """The dtype an Array of `values` holds: theirs if it is float32 or
    float64, else float64."""
    dtype = getattr(values, "dtype", None)      # (a dtype equals None)
    return dtype if dtype is not None and dtype in _DTYPES else np.dtype(np.float64)


def _adoptable(values):
    """A buffer nobody can write through: read-only, owning its memory,
    C-contiguous, 2-d float32 or float64."""
    return (isinstance(values, np.ndarray) and values.dtype in _DTYPES
            and values.ndim == 2 and values.flags.c_contiguous
            and values.flags.owndata and not values.flags.writeable)


def _as_owned_matrix(values):
    arr = np.array(values, dtype=_kept_dtype(values), order="C", copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"arrays are 2-d, got ndim={arr.ndim}")
    return arr


class Array:
    """Immutable 2-d float32 or float64 matrix, optionally a node of a tape.

    `Array(values)` adopts `values` without a copy when it is a read-only,
    owning, C-contiguous 2-d float32 or float64 ndarray (parameters and
    coreset arrays from `adam_step`, say); any other input is copied, and
    keeps its dtype if it is float32, else becomes float64. Either way a
    non-finite entry raises NonFiniteError. An adopted buffer was not born
    here, so no allocation window counts it.

    `_node` is None for a constant, else (weak reference to the tape, node
    id on it). `_retried` is 1 on an `inv_chol` node whose factorization
    took the jitter retry, else 0.
    """

    __slots__ = ("data", "_node", "_retried")

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
        self._retried = 0

    @classmethod
    def _wrap(cls, arr):
        """Adopt a freshly computed buffer without copying (internal); the
        one way in that skips `Array`'s finiteness pass."""
        obj = cls.__new__(cls)
        if arr.dtype not in _DTYPES or not arr.flags.c_contiguous or not arr.flags.owndata:
            arr = np.array(arr, dtype=_kept_dtype(arr), order="C", copy=True)
        arr.flags.writeable = False
        _register_buffer(arr)
        obj.data = arr
        obj._node = None
        obj._retried = 0
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


def zeros(shape, dtype=np.float64):
    return Array._wrap(np.zeros(shape, dtype=dtype))


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


def _retries_of(w):
    """1 if the factorization behind the `inv_chol` node `w` took the jitter
    retry, else 0."""
    return w._retried


# ---------------------------------------------------------------------------
# primitives: forward + vjp pairs
# ---------------------------------------------------------------------------

def _fwd_matmul(a, b, trans_a=False, trans_b=False):
    """op(a) @ op(b) on views: BLAS gets a trans flag, and a @ a.T or
    a.T @ a on one buffer is numpy's syrk, whose adjoint is one product."""
    op_a = a.T if trans_a else a
    op_b = b.T if trans_b else b
    if op_a.shape[1] != op_b.shape[0]:
        raise ShapeError(f"matmul: {op_a.shape} @ {op_b.shape}")
    gram = a is b and trans_a != trans_b
    return _twocore._product(op_a, op_b), (op_a, op_b, trans_a, trans_b, gram)


def _vjp_matmul(g, saved, needs):
    # d op(a) = g op(b)^T, d op(b) = op(a)^T g; a flagged one is built transposed
    op_a, op_b, trans_a, trans_b, gram = saved
    if gram:
        # a^T a or a a^T of one buffer: the two partials sum to one product,
        # a (g + g^T) or (g + g^T) a, returned as the first
        if not needs[0]:
            return None, None
        sym = g + g.T
        return (_twocore._product(op_b, sym) if trans_a
                else _twocore._product(sym, op_a)), None
    ga = gb = None
    if needs[0]:
        ga = _twocore._product(op_b, g.T) if trans_a else _twocore._product(g, op_b.T)
    if needs[1]:
        gb = _twocore._product(g.T, op_a) if trans_b else _twocore._product(op_a.T, g)
    return ga, gb


def _fwd_affine_relu(x, w, b):
    """max(x w + b, 0) in one buffer: the product (cut as `_product` cuts),
    then the bias and the ReLU in place. `network.features` runs it too."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"affine_relu: {x.shape} @ {w.shape} + {b.shape}")
    y = _twocore._product(x, w)
    y += b
    np.maximum(y, 0.0, out=y)
    return y, (x, w, y)


def _vjp_affine_relu(g, saved, needs):
    x, w, y = saved
    gz = g * (y > 0.0)
    return (_twocore._product(gz, w.T) if needs[0] else None,
            _twocore._product(x.T, gz) if needs[1] else None,
            gz.sum(axis=0, keepdims=True) if needs[2] else None)


def _fwd_add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return a + b, ()


def _vjp_add(g, saved, needs):
    return (g if needs[0] else None, g if needs[1] else None)


def _fwd_scale(a, factor):
    if not math.isfinite(factor):
        raise NonFiniteError("scale: non-finite factor")
    return factor * a, (factor,)


def _vjp_scale(g, saved, needs):
    (factor,) = saved
    return (factor * g,)


def _checked_cast(values, dtype, name, out=None):
    """A fresh C-ordered copy of `values` in `dtype`, or `values` cast into
    `out`, a buffer of `dtype`, which is returned. A finite value beyond
    `dtype`'s range raises NonFiniteError naming `name`, the range and the
    largest finite magnitude, where the cast would warn and give inf. The
    cast's own overflow flag tells, so no pass of its own reads the values;
    an inf or nan is cast as it is and raises later, where the tape adopts
    it or what is computed from it."""
    try:
        with np.errstate(over="raise"):
            if out is None:
                return np.array(values, dtype=dtype, order="C")
            np.copyto(out, values, casting="same_kind")
            return out
    except FloatingPointError:
        finite = np.asarray(values)[np.isfinite(values)]
        raise NonFiniteError(
            f"{name} beyond {np.dtype(dtype).name}'s range: largest magnitude "
            f"{np.max(np.abs(finite)):.3e}") from None


def _fwd_cast(x, dtype):
    """x in `dtype`, float32 or float64, as one C-ordered copy, which the
    tape adopts without a second one."""
    if np.dtype(dtype) not in _DTYPES:
        raise NdiffError(f"cast: to float32 or float64, got {np.dtype(dtype)}")
    return _checked_cast(x, dtype, "cast operand"), (x.dtype,)


def _vjp_cast(g, saved, needs):
    # the gradient in the operand's dtype
    return (_checked_cast(g, saved[0], "cast gradient"),)


def _fwd_inner(a, b, axis=None):
    """The sum of a * b over all entries, or over each row with axis=1; the
    product is a temporary, not a tape buffer."""
    if a.shape != b.shape:
        raise ShapeError(f"inner: {a.shape} vs {b.shape}")
    if axis is None:
        out = np.array([[(a * b).sum()]])
    elif axis == 1:
        out = (a * b).sum(axis=1, keepdims=True)
    else:
        raise ShapeError(f"inner: axis must be None or 1, got {axis}")
    return out, (a, b)


def _vjp_inner(g, saved, needs):
    a, b = saved
    if a is b:      # a sum of squares: its two equal partials summed, in one buffer
        return ((2.0 * g) * a if needs[0] else None), None
    return (g * b if needs[0] else None, g * a if needs[1] else None)


# the probit rule's variance coefficient, and the lowest variance its clamp
# takes to zero as round-off
PROBIT_ALPHA = math.pi / 8
VARIANCE_CLAMP = -1e-12


def _fwd_probit_log_softmax(mean, variance):
    """Row i is log softmax(mean_i * s_i), s_i = 1/sqrt(1 + PROBIT_ALPHA
    max(variance_i, 0)) for the n x 1 variance: the scaling, the product and
    the row log-softmax in turn. A variance below VARIANCE_CLAMP raises
    NonFiniteError before any of them."""
    if variance.shape != (mean.shape[0], 1):
        raise ShapeError(f"probit_log_softmax: {mean.shape} vs {variance.shape}")
    lowest = float(variance.min())
    if lowest < VARIANCE_CLAMP:
        raise NonFiniteError(f"negative predictive variance {lowest:.3e} beyond "
                             f"round-off clamp; the posterior solve is broken")
    scaling = 1.0 / np.sqrt(1.0 + PROBIT_ALPHA * np.maximum(variance, 0.0))
    scaled = mean * scaling
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return out, (mean, variance, scaling, out)


def _vjp_probit_log_softmax(g, saved, needs):
    """The adjoints of the row log-softmax, the product and the scaling in
    turn; a clamped variance gets a zero gradient."""
    mean, variance, scaling, out = saved
    gs = g - np.exp(out) * g.sum(axis=1, keepdims=True)
    gm = gs * scaling if needs[0] else None
    gv = None
    if needs[1]:
        g_scaling = (gs * mean).sum(axis=1, keepdims=True)
        gv = -0.5 * PROBIT_ALPHA * scaling ** 3 * g_scaling * (variance > 0.0)
    return gm, gv


def _fwd_inv_chol(s):
    """W = L^{-1} for the lower Cholesky factor L of sym(s). When the first
    factorization fails, one retry adds JITTER times the mean diagonal to
    the diagonal; the saved flag says whether it did. LAPACK's trtri
    inverts L in place, and a W that is not finite raises NonFiniteError
    carrying that flag as its `retries`."""
    if s.shape[0] != s.shape[1]:
        raise ShapeError(f"inv_chol: expected a square matrix, got {s.shape}")
    sym = 0.5 * (s + s.T)
    retried = 0
    try:
        chol = scipy.linalg.cholesky(sym, lower=True)
    except scipy.linalg.LinAlgError:
        retried = 1
        sym[np.diag_indices_from(sym)] += JITTER * float(np.mean(np.diag(sym)))
        try:
            chol = scipy.linalg.cholesky(sym, lower=True)
        except scipy.linalg.LinAlgError:
            raise NonSPDError("matrix is not positive definite (jitter retry failed)")
    w, info = scipy.linalg.lapack.dtrtri(chol, lower=1, overwrite_c=1)
    if info:
        raise NonSPDError(f"Cholesky factor is singular (trtri info {info})")
    if not np.isfinite(w).all():
        err = NonFiniteError("inv_chol: produced non-finite values")
        err.retries = retried
        raise err
    w = np.ascontiguousarray(w)     # trtri writes Fortran order
    return w, (w, retried)


def _vjp_inv_chol(g, saved, needs):
    """S_bar = -sym(W^T Phi(g W^T) W), with Phi(X) = tril(X) - diag(X) / 2
    (Murray 2016, arXiv:1602.07527): three products, and the sum with its
    transpose, exactly symmetric. Three m x m buffers: Phi is taken in the
    first product's (its strict upper triangle set to +0.0, as `np.tril`
    sets it), and the sum is written there once Phi is read."""
    w = saved[0]
    x = _twocore._product(g, w.T)
    np.copyto(x, 0.0, where=np.tri(len(x), k=-1, dtype=bool).T)
    x[np.diag_indices_from(x)] *= 0.5
    y = _twocore._product(w.T, _twocore._product(x, w))
    np.add(y, y.T, out=x)
    x *= -0.5
    return (x,)


def _fwd_logdet_trinv(w):
    """The row [log det S, Tr S^{-1}] = [-2 sum log diag W, ||W||_F^2] for
    the lower triangular W = L^{-1} of S = L L^T; the squares are summed
    pairwise."""
    if w.shape[0] != w.shape[1]:
        raise ShapeError(f"logdet_trinv: expected a square matrix, got {w.shape}")
    logdet = -2.0 * float(np.log(np.diag(w)).sum())
    return np.array([[logdet, float(np.square(w).sum())]]), (w,)


def _vjp_logdet_trinv(g, saved, needs):
    """-2 g_0 diag(1 / diag W) + 2 g_1 W."""
    w = saved[0]
    gw = (2.0 * float(g[0, 1])) * w
    gw[np.diag_indices_from(gw)] -= 2.0 * float(g[0, 0]) / np.diag(w)
    return (gw,)


_REGISTRY = {
    "matmul": (_fwd_matmul, _vjp_matmul, 2),
    "affine_relu": (_fwd_affine_relu, _vjp_affine_relu, 3),
    "add": (_fwd_add, _vjp_add, 2),
    "scale": (_fwd_scale, _vjp_scale, 1),
    "cast": (_fwd_cast, _vjp_cast, 1),
    "inner": (_fwd_inner, _vjp_inner, 2),
    "probit_log_softmax": (_fwd_probit_log_softmax, _vjp_probit_log_softmax, 2),
    "inv_chol": (_fwd_inv_chol, _vjp_inv_chol, 1),
    "logdet_trinv": (_fwd_logdet_trinv, _vjp_logdet_trinv, 1),
}


def apply(op, operands, **params):
    """Run one primitive on a tuple of Arrays, recording it on the live tape
    its operands are nodes of. The other operands are constants that get no
    gradient; with no such tape the op records nothing and returns a
    constant. Operands from two live tapes, operands of two dtypes, and a
    float32 operand of a float64-only primitive raise NdiffError.
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
    dtype = datas[0].dtype
    if any(d.dtype != dtype for d in datas):
        raise NdiffError(f"{op}: mixed operand dtypes "
                         f"{', '.join(str(d.dtype) for d in datas)}")
    if op in _FLOAT64_ONLY and dtype != np.float64:
        raise NdiffError(f"{op}: takes float64 operands, got {dtype}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out_data, saved = fwd(*datas, **params)
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"{op}: produced non-finite values")
    out = Array._wrap(out_data)
    if op == "inv_chol":      # the factor node reports its factorization's retry
        out._retried = saved[1]
    if tape is not None:
        in_ids = tuple(tape.node_id(o) for o in operands)
        out_id = next(tape._ids)
        out._node = (tape._ref, out_id)
        tape.records.append((op, out_id, in_ids, saved))
    return out


def backward(tape, seed):
    """Gradients of the scalar `seed` with respect to every leaf of `tape`.

    Returns a dict node-id -> Array. The gradients take the seed's dtype,
    and leaves the seed does not depend on get zeros of their own. Fan-out
    accumulates by summation. A first partial that is the incoming gradient
    itself keeps its Array; any other is a fresh buffer from the vjp,
    wrapped without a copy. No gradient shares memory with a buffer the
    forward saved.
    """
    seed_id = tape.node_id(seed)
    if seed_id is None:
        raise NdiffError("seed is not on this tape")
    if seed.shape != (1, 1):
        raise ShapeError("seed must be a 1x1 scalar")
    grads = {seed_id: Array._wrap(np.ones((1, 1), seed.data.dtype))}
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
        out[leaf_id] = got if got is not None else zeros(leaf.shape, leaf.data.dtype)
    return out


# thin wrappers so call sites read like linear algebra

def matmul(a, b, trans_a=False, trans_b=False):
    return apply("matmul", (a, b), trans_a=trans_a, trans_b=trans_b)

def affine_relu(x, w, b):
    return apply("affine_relu", (x, w, b))

def add(a, b):
    return apply("add", (a, b))

def scale(a, factor):
    return apply("scale", (a,), factor=factor)

def cast(a, dtype):
    return apply("cast", (a,), dtype=dtype)

def inner(a, b, axis=None):
    return apply("inner", (a, b), axis=axis)

def probit_log_softmax(mean, variance):
    return apply("probit_log_softmax", (mean, variance))

def inv_chol(s):
    return apply("inv_chol", (s,))

def logdet_trinv(w):
    return apply("logdet_trinv", (w,))
