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

An allocation window (`track_allocations`) counts the float64 elements this
layer allocates while it is open (array buffers, gradient buffers, cached
Cholesky factors): live count, peak and largest single block. A buffer an
Array adopts was allocated elsewhere and is not counted. It is the evidence
used by the memory benchmarks and the "never materialize an h x h buffer"
assertions. With no window open, nothing is counted and buffers carry no
bookkeeping.

BLAS stays at one thread. Large products (and the wide triangular solves)
are cut instead into two halves at a point fixed by their shapes, and the
second half runs on a worker thread while the caller computes the first,
so an idle second core does half the work. A product is cut only where
each output element takes the same instructions as in the whole, so the
result is bit-equal to the uncut product, and so it does not depend on the
number of cores: with one CPU in the process's affinity, or a BLAS thread
count the user set, the halves run one after the other on the caller.
Halves may cut their own work in halves again (the trainer runs a whole
coreset step as one), and a thread waiting for a half runs the halves
queued meanwhile, so neither core idles while the other has work cut.
"""

import collections
import contextvars
import ctypes
import functools
import itertools
import math
import os
import threading
import weakref
from contextlib import contextmanager

import numpy as np
import scipy.linalg

from . import _PIN_THREADS, _bundled_openblas

JITTER = 1e-10
# Multiply-adds from which a product or a triangular solve is cut in two;
# handing a half to the worker costs about 20 us, a product this size 0.2 ms.
# A half gets at least 8/31 of it, so it stays above 10^6, under which
# OpenBLAS switches to small-matrix kernels that compute differently.
SPLIT_WORK = 1 << 22
# Doubles in one AVX-512 register. BLAS computes an element of a partial
# register differently according to where its call's blocking puts it, so a
# cut is made only where the dimension BLAS vectorizes is whole registers,
# and at a multiple of LANES, each half at least LANES wide.
LANES = 8

# Factorizations in this process whose first attempt failed and went to the
# jitter retry; callers that report it take differences over their own work.
jitter_retries = 0


class NdiffError(Exception):
    pass


class ShapeError(NdiffError):
    pass


class NonSPDError(NdiffError):
    pass


class NonFiniteError(NdiffError):
    pass


# ---------------------------------------------------------------------------
# allocation tracking
# ---------------------------------------------------------------------------

class AllocationWindow:
    """Float64 elements this layer allocates while the window is open.

    A window counts the buffers this layer allocates inside it: array
    buffers, gradient buffers and cached Cholesky factors, but not a buffer
    an Array adopts without a copy. ``live`` is how many of those
    elements are still alive, ``peak`` its high-water mark and
    ``largest_block`` the largest single buffer. A buffer born before the
    window opened is not counted, even when it is freed inside. ``base`` is
    always 0, so ``peak - base`` is the window's own peak.
    """

    def __init__(self):
        self.base = 0
        self.live = 0
        self.peak = 0
        self.largest_block = 0
        # both threads of a training step allocate, and a finalizer can run
        # on either
        self._lock = threading.RLock()

    def _add(self, block):
        with self._lock:
            self.live += block
            if self.live > self.peak:
                self.peak = self.live
            if block > self.largest_block:
                self.largest_block = block

    def _remove(self, block):
        with self._lock:
            self.live -= block


# Windows currently open; with none open a new buffer costs nothing here.
_open_windows = []


@contextmanager
def track_allocations():
    window = AllocationWindow()
    _open_windows.append(window)
    try:
        yield window
    finally:
        _open_windows.remove(window)


def _register_buffer(arr):
    for window in _open_windows:
        window._add(arr.size)
        weakref.finalize(arr, window._remove, arr.size)


# ---------------------------------------------------------------------------
# two halves on two cores
# ---------------------------------------------------------------------------

# None until first use, then False (run halves serially) or True (a worker
# thread serves `_queue`)
_worker = None
_worker_start = threading.Lock()
# Second halves that no thread has claimed yet, oldest first. `_ready`
# guards it and each half's `done`, and is notified when either changes.
_ready = threading.Condition()
_queue = collections.deque()


class _Half:
    """The second half of a `_halves` call, with a copy of its caller's
    context (so numpy's errstate holds wherever it runs). The thread that
    takes it off `_queue` runs it: the worker, the caller once done with
    its own half, or a thread waiting for another half."""

    __slots__ = ("context", "fn", "error", "done")

    def __init__(self, fn):
        self.context = contextvars.copy_context()
        self.fn = fn
        self.error = None
        self.done = False

    def run(self):
        """Run the half; the calling thread has taken it off `_queue`."""
        context, fn = self.context, self.fn
        self.context = self.fn = None
        try:
            context.run(fn)
        except BaseException as err:  # raised by the caller of `_halves`
            self.error = err
        del context, fn     # hold none of the caller's buffers once it resumes
        with _ready:
            self.done = True
            _ready.notify_all()


def _serve():
    while True:
        with _ready:
            while not _queue:
                _ready.wait()
            half = _queue.popleft()
        half.run()
        del half


def _start_worker():
    global _worker
    with _worker_start:
        if _worker is None:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _worker = _PIN_THREADS and cpus > 1
            if _worker:
                threading.Thread(target=_serve, daemon=True, name="vbpc-half").start()
    return _worker


def _reset_after_fork():
    global _worker, _worker_start, _ready, _queue
    _worker = None
    _worker_start = threading.Lock()
    _ready = threading.Condition()
    _queue = collections.deque()


os.register_at_fork(after_in_child=_reset_after_fork)


def _halves(first, second):
    """Run `first()` here while the worker thread runs `second()`, and
    return once both are done; an exception from either is raised here.
    The two must write to disjoint memory, and either may call `_halves`
    itself. When no thread has begun `second` by the time `first` is done
    (the other core is busy), this thread runs it. While another thread
    runs it, this one runs the halves queued meanwhile (those that
    `second` cuts), so a long `second` still gets both cores; it sleeps
    on `_ready` when there are none. With one CPU in the process's
    affinity, or a BLAS thread count the user set, both run here, one
    after the other."""
    if not _start_worker():
        first()
        second()
        return
    half = _Half(second)
    with _ready:
        _queue.append(half)
        _ready.notify_all()
    try:
        first()
    finally:
        _join(half)
    if half.error is not None:
        raise half.error


def _join(half):
    """Return once `half` is done, running it here if it is still queued,
    and while another thread runs it, the halves queued meanwhile."""
    while True:
        with _ready:
            while not half.done and not _queue:
                _ready.wait()
            if half.done:
                return
            if half in _queue:
                _queue.remove(half)
                job = half
            else:
                job = _queue.popleft()
        job.run()
        del job


def _cut(size):
    """Where a dimension of `size` is cut: a multiple of LANES near the
    middle, or 0 when a half would be narrower than LANES."""
    return size // (2 * LANES) * LANES


def _product(a, b):
    """a @ b in a fresh C-order buffer, written as two halves when it holds
    at least SPLIT_WORK multiply-adds: the output's rows or columns,
    whichever are more, cut at `_cut`. Bit-equal to a @ b. The output's
    columns are the dimension BLAS vectorizes, so a product is cut only when
    they are whole registers; a product of a buffer with itself (a Gram,
    which numpy computes with syrk) is never cut."""
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n))
    mid = _cut(max(m, n))
    if m * n * k < SPLIT_WORK or n % LANES or not mid or np.may_share_memory(a, b):
        np.matmul(a, b, out=out)
    elif m >= n:
        _halves(lambda: np.matmul(a[:mid], b, out=out[:mid]),
                lambda: np.matmul(a[mid:], b, out=out[mid:]))
    else:
        _halves(lambda: np.matmul(a, b[:, :mid], out=out[:, :mid]),
                lambda: np.matmul(a, b[:, mid:], out=out[:, mid:]))
    return out


@functools.cache
def _lapack():
    """(dtrtrs, dpotrs) of the OpenBLAS that scipy bundles, bound through
    ctypes, or None where scipy bundles none. They are the routines scipy's
    wrappers call, so they give the same bits; but those wrappers hold the
    interpreter lock while LAPACK runs, and a ctypes call releases it, so
    only through these can two halves of a solve run at once."""
    for path in _bundled_openblas(scipy):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_dtrtrs_") and hasattr(lib, "scipy_dpotrs_"):
            char, ptr, size = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
            num = ctypes.POINTER(ctypes.c_int)
            trtrs, potrs = lib.scipy_dtrtrs_, lib.scipy_dpotrs_
            # Fortran arguments by reference, then the hidden lengths of the
            # character arguments
            trtrs.argtypes = [char, char, char, num, num, ptr, num, ptr, num, num,
                              size, size, size]
            potrs.argtypes = [char, num, num, ptr, num, ptr, num, num, size]
            trtrs.restype = potrs.restype = None
            return trtrs, potrs
    return None


def _lapack_solve(lapack, chol, x, op):
    """Overwrite the columns of `x` with op(chol)^{-1} x, by the routines of
    `_lapack()`. chol is a lower factor in Fortran order; x is a block of
    a Fortran-order buffer; op is "N" (chol), "T" (chol^T) or "S" (chol
    chol^T)."""
    m, n = x.shape
    if not (chol.dtype == x.dtype == np.float64 and chol.shape == (m, m)
            and chol.flags.f_contiguous and x.strides[0] == 8
            and x.strides[1] >= 8 * m and op in ("N", "T", "S")):
        raise NdiffError(f"LAPACK solve: bad operands {chol.shape}, {x.shape}, {op!r}")
    trtrs, potrs = lapack
    info = ctypes.c_int(0)
    dims = [ctypes.byref(ctypes.c_int(v)) for v in (m, n, x.strides[1] // 8)]
    if op == "S":
        potrs(b"L", dims[0], dims[1], chol.ctypes.data, dims[0], x.ctypes.data,
              dims[2], ctypes.byref(info), 1)
    else:
        trtrs(b"L", op.encode(), b"N", dims[0], dims[1], chol.ctypes.data, dims[0],
              x.ctypes.data, dims[2], ctypes.byref(info), 1, 1, 1)
    if info.value:
        raise NdiffError(f"LAPACK solve failed with info {info.value}")


def _solve(chol, b, op="N"):
    """op(chol)^{-1} b for a lower Cholesky factor: op "N" is chol, "T" is
    chol^T and "S" is chol chol^T. The result is in Fortran order, the
    layout LAPACK writes. At least SPLIT_WORK multiply-adds are cut into
    two halves of columns at `_cut`, each solved alone, when m is whole
    registers (LAPACK vectorizes over it) and `_lapack()` can release the
    interpreter lock; any other solve is scipy's, whole."""
    m, n = b.shape
    mid = _cut(n)
    lapack = _lapack()
    if m * m * n < SPLIT_WORK or m % LANES or not mid or lapack is None:
        if op == "S":
            return scipy.linalg.cho_solve((chol, True), b)
        return scipy.linalg.solve_triangular(chol, b, lower=True, trans=op)
    x = np.array(b, order="F")
    _halves(lambda: _lapack_solve(lapack, chol, x[:, :mid], op),
            lambda: _lapack_solve(lapack, chol, x[:, mid:], op))
    return x


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
    """Lower Cholesky factor with the one-shot jitter retry, counted in
    `jitter_retries`."""
    global jitter_retries
    try:
        return scipy.linalg.cholesky(sym, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    jitter_retries += 1
    bump = JITTER * float(np.mean(np.diag(sym)))
    jittered = sym + bump * np.eye(sym.shape[0])
    try:
        return scipy.linalg.cholesky(jittered, lower=True)
    except scipy.linalg.LinAlgError:
        raise NonSPDError("matrix is not positive definite (jitter retry failed)")


def _chol_of(array):
    """Lower factor of sym(array), cached so one factorization is shared."""
    if array._chol is None:
        a = array.data
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected square matrix, got {a.shape}")
        sym = 0.5 * (a + a.T)
        chol = _raw_cholesky(sym)
        chol.flags.writeable = False
        _register_buffer(chol)
        array._chol = chol
    return array._chol


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
    return _product(op_a, op_b), (op_a, op_b, trans_a, trans_b)


def _vjp_matmul(g, saved, needs):
    # d op(a) = g op(b)^T, d op(b) = op(a)^T g; a flagged one is built transposed
    op_a, op_b, trans_a, trans_b = saved
    ga = gb = None
    if needs[0]:
        ga = _product(op_b, g.T) if trans_a else _product(g, op_b.T)
    if needs[1]:
        gb = _product(g.T, op_a) if trans_b else _product(op_a.T, g)
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
    chol, x = saved
    gb = _solve(chol, g, "S")
    if needs[0]:
        gs = -gb @ x.T
        ga = 0.5 * (gs + gs.T)
    else:
        ga = None
    return ga, (gb if needs[1] else None)


def _fwd_logdet_spd(a, _chol=None):
    out = 2.0 * float(np.log(np.diag(_chol)).sum())
    return np.array([[out]]), (_chol,)


def _vjp_logdet_spd(g, saved, needs):
    (chol,) = saved
    inv = scipy.linalg.cho_solve((chol, True), np.eye(chol.shape[0]))
    return (float(g[0, 0]) * 0.5 * (inv + inv.T),)


def _fwd_inv_quad_spd(a, b, rows=False, _chol=None):
    """Entry j of the result is b_j^T a^{-1} b_j = ||L^{-1} b_j||^2 over the
    columns b_j of b, or over its rows with `rows`: one triangular solve,
    and a sum of squares that cannot cancel. The rows are solved through
    the view b.T, which is already the Fortran layout LAPACK reads."""
    op_b = b.T if rows else b
    if a.shape[0] != a.shape[1] or a.shape[1] != op_b.shape[0]:
        raise ShapeError(f"inv_quad_spd: {a.shape} vs {op_b.shape}")
    z = _solve(_chol, op_b)
    return (z * z).sum(axis=0).reshape(-1, 1), (_chol, z, rows)


def _vjp_inv_quad_spd(g, saved, needs):
    chol, z, rows = saved
    x = _solve(chol, z, "T")  # a^{-1} op(b), Fortran order
    xg = x * g.T
    ga = None
    if needs[0]:
        ga = _product(xg, x.T)
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
    "logdet_spd": (_fwd_logdet_spd, _vjp_logdet_spd, 1),
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
    if op in ("cholesky_solve_spd", "logdet_spd", "inv_quad_spd"):
        params = dict(params)
        params["_chol"] = _chol_of(operands[0])
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

def logdet_spd(a):
    return apply("logdet_spd", (a,))

def inv_quad_spd(a, b, rows=False):
    return apply("inv_quad_spd", (a, b), rows=rows)

def sum(a, axis=None):  # noqa: A001 - mirrors np.sum naming
    return apply("sum", (a,), axis=axis)
