"""Two halves on two cores: the scheduler behind every cut.

BLAS stays at one thread. Instead, large products (solves included), Adam
blocks, pool draws and Monte Carlo chunks are cut in two halves at a point
fixed by their shapes (`_halves`), and a worker thread runs the second
half while the caller runs the first. A product is cut only where each
output element takes the same instructions as in the whole (`_product`),
so results are bit-equal to the uncut work on any number of cores. Halves
may cut their own work again (the trainer runs a whole coreset step as
one). Callers look these names up here at call time, so one monkeypatch
of this module sees every cut.
"""

import collections
import contextvars
import os
import threading

import numpy as np

from . import _PIN_THREADS

# Multiply-adds from which a product is cut in two; handing a half to the
# worker costs about 20 us, a product this size 0.2 ms.
# A half gets at least 8/31 of it, so it stays above 10^6, under which
# OpenBLAS switches to small-matrix kernels that compute differently.
SPLIT_WORK = 1 << 22
# Doubles in one AVX-512 register. BLAS computes an element of a partial
# register differently according to where its call's blocking puts it, so a
# cut is made only where the dimension BLAS vectorizes is whole registers,
# and at a multiple of LANES, each half at least LANES wide.
LANES = 8


def _reset():
    """The worker state, at import and again in a child after a fork."""
    global _worker, _worker_start, _ready, _queue
    # None until first use, then False (run halves serially) or True (a
    # worker thread serves `_queue`)
    _worker = None
    _worker_start = threading.Lock()
    # Second halves that no thread has claimed yet, oldest first. `_ready`
    # guards it and each half's `done`, and is notified when either changes.
    _ready = threading.Condition()
    _queue = collections.deque()


_reset()
os.register_at_fork(after_in_child=_reset)


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
