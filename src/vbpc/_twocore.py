"""Two halves on two cores: the scheduler behind every cut.

BLAS stays at one thread. Instead, a worker thread runs the second of two
halves while the caller runs the first (`_halves`): large products (solves
included) and Adam blocks, cut where `_cut` puts them, pool draws, Monte
Carlo chunks, a pixel split's integer sums (`data.normalize`), and each
training step's coreset step beside a pool update.
A product is cut only where each output element takes the same
instructions as in the whole (`_product`), so results are bit-equal to the
uncut work on any number of cores. Halves may cut their own work again.
One loop, `_join`, takes halves off the queue and runs them: the worker
thread runs it for good, and a thread waiting for its own half until that
half is done. One lock, `_ready`, guards the worker's start, the queue and
every half's `done`. Callers look these names up here at call time, so one
monkeypatch of this module sees every cut.
"""

import collections
import contextvars
import os
import threading

import numpy as np

from . import _PIN_THREADS

# Multiply-adds from which a product is cut in two; a product this size
# takes 0.2 ms. An idle worker starts a half 0.05 ms (p50; p90 0.08 ms)
# after it is queued when calls come back to back, and 0.09 ms (p90 0.11 ms)
# after a 2 ms idle gap (2 vCPUs).
# A half gets at least a third of it, so it stays above 10^6, under which
# OpenBLAS switches to small-matrix kernels that compute differently.
SPLIT_WORK = 1 << 22
# Doubles in one 64-byte AVX-512 register; it holds twice as many floats.
# BLAS computes an element of a partial register differently according to
# where its call's blocking puts it, so a product is cut only where the
# dimension BLAS vectorizes is whole registers, and at a multiple of the
# register's lanes, each half at least that wide.
LANES = 8


def _reset():
    """The worker state, at import and again in a child after a fork."""
    global _worker, _ready, _queue
    # None until first use, then False (run halves serially) or True (a
    # worker thread serves `_queue`)
    _worker = None
    # Second halves that no thread has claimed yet, oldest first. `_ready`
    # is the one lock: it guards `_worker`, `_queue` and each half's `done`,
    # and is notified when the queue or a `done` changes.
    _ready = threading.Condition()
    _queue = collections.deque()


_reset()
os.register_at_fork(after_in_child=_reset)


class _Half:
    """The second half of a `_halves` call, with a copy of its caller's
    context (so numpy's errstate holds wherever it runs). The thread that
    takes it off `_queue` in `_join` runs it: the worker, the caller once
    done with its own half, or a thread waiting for another half."""

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


def _start_worker():
    global _worker
    with _ready:
        if _worker is None:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _worker = _PIN_THREADS and cpus > 1
            if _worker:
                threading.Thread(target=_join, daemon=True, name="vbpc-half").start()
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


def _join(half=None):
    """The one loop that takes halves off `_queue` and runs them, until
    `half` is done: `half` itself while it is still queued, otherwise the
    oldest; it sleeps on `_ready` while there are none. The worker thread
    runs it with no `half`, so it serves the queue for good."""
    while True:
        with _ready:
            while not (_queue or half and half.done):
                _ready.wait()
            if half and half.done:
                return
            job = half if half in _queue else _queue[0]
            _queue.remove(job)
        job.run()
        del job


def _cut(size, lanes=LANES):
    """Where `size` rows, columns or Adam elements are cut: the midpoint
    rounded to the nearest multiple of `lanes`, or 0 (not cut) when a half
    would be narrower than `lanes`. The halves differ by at most `lanes`."""
    return (size + lanes) // (2 * lanes) * lanes if size >= 2 * lanes else 0


def _product(a, b):
    """a @ b in a fresh C-order buffer of the operands' dtype, written as
    two halves when it holds at least SPLIT_WORK multiply-adds: the output's
    rows or columns, whichever are more, cut at `_cut` with the lanes of a
    register of that dtype (LANES doubles, 2 * LANES floats). Bit-equal to
    a @ b. The output's columns are the dimension BLAS vectorizes, so a
    product is cut only when they are whole registers; a product of a buffer
    with itself (a Gram, which numpy computes with syrk) is never cut."""
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n), np.result_type(a, b))
    lanes = LANES * 8 // out.itemsize
    mid = _cut(max(m, n), lanes)
    if m * n * k < SPLIT_WORK or n % lanes or not mid or np.may_share_memory(a, b):
        np.matmul(a, b, out=out)
    elif m >= n:
        _halves(lambda: np.matmul(a[:mid], b, out=out[:mid]),
                lambda: np.matmul(a[mid:], b, out=out[mid:]))
    else:
        _halves(lambda: np.matmul(a, b[:, :mid], out=out[:, :mid]),
                lambda: np.matmul(a, b[:, mid:], out=out[:, mid:]))
    return out
