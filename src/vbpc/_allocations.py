"""Allocation windows (`track_allocations`, which `vbpc.ndiff` re-exports):
the memory evidence of the benchmarks and of the "never materialize an
h x h buffer" assertions."""

import threading
import weakref
from contextlib import contextmanager


class AllocationWindow:
    """Buffers this layer allocates while the window is open, in float64
    elements: bytes / 8, so a float32 buffer counts half its elements.

    A window counts the buffers this layer allocates inside it: array
    buffers, gradient buffers and cached inverse factors, but not a buffer
    an Array adopts without a copy. ``live`` is how much of that is still
    alive, ``peak`` its high-water mark and ``largest_block`` the largest
    single buffer. A buffer born before the window opened is not counted,
    even when it is freed inside. ``base`` is always 0, so ``peak - base``
    is the window's own peak.
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
        window._add(arr.nbytes / 8)
        weakref.finalize(arr, window._remove, arr.nbytes / 8)
