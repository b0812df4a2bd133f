"""Learnable pseudo-coresets with closed-form last-layer Gaussian posteriors
and single-forward-pass Bayesian model averaging."""

import ctypes
import glob
import os

# The workload is many small dense solves; multi-threaded BLAS loses badly
# to sync overhead there (measured ~45x on 2 cores). Unless the user chose a
# thread count, pin to 1: the variables reach every OpenBLAS not yet loaded,
# and the bundled OpenBLAS builds already loaded (numpy imported first) are
# set through their own call below.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_PIN_THREADS = not any(var in os.environ for var in _THREAD_VARS)
if _PIN_THREADS:
    for _var in _THREAD_VARS:
        os.environ.setdefault(_var, "1")

from .posterior import (Hyperparams, solve_posterior, dense_variance,
                        logdet_v, trace_v, kl_to_prior, fixed_point_residual)
from .predictive import probit_log_softmax, mc_log_softmax
from .data import gen_synthetic, normalize, normalize_with, init_coreset
from .trainer import TrainConfig, train, evaluate_coreset
from .bench import run_bench

__version__ = "0.1.0"


def _pin_bundled_openblas():
    """Set one thread in the OpenBLAS builds that numpy and scipy bundle."""
    import numpy
    import scipy

    for package in (numpy, scipy):
        libs = os.path.dirname(os.path.dirname(package.__file__))
        pattern = os.path.join(libs, package.__name__ + ".libs", "*openblas*.so*")
        for path in glob.glob(pattern):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_set_num_threads64_",
                           "scipy_openblas_set_num_threads"):
                if hasattr(lib, symbol):
                    getattr(lib, symbol)(1)
                    break


if _PIN_THREADS:
    _pin_bundled_openblas()
