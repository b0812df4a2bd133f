"""Package surface: every tape primitive has a caller, no layer above the
tape names one, the tape module holds no thread or global state, the
names the demos import resolve, the BLAS thread pinning holds in any
import order, and importing starts no thread."""

import ast
import dataclasses
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vbpc
from vbpc import ndiff as nd
from vbpc import network
from vbpc.data import PseudoCoreset
from vbpc.objective import coreset_grad, outer_loss
from vbpc.posterior import CoresetPosterior, Hyperparams

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_upper_layers_use_every_primitive(monkeypatch):
    used = set()
    real_apply = nd.apply

    def recording_apply(op, *args, **kwargs):
        used.add(op)
        return real_apply(op, *args, **kwargs)

    monkeypatch.setattr(nd, "apply", recording_apply)
    rng = np.random.default_rng(0)
    hyper = Hyperparams(rho=1.0, gamma=10.0, beta_s=4.0, beta_d=1e-3)
    coreset = PseudoCoreset(images=rng.standard_normal((4, 3)),
                            labels=rng.standard_normal((4, 2)),
                            ipc=2, hyper=hyper)
    net = network.init_net((3, 5), 2, seed=1)
    batch = (rng.standard_normal((6, 3)), np.eye(2)[rng.integers(0, 2, 6)])
    tape = nd.Tape()
    loss, _ = outer_loss(coreset, net, batch, 12, hyper, tape)
    coreset_grad(loss, tape)
    network.gaussian_step(net, coreset.images, coreset.labels, hyper.gamma, 1e-3)
    assert used == set(nd._REGISTRY)


def test_ndiff_wrappers_are_the_registry():
    # each module-level function that calls apply names its own op, and
    # every op has one, so no wrapper outlives its primitive
    tree = ast.parse((ROOT / "src" / "vbpc" / "ndiff.py").read_text())
    wrapped = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            ops = [call.args[0].value for call in ast.walk(node)
                   if isinstance(call, ast.Call)
                   and getattr(call.func, "id", None) == "apply"]
            if ops:
                wrapped[node.name] = ops
    assert wrapped == {op: [op] for op in nd._REGISTRY}


def test_ndiff_writes_no_global_and_starts_no_thread():
    # the scheduler and the allocation windows live in modules of their own
    tree = ast.parse((ROOT / "src" / "vbpc" / "ndiff.py").read_text())
    nodes = list(ast.walk(tree))
    assert not any(isinstance(node, ast.Global) for node in nodes)
    imported = {alias.name.split(".")[0] for node in nodes
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in nodes
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"threading", "contextvars"}


def test_no_tape_parameter_above_ndiff():
    # arrays carry their tape, so only leaf registration and backward name one
    named = []
    for module in ("posterior", "predictive", "network"):
        tree = ast.parse((ROOT / "src" / "vbpc" / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "tape" for a in params):
                    named.append(f"{module}.{getattr(node, 'name', '<lambda>')}")
    ndiff_calls = [nd.apply] + [getattr(nd, op) for op in nd._REGISTRY]
    named += [f"ndiff.{f.__name__}" for f in ndiff_calls
              if "tape" in inspect.signature(f).parameters]
    assert named == []
    assert "tape" not in {f.name for f in dataclasses.fields(CoresetPosterior)}


def test_demo_imports_resolve():
    names = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "vbpc":
                names.update(alias.name for alias in node.names)
    assert names
    missing = sorted(name for name in names if not hasattr(vbpc, name))
    assert not missing, f"demos import names vbpc does not export: {missing}"


# Imports numpy before vbpc, then reports the thread count of every
# OpenBLAS mapped into the process.
_PROBE = """
import ctypes, json, os
import numpy
import vbpc

with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh
                    if "openblas" in line.lower() and line.rstrip().endswith(".so")})
threads = {}
for path in paths:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads"):
        if hasattr(lib, symbol):
            threads[os.path.basename(path)] = getattr(lib, symbol)()
            break
print(json.dumps({"threads": threads,
                  "env": {v: os.environ.get(v) for v in %r}}))
""" % (THREAD_VARS,)


def _probe(**thread_env):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env)
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out)
    if not result["threads"]:
        pytest.skip("no bundled OpenBLAS mapped into the process")
    return result


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the process memory map")
def test_blas_pinned_to_one_thread_after_numpy_import():
    result = _probe()
    assert set(result["threads"].values()) == {1}, result
    assert result["env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the process memory map")
def test_blas_thread_choice_of_user_is_kept():
    result = _probe(OPENBLAS_NUM_THREADS="2")
    expect = min(2, len(os.sched_getaffinity(0)))
    assert set(result["threads"].values()) == {expect}, result
    assert result["env"] == {"OMP_NUM_THREADS": None,
                             "OPENBLAS_NUM_THREADS": "2",
                             "MKL_NUM_THREADS": None}


# Counts the threads of the process after `import vbpc`, and again after a
# product large enough to be cut in two halves.
_THREADS = """
import json, os, threading
import vbpc
import numpy as np

def threads():
    task = "/proc/self/task"
    native = len(os.listdir(task)) if os.path.isdir(task) else None
    return [threading.active_count(), native]

after_import = threads()
a = np.ones((256, 256))
vbpc._twocore._product(a, np.ones((256, 256)))
print(json.dumps({"import": after_import, "product": threads(),
                  "worker": vbpc._twocore._start_worker() is not False}))
"""


def test_import_starts_no_thread():
    # the worker that takes the second half of a cut product starts lazily
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-c", _THREADS], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out)
    assert result["import"] in ([1, 1], [1, None])
    assert result["product"][0] == (2 if result["worker"] else 1)
    if hasattr(os, "sched_getaffinity"):
        assert result["worker"] == (len(os.sched_getaffinity(0)) > 1)
