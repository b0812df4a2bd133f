"""Package surface: every tape primitive has a caller, no layer above the
tape names one, README lists them all and states the coreset file format,
the tape module holds no thread or global state, the names the demos import
resolve, the options and environment variables are the listed ones, a short
benchmark run passes its checks, the BLAS thread pinning holds in any
import order, and importing starts no thread."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vbpc
from vbpc import cli, data, ndiff as nd
from vbpc import network
from vbpc.data import PseudoCoreset
from vbpc.objective import coreset_grad, outer_loss
from vbpc.posterior import CoresetPosterior, Hyperparams
from vbpc.trainer import TrainConfig

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
    # a float32 pool slot, as training drives it
    pool = network.pool_new(1, (3, 5), 2, seed=1, period=5)
    batch = (rng.standard_normal((6, 3)), np.eye(2)[rng.integers(0, 2, 6)])
    tape = nd.Tape()
    loss, _ = outer_loss(coreset, pool.slots[0].net, batch, 12, hyper, tape)
    coreset_grad(loss, tape)
    network.pool_update(pool, 0, coreset.images, coreset.labels, hyper.gamma, 1e-3)
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


def test_readme_lists_the_primitives():
    # README's vbpc.ndiff bullet names every primitive in code font and
    # gives their count, so the hand-kept list cannot drift from the registry
    readme = (ROOT / "README.md").read_text()
    start = readme.index("- **`vbpc.ndiff`**")
    bullet = readme[start:readme.index("\n- **", start)]
    assert f"{len(nd._REGISTRY)} primitives" in bullet
    missing = [op for op in nd._REGISTRY if f"`{op}`" not in bullet]
    assert not missing, missing


def test_readme_states_the_coreset_format():
    # README's format section gives the version the reader accepts and the
    # statistics fields the file carries
    readme = (ROOT / "README.md").read_text()
    start = readme.index("## Coreset file format")
    section = readme[start:readme.index("\n## ", start)]
    assert f"version u32 = {data.FORMAT_VERSION}" in section
    assert "`mean`" in section and "`std`" in section


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


def test_options_and_environment_variables_are_the_listed_ones():
    # each setting doubles the configurations to cover: adding one is a
    # decision this list records
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "steps", "batch_size", "ipc", "hidden", "rho", "gamma", "beta_s",
        "beta_d", "coreset_lr", "pool_lr", "pool_size", "pool_period",
        "noise_sigma", "noise_aug", "learn_labels", "init_mode", "seed_data",
        "seed_pool", "seed_noise", "seed_init", "log_interval"]
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {name: sorted(flag for action in parser._actions
                          for flag in action.option_strings
                          if flag not in ("-h", "--help"))
             for name, parser in commands.items()}
    assert flags == {
        "train": ["--config", "--data", "--out", "--seed"],
        "eval": ["--coreset", "--data", "--hidden", "--out", "--seed", "--tprime"],
        "bench": ["--h", "--mode", "--nhat", "--out", "--reps"],
        "export-images": ["--coreset", "--out"]}
    readers = sorted(path.name for path in (ROOT / "src" / "vbpc").glob("*.py")
                     if "environ" in path.read_text() or "getenv" in path.read_text())
    assert readers == ["__init__.py"] and vbpc._THREAD_VARS == THREAD_VARS


def test_tape_wrapper_options_are_the_listed_ones():
    # a wrapper's parameters past its operands are the primitive's options;
    # each is a case its gradient check must cover: adding one is a decision
    # this list records
    options = {op: list(inspect.signature(getattr(nd, op)).parameters)[arity:]
               for op, (_, _, arity) in nd._REGISTRY.items()}
    assert {op: names for op, names in options.items() if names} == {
        "matmul": ["trans_a", "trans_b"], "scale": ["factor"], "cast": ["dtype"],
        "inner": ["axis"]}


def test_network_holds_only_its_parameters():
    # the taped feature pass reads a net's parameters as constants, and a
    # net is its parameters, its widths read off their shapes: a second
    # mode or a stored field is a decision this list records
    assert list(inspect.signature(network.features_graph).parameters) == ["net", "x"]
    assert [f.name for f in dataclasses.fields(network.FeatureNet)] == [
        "weights", "biases", "head"]


def test_the_tape_takes_outside_buffers_one_way():
    # a buffer from outside the tape enters through Array, which checks it
    # is finite; only Array._wrap, for buffers an op has just computed,
    # builds an Array without that check: a second unchecked door is a
    # decision this test records
    tree = ast.parse((ROOT / "src" / "vbpc" / "ndiff.py").read_text())
    doors = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"):
            doors.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    assert doors == ["Array._wrap"]


def test_scheduler_tuning_constants_are_the_listed_ones():
    # each threshold is a size at which work changes thread or kernel, and
    # one more is a rule to keep in step with the rest: adding one is a
    # decision this list records
    found = set()
    for name in ("_twocore", "optim", "network", "predictive", "trainer"):
        module = importlib.import_module(f"vbpc.{name}")
        tree = ast.parse((ROOT / "src" / "vbpc" / f"{name}.py").read_text())
        found |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)
                  and type(getattr(module, target.id)) is int}
    assert found == {"SPLIT_WORK", "LANES", "SLICE", "MC_CHUNK", "EVAL_CHUNK"}


def test_every_vbpc_name_the_benchmark_reads_exists():
    # perfbench/workload.py is frozen with the benchmark, and a traced run
    # looks up each hooked (module, "name") pair with getattr at start-up:
    # every attribute it reads of a vbpc module, and every name it hooks
    # there, must exist. The file is parsed, never imported
    tree = ast.parse((ROOT / "perfbench" / "workload.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "vbpc":
            modules.update({alias.asname or alias.name:
                            importlib.import_module(f"vbpc.{alias.name}")
                            for alias in node.names})
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            read.add((node.value.id, node.attr))
        items = (node.elts if isinstance(node, ast.Tuple)
                 else node.args if isinstance(node, ast.Call) else [])
        read |= {(a.id, b.value) for a, b in zip(items, items[1:])
                 if isinstance(a, ast.Name) and a.id in modules
                 and isinstance(b, ast.Constant) and isinstance(b.value, str)}
    assert {("trainer", "evaluate_coreset"), ("predictive", "bma_predict"),
            ("trainer", "predictive_moments"), ("trainer", "probit_log_softmax"),
            ("nd", "apply"), ("network", "pool_new")} <= read
    missing = sorted(f"{module}.{name}" for module, name in read
                     if not hasattr(modules[module], name))
    assert not missing, f"perfbench reads names vbpc lacks: {missing}"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_run_reads_correct(trace):
    # perfbench drives load_data, Dataset.X, onehot and the rest of the
    # library as its gated workloads do; a one-second run of its smallest
    # workload fails here when the library surface it reads breaks. A
    # traced run also hooks ndiff.apply by op name and the functions it
    # times layer by layer
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "desk-moons", "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


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
