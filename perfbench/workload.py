"""One benchmark workload, run in its own process by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

Drives the library the way `vbpc train` and `vbpc eval` do: `vbpc` is
imported before numpy (its BLAS thread pinning only acts then), inputs go
through `vbpc.cli.load_data`, the coreset through `vbpc.trainer.train`, a
save/load round trip, and `vbpc.trainer.evaluate_coreset`. Every timing is
taken here, outside the program, and is a median of many short samples:

    setup    load + normalize + init_coreset + pool_new, repeated
    train    one sample per step, between calls of the metrics sink
    eval     one sample per evaluation seed
    predict  one sample per fixed-size chunk of features + bma_predict

With --trace 1 the same run records spans (see tracing.py) on every other
training step and through the set-up, eval and predict phases, and prints
the per-layer metrics instead of the end-to-end ones. The last stdout line
is the result object; the line before it records the environment.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

_import_started = time.perf_counter()
import vbpc  # noqa: E402  (before numpy, as the command line does)
IMPORT_S = time.perf_counter() - _import_started

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from vbpc import cli, data, network, objective, posterior, predictive, trainer  # noqa: E402
from vbpc import ndiff as nd  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

# Work per phase for a 30-second run; --seconds scales it linearly, with
# floors that keep every median and the tail meaningful. `tprime` is the
# evaluation's Gaussian step count: the CLI default (500) at desk scale,
# fewer at image scale so several evaluations fit in a run. `min_acc` is
# the accuracy gate: the paper's 0.90 on two-moons; chance (0.1) plus 0.3
# on the ten-class image sets.
REFERENCE_SECONDS = 30
WORKLOADS = {
    "desk-moons": dict(
        data="synthetic:moons:n=2000,k=2,noise=0.1", hidden=(32, 32), ipc=10,
        tprime=500, steps=1000, evals=50, chunks=1500, setups=200, min_acc=0.90),
    "solve-heavy": dict(
        image=(28, 28, 1), n_train=6000, n_test=2000, hidden=(256, 256), ipc=50,
        tprime=25, steps=55, evals=5, chunks=40, setups=7, min_acc=0.40),
    "wide": dict(
        image=(32, 32, 3), n_train=3000, n_test=1000, hidden=(512, 512), ipc=10,
        tprime=15, steps=70, evals=5, chunks=40, setups=5, min_acc=0.40),
}
FLOORS = dict(steps=51, evals=3, chunks=40, setups=3)
EVAL_POOL_LR = 0.0003       # evaluate_coreset's default
FD_EPS = 1e-4
BATCH = 256
CHUNK_ROWS = 1000
TAIL_BEYOND = 10
PRIMITIVES = ("matmul", "transpose", "add", "sub", "scale", "hadamard", "relu",
              "row_log_softmax", "rsqrt_shift", "cholesky_solve_spd",
              "logdet_spd", "trace_matmul", "sum")


class Ops:
    """Counts operations attempted and failed, and collects check results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def run(self, name, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as err:  # one failed operation must not end the run
            self.failed += 1
            self.notes.append(f"{name} failed: {type(err).__name__}: {err}")
            return None

    def check(self, name, fn):
        """A check is an operation; a false result makes the run incorrect."""
        result = self.run(name, fn)
        if result is None:
            return
        ok, detail = result
        self.notes.append(f"{name}: {'ok' if ok else 'FAILED'} - {detail}")
        if not ok:
            self.correct = False


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

# (thread-count getter, config getter) as the OpenBLAS builds in use name them
BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
                ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
                ("openblas_get_num_threads", "openblas_get_config"))


def blas_record():
    """OpenBLAS builds mapped into this process, with their thread counts."""
    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for threads_fn, config_fn in BLAS_SYMBOLS:
            if hasattr(lib, threads_fn) and hasattr(lib, config_fn):
                getattr(lib, threads_fn).restype = ctypes.c_int
                getattr(lib, config_fn).restype = ctypes.c_char_p
                entry["threads"] = getattr(lib, threads_fn)()
                entry["config"] = getattr(lib, config_fn)().decode()
                break
        libs.append(entry)
    return libs


def environment(args):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_record(),
            "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "import_vbpc_s": IMPORT_S}


# ---------------------------------------------------------------------------
# tracing hooks: each patches the attribute its callers look up
# ---------------------------------------------------------------------------

def make_tracer():
    tracer = Tracer()
    hooks = [
        (nd, "backward", "ndiff.backward"),
        (scipy.linalg, "cho_solve", "ndiff.cho_solve"),
        (scipy.linalg, "cholesky", "ndiff.cholesky"),
        (trainer, "outer_loss", "trainer.outer_loss"),
        (trainer, "coreset_grad", "trainer.coreset_grad"),
        (trainer, "adam_step", "trainer.adam_step"),
        (trainer, "pool_update", "trainer.pool_update"),
        (trainer, "gaussian_step", "trainer.gaussian_step"),
        (trainer, "solve_posterior", "trainer.solve_posterior"),
        (trainer, "features", "trainer.features"),
        (trainer, "predictive_moments", "trainer.predictive_moments"),
        (trainer, "probit_log_softmax", "trainer.probit_log_softmax"),
        (objective, "solve_posterior", "objective.solve_posterior"),
        (objective, "kl_to_prior", "objective.kl_to_prior"),
        (objective, "predictive_moments", "objective.predictive_moments"),
        (objective, "probit_log_softmax", "objective.probit_log_softmax"),
        (network, "features", "network.features"),
        (network, "features_graph", "network.features_graph"),
        (network, "gaussian_step", "network.gaussian_step"),
        (network, "adam_step", "network.adam_step"),
        (network, "init_net", "network.init_net"),
        (network, "pool_new", "network.pool_new"),
        (predictive, "predictive_moments", "predictive.predictive_moments"),
        (predictive, "probit_log_softmax", "predictive.probit_log_softmax"),
        (data, "init_coreset", "data.init_coreset"),
        (cli, "gen_synthetic", "cli.gen_synthetic"),
        (cli, "load_idx", "cli.load_idx"),
        (cli, "normalize", "cli.normalize"),
        (cli, "normalize_with", "cli.normalize_with"),
        (cli, "save_coreset", "cli.save_coreset"),
        (cli, "load_coreset", "cli.load_coreset"),
    ]
    for module, attr, name in hooks:
        tracer.hook(module, attr, name)
    tracer.hook(nd, "apply", "ndiff.op", name_of_call=lambda args: args[0])
    return tracer


def layer_metrics(tracer, counts, traced_samples, untraced_samples, windows):
    table = tracer.summary()

    def calls(phase, name):
        return table.get((phase, name), (0, 0.0, 0.0))[0]

    def ms(phase, *names):
        return 1e3 * sum(table.get((phase, n), (0, 0.0, 0.0))[1] for n in names)

    steps = counts["traced_steps"]
    setups = counts["setups"]
    krows = counts["predict_rows"] / 1000.0
    op_names = [name for (phase, name) in table
                if phase == "train" and name.startswith("ndiff.op.")]
    out = {
        "ndiff.apply_calls": (sum(calls("train", n) for n in op_names) / steps, "count"),
        "ndiff.apply_ms": (ms("train", *op_names) / steps, "ms"),
        "ndiff.backward_ms": (ms("train", "ndiff.backward") / steps, "ms"),
        "ndiff.cho_solve_calls": (calls("train", "ndiff.cho_solve") / steps, "count"),
        "ndiff.cho_solve_ms": (ms("train", "ndiff.cho_solve") / steps, "ms"),
        "ndiff.cholesky_calls": (calls("train", "ndiff.cholesky") / steps, "count"),
        "ndiff.cholesky_ms": (ms("train", "ndiff.cholesky") / steps, "ms"),
        "ndiff.step_peak_tracked_mb": (8e-6 * max(w[0] for w in windows), "MB"),
        "ndiff.step_largest_block_mb": (8e-6 * max(w[1] for w in windows), "MB"),
    }
    for prim in PRIMITIVES:
        name = f"ndiff.op.{prim}"
        out[f"{name}.calls"] = (calls("train", name) / steps, "count")
        out[f"{name}.ms"] = (ms("train", name) / steps, "ms")
    out.update({
        "objective.outer_loss_ms": (ms("train", "trainer.outer_loss") / steps, "ms"),
        "objective.coreset_grad_ms": (ms("train", "trainer.coreset_grad") / steps, "ms"),
        "posterior.solve_posterior_ms": (ms("train", "objective.solve_posterior") / steps, "ms"),
        "posterior.kl_to_prior_ms": (ms("train", "objective.kl_to_prior") / steps, "ms"),
        "posterior.eval_solve_ms": (ms("eval", "trainer.solve_posterior") / counts["evals"], "ms"),
        "predictive.predictive_moments_ms": (ms("train", "objective.predictive_moments") / steps, "ms"),
        "predictive.probit_log_softmax_ms": (ms("train", "objective.probit_log_softmax") / steps, "ms"),
        "predictive.predict_moments_ms_per_krow": (ms("predict", "predictive.predictive_moments") / krows, "ms/krow"),
        "network.batch_features_ms": (ms("train", "network.features") / steps, "ms"),
        "network.pool_update_ms": (ms("train", "trainer.pool_update") / steps, "ms"),
        "network.pool_rotations": (1000.0 * calls("train", "network.init_net") / steps, "1/kstep"),
        "network.eval_gaussian_step_ms": (ms("eval", "trainer.gaussian_step") / counts["eval_steps"], "ms"),
        "network.predict_features_ms_per_krow": (ms("predict", "network.features") / krows, "ms/krow"),
        "network.pool_new_ms": (ms("setup", "network.pool_new") / setups, "ms"),
        "optim.coreset_adam_ms": (ms("train", "trainer.adam_step") / steps, "ms"),
        "optim.pool_adam_ms": (ms("train", "network.adam_step") / steps, "ms"),
        "data.load_ms": (ms("setup", "cli.load_idx", "cli.gen_synthetic") / setups, "ms"),
        "data.normalize_ms": (ms("setup", "cli.normalize", "cli.normalize_with") / setups, "ms"),
        "data.init_coreset_ms": (ms("setup", "data.init_coreset") / setups, "ms"),
        "data.save_coreset_ms": (ms("roundtrip", "cli.save_coreset"), "ms"),
        "data.load_coreset_ms": (ms("roundtrip", "cli.load_coreset"), "ms"),
    })
    traced_p50 = statistics.median(traced_samples) * 1e3
    untraced_p50 = statistics.median(untraced_samples) * 1e3
    spans_in_steps = sum(calls("train", name) for (phase, name) in table if phase == "train")
    out.update({
        "trace.step_ms_p50_traced": (traced_p50, "ms"),
        "trace.step_ms_p50_untraced": (untraced_p50, "ms"),
        "trace.overhead_pct": (100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
        "trace.spans_per_step": (spans_in_steps / steps, "count"),
    })
    return out, table


def print_table(table, counts):
    """Per-layer reference table (stderr): calls, inclusive and self time per
    unit of work in each phase."""
    per = {"setup": counts["setups"], "train": counts["traced_steps"],
           "roundtrip": 1, "eval": counts["evals"],
           "predict": counts["predict_rows"] / 1000.0}
    unit = {"setup": "set-up", "train": "step", "roundtrip": "trip",
            "eval": "eval", "predict": "krow"}
    print(f"{'phase':9} {'span':36} {'calls/unit':>11} {'incl ms':>10} {'self ms':>10}",
          file=sys.stderr)
    for (phase, name), (n, incl, own) in sorted(table.items(),
                                                key=lambda kv: (kv[0][0], -kv[1][1])):
        d = per.get(phase, 1)
        print(f"{phase:9} {name:36} {n / d:11.2f} {1e3 * incl / d:10.3f} "
              f"{1e3 * own / d:10.3f}   per {unit.get(phase, phase)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def scaled(spec, key, seconds):
    return max(FLOORS[key], round(spec[key] * seconds / REFERENCE_SECONDS))


def tail_of(samples):
    """The value with exactly TAIL_BEYOND samples above it, and the
    percentile that value stands for."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (1.0 - TAIL_BEYOND / n)


def probe_schedule(n_evals, n_steps):
    """{step: kind}: 2 * n_evals probes, evaluations and prediction groups
    taking turns, at evenly spaced steps in [1, n_steps - 2]."""
    points = 2 * n_evals
    return {1 + (j * (n_steps - 2)) // points: ("eval", "predict")[j % 2]
            for j in range(points)}


@contextmanager
def phase(tracer, name):
    """Trace the enclosed calls under `name` (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.set_phase(name)
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def fit_bma(coreset, widths, tprime, seed):
    """The net and posterior that evaluate_coreset builds for `seed`."""
    net = network.init_net(widths, coreset.k, np.random.SeedSequence([seed, 0]))
    state = None
    for _ in range(tprime):
        net, state = network.gaussian_step(net, coreset.images, coreset.labels,
                                           coreset.hyper.gamma, EVAL_POOL_LR, state=state)
    phi = network.features(net, coreset.images)
    return net, posterior.solve_posterior(phi, coreset.labels, coreset.hyper)


def run(args, spec, counts, tracer, ops, work):
    seed = args.seed
    n_steps = counts["steps"]
    if "image" in spec:
        rows, cols, channels = spec["image"]
        data_spec = inputs.write_image_split(work, seed, 10, rows, cols, channels,
                                             spec["n_train"], spec["n_test"])
    else:
        data_spec = spec["data"]
    config = trainer.TrainConfig(
        steps=n_steps, batch_size=BATCH, ipc=spec["ipc"], hidden=spec["hidden"],
        log_interval=1, seed_data=seed, seed_pool=seed + 1, seed_noise=seed + 2,
        seed_init=seed + 3)

    # -- set-up, repeated: read and normalize inputs, init coreset, pool ----
    setup_samples = []

    def setup():
        started = time.perf_counter()
        train_ds, test_ds = cli.load_data(data_spec, config.seed_data)
        resolved = config.resolve_beta_s(train_ds.k)
        init = data.init_coreset(train_ds, resolved.ipc, resolved.init_mode,
                                 resolved.seed_init, hyper=resolved.hyperparams())
        network.pool_new(resolved.pool_size, (train_ds.d, *resolved.hidden),
                         train_ds.k, resolved.seed_pool, resolved.pool_period)
        setup_samples.append(time.perf_counter() - started)
        return train_ds, test_ds, init

    with phase(tracer, "setup"):
        for _ in range(counts["setups"]):
            kept = None         # free the previous set-up's arrays first
            kept = ops.run("setup", setup)
    train_ds, test_ds, init = kept
    widths = (train_ds.d, *spec["hidden"])

    # -- probes: evaluations and prediction chunks, run from the sink so
    #    their samples spread over the whole training run. They use the
    #    initial coreset, whose shapes (and so costs) are the trained one's.
    eval_samples, chunk_samples = [], []
    bma_rows = {"ok": True, "worst": 0.0}
    net, post = fit_bma(init, widths, spec["tprime"], 1000 * seed)

    def evaluate(coreset, eval_seed):
        started = time.perf_counter()
        result = trainer.evaluate_coreset(coreset, test_ds.X, test_ds.labels, widths,
                                          tprime=spec["tprime"], seed=eval_seed)
        eval_samples.append(time.perf_counter() - started)
        return result

    def predict():
        i = len(chunk_samples)
        x = test_ds.X[np.arange(i * CHUNK_ROWS, (i + 1) * CHUNK_ROWS) % test_ds.n]
        started = time.perf_counter()
        probs = predictive.bma_predict(post, network.features(net, x))
        chunk_samples.append(time.perf_counter() - started)
        ok, worst = checks.distributions(probs)
        bma_rows["ok"] = bma_rows["ok"] and ok
        bma_rows["worst"] = max(bma_rows["worst"], worst)

    group = -(-counts["chunks"] // counts["evals"])     # chunks per probe
    probes = {
        "eval": lambda: ops.run("evaluate",
                                lambda: evaluate(init, 1000 * seed + len(eval_samples))),
        "predict": lambda: [ops.run("predict_chunk", predict) for _ in range(group)],
    }
    schedule = probe_schedule(counts["evals"], n_steps)

    # -- training: one sample per step, between calls of the sink ----------
    ends, starts, losses = [], [], []
    windows = []                # (peak, largest block) per traced step
    open_step = {}
    step_name = tracer.name_id("train.step") if tracer else None

    def sink(record):
        ends.append(time.perf_counter())
        losses.append(record["loss"])
        step = record["step"]
        if open_step:
            tracer.close(open_step.pop("span"))
            open_step.pop("scope").__exit__(None, None, None)
            window = open_step.pop("window")
            windows.append((window.peak - window.base, window.largest_block))
        if step in schedule:
            with phase(tracer, schedule[step]):
                probes[schedule[step]]()
        if tracer:
            # trace the odd steps; the step after the last one never runs
            if step % 2 == 0 and step < n_steps - 1:
                tracer.set_phase("train")
                tracer.install()
                scope = nd.track_allocations()
                open_step.update(scope=scope, window=scope.__enter__(),
                                 span=tracer.open(step_name))
            else:
                tracer.uninstall()
        starts.append(time.perf_counter())

    coreset = trainer.train(config, train_ds, sink=sink)
    ops.attempted += n_steps
    # Step i runs between the sink calls of steps i - 1 and i. Step 0 (with
    # train's own set-up) has no sample, nor has a step that follows a
    # probe: it starts on caches the probe has cooled, which no real
    # training run does (at desk scale such steps run ~9% slower).
    sampled = [i for i in range(1, n_steps) if i - 1 not in schedule]
    samples = [ends[i] - starts[i - 1] for i in sampled]

    # -- coreset file round trip; the last evaluation reads it back --------
    path = os.path.join(work, "coreset.vbpc")
    with phase(tracer, "roundtrip"):
        ops.run("save_coreset", lambda: cli.save_coreset(coreset, path))
        loaded = ops.run("load_coreset", lambda: cli.load_coreset(path))
    ops.check("roundtrip", lambda: checks.roundtrip(coreset, loaded))
    with phase(tracer, "eval"):
        final = ops.run("evaluate", lambda: evaluate(loaded, 1000 * seed + 999))

    run_checks(ops, spec, seed, train_ds, loaded, widths, post, final, bma_rows)

    info = {"loss_first": losses[0], "loss_last": losses[-1], "final_eval": final,
            "samples": {"setup": len(setup_samples), "train_step": len(samples),
                        "eval": len(eval_samples), "predict_chunk": len(chunk_samples)},
            "tprime": spec["tprime"], "chunk_rows": CHUNK_ROWS, "checks": ops.notes}
    if tracer:
        traced = [s for i, s in zip(sampled, samples) if i % 2 == 1]
        untraced = [s for i, s in zip(sampled, samples) if i % 2 == 0]
        units = {"traced_steps": len(windows), "setups": len(setup_samples),
                 "evals": len(eval_samples), "eval_steps": len(eval_samples) * spec["tprime"],
                 "predict_rows": len(chunk_samples) * CHUNK_ROWS}
        metrics, table = layer_metrics(tracer, units, traced, untraced, windows)
        print_table(table, units)
        traces = os.path.join(HERE, "work", "traces")
        os.makedirs(traces, exist_ok=True)
        dump = os.path.join(traces, f"{args.workload}-s{seed}.jsonl.gz")
        tracer.dump(dump)
        info["trace_dump"] = os.path.relpath(dump, ROOT)
        return metrics, info
    tail, pct = tail_of(samples)
    info["train_step_tail_percentile"] = pct
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "train_step_ms_p50": (1e3 * statistics.median(samples), "ms"),
        "train_step_ms_tail": (1e3 * tail, "ms"),
        "eval_s": (statistics.median(eval_samples), "s"),
        "predict_rows_per_s": (CHUNK_ROWS / statistics.median(chunk_samples), "rows/s"),
    }
    return metrics, info


def run_checks(ops, spec, seed, train_ds, coreset, widths, post, final, bma_rows):
    """Checks on the trained coreset (read back from its file), one fresh
    net and one batch; the BMA checks use the probes' posterior."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    idx = rng.choice(train_ds.n, size=BATCH, replace=False)
    batch = (train_ds.X[idx], train_ds.onehot(idx))
    net = network.init_net(widths, coreset.k, np.random.SeedSequence([seed, 98]))
    hyper = coreset.hyper

    def dense():
        phi = network.features(net, coreset.images)
        phi_b = network.features(net, batch[0])
        p = posterior.solve_posterior(phi, coreset.labels, hyper)
        moments = predictive.predictive_moments(p, phi_b)
        program = {"means": p.means.data, "kl": posterior.kl_to_prior(p).item(),
                   "mean": moments.mean.data, "variance": moments.variance.data,
                   "loss": objective.loss_value(coreset.images, coreset.labels, net,
                                                batch, train_ds.n, hyper)}
        reference = checks.dense_reference(phi, coreset.labels, phi_b, batch[1],
                                           train_ds.n, p.hyper)
        return checks.compare_dense(program, reference)
    ops.check("dense_reference", dense)

    def directional():
        dx = rng.standard_normal(coreset.images.shape)
        dy = rng.standard_normal(coreset.labels.shape)
        norm = np.sqrt((dx ** 2).sum() + (dy ** 2).sum())
        dx, dy = dx / norm, dy / norm
        tape = nd.Tape()
        loss, _ = objective.outer_loss(coreset, net, batch, train_ds.n, hyper, tape)
        gx, gy = objective.coreset_grad(loss, tape)
        analytic = (float((gx * dx).sum() + (gy * dy).sum()),
                    float(np.sqrt((gx ** 2).sum() + (gy ** 2).sum())))
        eps = checks.kink_free_step(net, coreset.images, dx, FD_EPS)

        def loss_at(t):
            return objective.loss_value(coreset.images + t * dx, coreset.labels + t * dy,
                                        net, batch, train_ds.n, hyper)
        return checks.directional_fd(loss_at, analytic, eps)
    ops.check("directional_derivative", directional)

    ops.check("fixed_point_residual",
              lambda: checks.fixed_point(posterior.fixed_point_residual(post)))
    ops.check("bma_rows", lambda: (bma_rows["ok"], f"BMA rows are distributions "
                                                   f"(worst |sum - 1| {bma_rows['worst']:.1e})"))
    ops.check("accuracy", lambda: (final["acc"] >= spec["min_acc"],
                                   f"test accuracy {final['acc']:.4f} "
                                   f"(gate {spec['min_acc']})"))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    spec = WORKLOADS[args.workload]
    counts = {key: scaled(spec, key, args.seconds) for key in FLOORS}
    tracer = make_tracer() if args.trace else None
    ops = Ops()
    work = os.path.join(HERE, "work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        metrics, info = run(args, spec, counts, tracer, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": ops.correct, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
