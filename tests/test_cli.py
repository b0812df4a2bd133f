"""CLI surface: config parsing, commands, exit codes, output files."""

import dataclasses
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from vbpc import bench, ndiff, trainer
from vbpc.cli import (ConfigError, main, parse_config, write_config,
                      load_data)
from vbpc.data import (CoresetFileError, Dataset, PseudoCoreset, load_coreset,
                       normalize_with, save_coreset)
from vbpc.posterior import Hyperparams
from vbpc.trainer import TrainConfig


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_full_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but comments\n\n")
    assert parse_config(path) == TrainConfig()


def test_config_round_trip_identity(tmp_path):
    config = TrainConfig(steps=42, hidden=(32, 32), beta_s=10.0,
                         noise_aug=False, init_mode="uniform")
    path = tmp_path / "out.cfg"
    write_config(config, path)
    assert parse_config(path) == config


def test_config_unknown_key_lists_valid(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("unknown_key = 3\n")
    with pytest.raises(ConfigError, match="valid keys.*beta_d"):
        parse_config(path)


def test_config_constraint_violation_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("rho = -1\n")
    with pytest.raises(ConfigError, match="rho"):
        parse_config(path)


def test_config_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("steps = soon\n")
    with pytest.raises(ConfigError, match="steps"):
        parse_config(path)


def test_config_bad_value_names_path_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# header\nsteps = x\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value).startswith(f"{path}:2: bad value for 'steps': 'x'")


def test_config_constraint_error_names_path(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text("steps = 0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}: steps, batch_size and ipc must be >= 1"
    assert main(["train", "--config", str(path), "--data", MOONS,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"error: {path}: steps" in capsys.readouterr().err


def test_config_values_parsed(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("steps = 7\nhidden = 8,4\nlearn_labels = false\n"
                    "gamma = 50.0  # inline comment\n")
    config = parse_config(path)
    assert config.steps == 7 and config.hidden == (8, 4)
    assert config.learn_labels is False and config.gamma == 50.0


def test_config_unset_beta_s_round_trips(tmp_path):
    path = tmp_path / "out.cfg"
    write_config(TrainConfig(), path)
    assert "beta_s" not in path.read_text()
    assert parse_config(path) == TrainConfig()


_FUZZ = settings(max_examples=200, deadline=None, database=None)
_positive = st.floats(min_value=1e-6, max_value=1e6)
_configs = st.builds(
    TrainConfig,
    steps=st.integers(1, 10**6), batch_size=st.integers(1, 4096),
    ipc=st.integers(1, 100), hidden=st.lists(st.integers(1, 4096),
                                             max_size=4).map(tuple),
    rho=_positive, gamma=_positive, beta_s=st.none() | _positive,
    beta_d=st.floats(0.0, 1.0), coreset_lr=st.floats(0.0, 1.0),
    pool_lr=_positive, pool_size=st.integers(1, 50),
    pool_period=st.integers(1, 1000), noise_sigma=st.floats(0.0, 10.0),
    noise_aug=st.booleans(), learn_labels=st.booleans(),
    init_mode=st.sampled_from(("sample", "uniform")),
    seed_data=st.integers(0, 2**32), seed_pool=st.integers(0, 2**32),
    seed_noise=st.integers(0, 2**32), seed_init=st.integers(0, 2**32),
    log_interval=st.integers(1, 1000))


@_FUZZ
@given(config=_configs)
def test_config_write_parse_inverse(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"
    write_config(config, path)
    assert parse_config(path) == config


_keys = st.sampled_from([f.name for f in dataclasses.fields(TrainConfig)]
                        + ["init", "bogus"]) | st.text(max_size=8)
_values = st.sampled_from(["0", "-1", "1e300", "nan", "inf", "true", "1,,2",
                           "0,3", "uniform", ""]) | st.text(max_size=12)


@_FUZZ
@given(lines=st.lists(st.tuples(_keys, _values), max_size=6),
       tail=st.binary(max_size=8))
def test_config_fuzz_raises_only_config_error(tmp_path_factory, lines, tail):
    path = tmp_path_factory.mktemp("cfg") / "f.cfg"
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    path.write_bytes(text.encode("utf-8") + tail)
    try:
        parse_config(path)
    except ConfigError:
        pass


def test_config_key_given_twice_names_path_line_and_key(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("steps = 3\n# again\nsteps = 4\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:3: 'steps' given twice"
    out = tmp_path / "never"
    assert main(["train", "--config", str(path), "--data", MOONS,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: {path}:3: 'steps' given twice" in capsys.readouterr().err


def test_config_undecodable_byte_names_path_and_line(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"steps = 3\nsteps = \xff\n")
    with pytest.raises(ConfigError, match=f"{path}:2: not UTF-8"):
        parse_config(path)
    assert main(["train", "--config", str(path), "--data", MOONS,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{path}:2: not UTF-8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# data specs
# ---------------------------------------------------------------------------

def test_synthetic_spec_parses_and_splits():
    train, test = load_data("synthetic:moons:n=50,k=2,noise=0.1", seed=0)
    assert train.n == 50 and test.n == 50
    assert not np.array_equal(train.rows(slice(None)), test.rows(slice(None)))
    np.testing.assert_array_equal(test.mean, train.mean)


def test_bad_specs_rejected():
    for spec in ("synthetic:moons:n=50", "mnist:foo", "synthetic:moons:n=50,k=2,noise=0.1,zap=1"):
        with pytest.raises(ConfigError):
            load_data(spec, seed=0)


@pytest.mark.parametrize("spec", [
    "synthetic:moons:n=10,k=2,noise=nan",
    "synthetic:moons:n=10,k=2,noise=-1",
    "synthetic:moons:n=10,k=2,noise=0.1,n=3",
    "synthetic:moons:n=10,k=2,noise=1e300",
    "synthetic:moons:n=10000000000,k=2,noise=0.1",
])
def test_bad_synthetic_spec_exits_2_before_output(tmp_path, capsys, spec):
    with pytest.raises(ConfigError, match=re.escape(repr(spec))):
        load_data(spec, seed=0)
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "never"
    assert main(["train", "--config", cfg, "--data", spec,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert repr(spec) in capsys.readouterr().err


_spec_values = (st.sampled_from(["0", "1", "2", "3", "9", "50", "-1", "nan",
                                 "inf", "-inf", "1e400", "1e300", "0.1",
                                 "1_0", " 7 ", ""])
                | st.integers(-10, 10**12).map(str) | st.text(max_size=6))

_spec_counts = (st.integers(-3, 60).map(str) | st.integers(-3, 10**13).map(str)
                | _spec_values)


@st.composite
def _synthetic_fields(draw):
    """Some of n, k, noise in any order, then at most one arbitrary key."""
    keys = draw(st.permutations(["n", "k", "noise"]))
    keys = keys[:draw(st.sampled_from([3, 3, 3, 2, 1, 0]))]
    keys += draw(st.lists(st.sampled_from(["n", "k", "noise", "zap", ""])
                          | st.text(max_size=4), max_size=1))
    values = {"n": _spec_counts, "k": _spec_counts,
              "noise": st.floats().map(repr) | _spec_values}
    return ",".join(f"{key}={draw(values.get(key, _spec_values))}"
                    for key in keys)


_specs = (st.builds("synthetic:{}:{}".format,
                    st.sampled_from(["moons", "blobs", "circles"])
                    | st.text(max_size=6), _synthetic_fields())
          | st.text(max_size=40).map("synthetic:".__add__)
          | st.text(max_size=40).map("idx:".__add__))


@_FUZZ
@given(spec=_specs)
def test_data_spec_fuzz_raises_only_usage_errors(spec):
    # the errors main reports with exit code 2
    try:
        load_data(spec, seed=0)
    except (ConfigError, CoresetFileError, OSError, ValueError):
        pass


# ---------------------------------------------------------------------------
# train command
# ---------------------------------------------------------------------------

def write_cfg(tmp_path, text):
    path = tmp_path / "train.cfg"
    path.write_text(text)
    return str(path)

TINY = ("steps = 6\nbatch_size = 16\nipc = 2\nhidden = 8\npool_size = 2\n"
        "pool_period = 3\nlog_interval = 2\n")
MOONS = "synthetic:moons:n=80,k=2,noise=0.1"


def test_train_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "run"
    code = main(["train", "--config", cfg, "--data", MOONS,
                 "--out", str(out), "--seed", "5"])
    assert code == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["step"] for r in records] == [0, 2, 4, 5]
    assert set(records[0]) == {"step", "loss", "lik", "kl", "lr",
                               "jitter_retries", "cond_lb", "ms"}
    assert (out / "coreset.vbpc").exists()
    resolved = parse_config(out / "resolved-config.txt")
    assert resolved.beta_s == 4.0  # ipc * k
    assert resolved.seed_data == 5 and resolved.seed_init == 8
    # round trip: re-writing the parsed config reproduces the file exactly
    write_config(resolved, out / "rewritten.txt")
    assert ((out / "rewritten.txt").read_text()
            == (out / "resolved-config.txt").read_text())
    assert parse_config(out / "rewritten.txt") == resolved


def test_train_missing_config_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.cfg"),
                 "--data", MOONS, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["log_interval = 0", "hidden = 0", "rho = nan",
                                 "seed_pool = -1", "seed_init = -7"])
def test_train_bad_config_exits_2_before_output(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, TINY + bad + "\n")
    out = tmp_path / "never"
    assert main(["train", "--config", cfg, "--data", MOONS,
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and bad.split(" = ")[0] in err


@pytest.mark.parametrize("command,flag", [
    ("train", "--seed"), ("eval", "--seed"), ("eval", "--tprime")])
def test_negative_count_flag_exits_2_naming_it(tmp_path, capsys, command, flag):
    out = tmp_path / "never"
    args = {"train": ["--config", write_cfg(tmp_path, TINY), "--data", MOONS],
            "eval": ["--coreset", "c.vbpc", "--data", MOONS]}[command]
    assert main([command, *args, "--out", str(out), flag, "-1"]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected an integer >= 0, got '-1'" in captured.err


@pytest.mark.parametrize("text,message", [
    ("steps = 3\n", "class 0 has 5 examples, need 10"),
    ("steps = 3\nipc = 2\n", "batch size 256 exceeds dataset size 10"),
])
def test_dataset_too_small_exits_2_before_output(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "never"
    assert main(["train", "--config", cfg, "--data",
                 "synthetic:moons:n=10,k=2,noise=0.1", "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: {message}\n" == capsys.readouterr().err


def test_train_non_finite_update_aborts_with_record(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY.replace("steps = 6", "steps = 3")
                    + "coreset_lr = 1e300\n")
    out = tmp_path / "blown"
    assert main(["train", "--config", cfg, "--data", MOONS,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "train aborted" in err and "Traceback" not in err
    # the float32 pixels' Adam refuses the rate at step 0, naming the range
    assert "learning rate 1.000e+300 beyond float32's range" in err
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert json.loads(lines[-1]) == {"step": 0, "event": "abort", "jitter_retries": 0,
                                     "error": "adam_step: learning rate 1.000e+300 "
                                              "beyond float32's range"}


def test_train_negative_variance_aborts_with_record(tmp_path, capsys, monkeypatch):
    # a variance below the round-off clamp is a numerical failure, not a
    # usage error; a clamp above every variance forces one at step 0
    monkeypatch.setattr(ndiff, "VARIANCE_CLAMP", math.inf)
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "negative"
    assert main(["train", "--config", cfg, "--data", MOONS, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "train aborted" in err and "negative predictive variance" in err
    assert "Traceback" not in err
    (record,) = [json.loads(line) for line in
                 (out / "metrics.jsonl").read_text().splitlines()]
    assert record["event"] == "abort" and record["jitter_retries"] == 0
    assert not (out / "coreset.vbpc").exists()


def test_train_single_step_single_record(tmp_path):
    cfg = write_cfg(tmp_path, TINY.replace("steps = 6", "steps = 1"))
    out = tmp_path / "one"
    assert main(["train", "--config", cfg, "--data", MOONS, "--out", str(out)]) == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["step"] == 0


def strip_ms(line):
    record = json.loads(line)
    record.pop("ms")
    return json.dumps(record)


def test_train_deterministic_across_runs(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["train", "--config", cfg, "--data", MOONS,
                     "--out", str(out), "--seed", "3"]) == 0
    lines_a = (out_a / "metrics.jsonl").read_text().splitlines()
    lines_b = (out_b / "metrics.jsonl").read_text().splitlines()
    assert [strip_ms(a) for a in lines_a] == [strip_ms(b) for b in lines_b]
    assert (out_a / "coreset.vbpc").read_bytes() == (out_b / "coreset.vbpc").read_bytes()


# Runs `vbpc train` with the arguments after the first, which is the CPU to
# pin the process to, or "all"; reports on stderr whether a worker took
# the second halves.
_PINNED_TRAIN = """
import os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from vbpc import _twocore
from vbpc.cli import main
code = main(sys.argv[2:])
print("worker", _twocore._start_worker() is not False, file=sys.stderr)
sys.exit(code)
"""


# hidden widths and coreset size that cut products, Adam blocks and the
# KL's products with L^{-1} in halves; pinned to one CPU they run serially
_CUT_CFG = ("steps = 4\nbatch_size = 64\nipc = 32\n"
            "hidden = 256,1024\npool_size = 2\nlog_interval = 1\n")


def run_train_child(tmp_path, name, cpus, spec, **blas):
    """`vbpc train` of `_CUT_CFG` on the data `spec` in a child pinned to
    `cpus` (or "all"), with the BLAS thread variables `blas` only; returns
    (out dir, whether a worker took the second halves)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(blas)
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    out = tmp_path / name
    child = subprocess.run(
        [sys.executable, "-c", _PINNED_TRAIN, cpus, "train",
         "--config", write_cfg(tmp_path, _CUT_CFG),
         "--data", spec, "--out", str(out),
         "--seed", "4"], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return out, child.stderr.split()[-1] == "True"


def assert_same_run(a, b):
    """Equal records (bar `ms`) and equal coreset bytes."""
    lines_a = (a / "metrics.jsonl").read_text().splitlines()
    lines_b = (b / "metrics.jsonl").read_text().splitlines()
    assert len(lines_a) == 4
    assert [strip_ms(x) for x in lines_a] == [strip_ms(y) for y in lines_b]
    assert (a / "coreset.vbpc").read_bytes() == (b / "coreset.vbpc").read_bytes()


def cut_data_spec(tmp_path, data):
    """The moons of the cut runs, or an IDX split of 400 random 6 x 6 pixel
    images, whose statistics are summed in two row halves and whose batches
    are read as float32 rows."""
    if data == "moons":
        return "synthetic:moons:n=400,k=2,noise=0.1"
    return f"idx:{write_idx_split(tmp_path, 'cut', 400, 6)}"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pins a process to one CPU")
@pytest.mark.parametrize("data", ["moons", "pixels"])
def test_train_on_one_cpu_is_bit_identical_to_two(tmp_path, data):
    one_cpu = str(min(os.sched_getaffinity(0)))
    spec = cut_data_spec(tmp_path, data)
    pinned, pinned_worker = run_train_child(tmp_path, "pinned", one_cpu, spec)
    free, free_worker = run_train_child(tmp_path, "free", "all", spec)
    assert not pinned_worker
    assert free_worker == (len(os.sched_getaffinity(0)) > 1)
    assert_same_run(pinned, free)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pins a process to one CPU")
@pytest.mark.parametrize("data", ["moons", "pixels"])
def test_train_with_two_blas_threads_is_bit_identical_to_pinned(tmp_path, data):
    # a user's thread count switches off both vbpc's pinning and its worker,
    # and OpenBLAS may then split each product over two threads
    one_cpu = str(min(os.sched_getaffinity(0)))
    spec = cut_data_spec(tmp_path, data)
    pinned, _ = run_train_child(tmp_path, "pinned", one_cpu, spec)
    threaded, worker = run_train_child(tmp_path, "blas2", "all", spec,
                                       OPENBLAS_NUM_THREADS="2")
    assert not worker
    assert_same_run(pinned, threaded)


# ---------------------------------------------------------------------------
# eval command
# ---------------------------------------------------------------------------

def trained_coreset(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "trained"
    assert main(["train", "--config", cfg, "--data", MOONS, "--out", str(out)]) == 0
    return str(out / "coreset.vbpc")


def test_eval_writes_json(tmp_path, capsys):
    coreset = trained_coreset(tmp_path)
    out = tmp_path / "ev"
    code = main(["eval", "--coreset", coreset, "--data", MOONS,
                 "--tprime", "5", "--hidden", "8", "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "eval.json").read_text())
    assert printed == on_disk
    assert set(on_disk) == {"acc", "nll", "cond_lb", "jitter_retries"}
    assert 0.0 <= on_disk["acc"] <= 1.0


def test_eval_reports_the_factor_health(tmp_path, capsys, monkeypatch):
    # the posterior's factorization fails once and takes the jitter retry;
    # the record says so, with the conditioning bound of the factor it made
    coreset = trained_coreset(tmp_path)
    real = scipy.linalg.cholesky
    calls = []

    def fail_first_try(a, *args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise scipy.linalg.LinAlgError("forced")
        return real(a, *args, **kwargs)

    args = ["eval", "--coreset", coreset, "--data", MOONS, "--tprime", "5",
            "--hidden", "8", "--out", str(tmp_path / "ev")]
    assert main(args) == 0
    healthy = json.loads(capsys.readouterr().out)
    assert healthy["jitter_retries"] == 0 and healthy["cond_lb"] >= 1.0
    monkeypatch.setattr(scipy.linalg, "cholesky", fail_first_try)
    assert main(args) == 0
    retried = json.loads(capsys.readouterr().out)
    assert retried["jitter_retries"] == 1 and retried["cond_lb"] >= 1.0
    assert len(calls) == 2


def test_eval_deterministic(tmp_path, capsys):
    coreset = trained_coreset(tmp_path)
    args = ["eval", "--coreset", coreset, "--data", MOONS, "--tprime", "5",
            "--hidden", "8", "--seed", "2", "--out", str(tmp_path / "e")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_eval_dimension_mismatch_exits_2(tmp_path, capsys):
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    bad = PseudoCoreset(images=np.zeros((2, 7)), labels=np.zeros((2, 2)),
                        ipc=1, hyper=hyper)
    path = tmp_path / "bad.vbpc"
    save_coreset(bad, path)
    code = main(["eval", "--coreset", str(path), "--data", MOONS])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def test_eval_corrupted_coreset_exits_2(tmp_path, capsys):
    coreset = trained_coreset(tmp_path)
    blob = bytearray(open(coreset, "rb").read())
    blob[70] ^= 0xFF
    bad_path = tmp_path / "corrupt.vbpc"
    bad_path.write_bytes(bytes(blob))
    assert main(["eval", "--coreset", str(bad_path), "--data", MOONS]) == 2


def bad_value_coreset(tmp_path, offset, value):
    """A CRC-valid coreset file whose f64 at `offset` is `value`."""
    coreset = PseudoCoreset(images=np.array([[0.5, -1.0], [2.0, 3.0]]),
                            labels=np.array([[1.0, 0.0], [0.0, 1.0]]), ipc=1,
                            hyper=Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0))
    path = tmp_path / "bad.vbpc"
    save_coreset(coreset, path)
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 8] = struct.pack("<d", value)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    path.write_bytes(bytes(blob))
    return str(path)


# a NaN pixel (the first image entry) and gamma = inf
@pytest.mark.parametrize("offset,value", [(56, math.nan), (32, math.inf)])
@pytest.mark.parametrize("command", ["eval", "export-images"])
def test_non_finite_coreset_file_exits_2_naming_it(tmp_path, capsys, command,
                                                   offset, value):
    path = bad_value_coreset(tmp_path, offset, value)
    out = tmp_path / "out"
    args = ["--data", MOONS] if command == "eval" else []
    assert main([command, "--coreset", path, "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert not out.exists()


def test_eval_numerical_failure_exits_1(tmp_path, capsys):
    # gamma = 1e308 is finite, so the file loads, but the Gaussian step's
    # loss overflows: a numerical failure, reported on one line
    path = bad_value_coreset(tmp_path, 32, 1e308)
    out = tmp_path / "out"
    assert main(["eval", "--coreset", path, "--data", MOONS, "--tprime", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err and not out.exists()


def test_eval_reads_no_training_split(tmp_path, capsys):
    # the coreset file carries the training statistics, so eval prints the
    # evaluation of the test split standardized by them, and the same line
    # once the training IDX files are gone
    train_part = write_idx_split(tmp_path, "train", 40, 3)
    spec = f"idx:{train_part};test={write_idx_split(tmp_path, 'test', 10, 3)}"
    out = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path, TINY), "--data", spec,
                 "--out", str(out)]) == 0
    _, test_ds = load_data(spec, seed=0)
    expect = trainer.evaluate_coreset(load_coreset(out / "coreset.vbpc"), test_ds,
                                      test_ds.labels, (9, 8), tprime=5, seed=0)
    args = ["eval", "--coreset", str(out / "coreset.vbpc"), "--data", spec,
            "--tprime", "5", "--hidden", "8", "--out", str(tmp_path / "ev")]
    assert main(args) == 0
    line = capsys.readouterr().out
    assert json.loads(line) == expect
    for path in train_part.split(","):
        os.remove(path)
    assert main(args) == 0
    assert capsys.readouterr().out == line


def test_train_and_eval_read_the_features_through_rows(tmp_path, capsys,
                                                      monkeypatch):
    # neither command builds a split's whole float64 matrix: eval reads its
    # test split in chunks of rows, and prints what the array path prints
    def whole_matrix(self):
        raise AssertionError("Dataset.X read")

    monkeypatch.setattr(Dataset, "X", property(whole_matrix))
    out = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path, TINY), "--data", MOONS,
                 "--out", str(out)]) == 0
    assert main(["eval", "--coreset", str(out / "coreset.vbpc"), "--data", MOONS,
                 "--tprime", "5", "--hidden", "8", "--out", str(tmp_path / "ev")]) == 0
    _, test_ds = load_data(MOONS, seed=0)
    test_x = test_ds.rows(slice(None))
    expect = trainer.evaluate_coreset(load_coreset(out / "coreset.vbpc"), test_x,
                                      test_ds.labels, (2, 8), tprime=5, seed=0)
    assert json.loads(capsys.readouterr().out) == expect


def test_eval_standardizes_by_the_training_draw_of_the_coreset(tmp_path, capsys):
    # trained on seed 7's draw, evaluated on seed 0's test split: the test
    # rows are standardized by seed 7's training statistics, not seed 0's
    out = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path, TINY), "--data", MOONS,
                 "--out", str(out), "--seed", "7"]) == 0
    assert main(["eval", "--coreset", str(out / "coreset.vbpc"), "--data", MOONS,
                 "--tprime", "5", "--hidden", "8", "--seed", "0",
                 "--out", str(tmp_path / "ev")]) == 0
    train7, _ = load_data(MOONS, seed=7)
    test0 = normalize_with(load_data(MOONS, seed=0)[1], train7.mean, train7.std)
    expect = trainer.evaluate_coreset(load_coreset(out / "coreset.vbpc"), test0,
                                      test0.labels, (2, 8), tprime=5, seed=0)
    assert json.loads(capsys.readouterr().out) == expect


def test_eval_rejects_test_labels_beyond_the_coreset_before_work(tmp_path, capsys,
                                                                 monkeypatch):
    # a 2-class coreset cannot score a 3-class test split: eval says so
    # before its first Gaussian step, naming the split and both counts
    path = bad_value_coreset(tmp_path, 56, 0.5)
    steps = []
    real = trainer.gaussian_step

    def counting_step(*args, **kwargs):
        steps.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "gaussian_step", counting_step)
    spec = "synthetic:blobs:n=30,k=3,noise=0.1"
    out = tmp_path / "never"
    assert main(["eval", "--coreset", path, "--data", spec, "--tprime", "5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: the test split of {spec!r} has 3 "
                                       f"classes, the coreset 2\n")
    assert steps == [] and not out.exists()


# ---------------------------------------------------------------------------
# bench command
# ---------------------------------------------------------------------------

def test_bench_json_fields(tmp_path, capsys):
    code = main(["bench", "--h", "64", "--nhat", "8", "--mode", "efficient",
                 "--reps", "1", "--out", str(tmp_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"mode", "h", "nhat", "peak_f64", "largest_block",
                           "ms_per_100", "loss"}
    assert record == json.loads((tmp_path / "bench.json").read_text())


def test_bench_naive_guard(tmp_path, capsys):
    code = main(["bench", "--h", "8193", "--nhat", "8", "--mode", "naive",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "refuses" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--h", "0"), ("--nhat", "0"), ("--h", "-3")])
def test_bench_names_the_size_it_refuses(tmp_path, capsys, monkeypatch, flag, value):
    # a size below 1 is refused by its name, before the instance is built
    monkeypatch.setattr(bench, "_instance", lambda *args: pytest.fail("built"))
    sizes = {"--h": "64", "--nhat": "8", flag: value}
    code = main(["bench", *(token for item in sizes.items() for token in item),
                 "--mode", "efficient", "--out", str(tmp_path / "never")])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {flag[2:]} must be >= 1, "
                                       f"got {value}\n")
    assert not (tmp_path / "never").exists()


def test_bench_efficient_scaling(tmp_path, capsys):
    # doubling h at fixed nhat roughly doubles the peak (never squares it)
    peaks = []
    for h in (256, 512):
        assert main(["bench", "--h", str(h), "--nhat", "8", "--mode",
                     "efficient", "--reps", "1", "--out", str(tmp_path)]) == 0
        peaks.append(json.loads(capsys.readouterr().out)["peak_f64"])
    assert peaks[1] <= 2.6 * peaks[0]


# ---------------------------------------------------------------------------
# export-images command
# ---------------------------------------------------------------------------

def idx_pair(tmp_path, pixels, labels, shape=(2, 2)):
    n = len(labels)
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">iiii", 2051, n, *shape) + bytes(pixels))
    lab.write_bytes(struct.pack(">ii", 2049, n) + bytes(labels))
    return f"idx:{img},{lab}"


def test_export_square_images_denormalized(tmp_path):
    # two 2x2 images with distinct pixel values; the coreset file carries
    # the statistics of the data
    spec = idx_pair(tmp_path, [10, 60, 110, 160, 50, 100, 150, 200], [0, 1])
    train, _ = load_data(spec, seed=0)
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    coreset = PseudoCoreset(images=np.zeros((2, 4)),
                            labels=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                            ipc=1, hyper=hyper, mean=train.mean, std=train.std)
    path = tmp_path / "c.vbpc"
    save_coreset(coreset, path)
    out = tmp_path / "imgs"
    assert main(["export-images", "--coreset", str(path), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["coreset_0_0.pgm", "coreset_1_0.pgm"]
    blob = (out / "coreset_0_0.pgm").read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    # normalized pixel 0 de-normalizes to the per-pixel mean
    expect = np.round(255.0 * train.mean).astype(np.uint8)
    assert blob[-4:] == expect.tobytes()


def test_export_of_a_trained_coreset_reads_its_training_statistics(tmp_path):
    # no data spec: the points are denormalized by the statistics of the
    # training draw the coreset learned from
    out = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path, TINY), "--data", MOONS,
                 "--out", str(out), "--seed", "5"]) == 0
    assert main(["export-images", "--coreset", str(out / "coreset.vbpc"),
                 "--out", str(tmp_path / "pts")]) == 0
    train, _ = load_data(MOONS, seed=5)
    coreset = load_coreset(out / "coreset.vbpc")
    points = coreset.images * train.std + train.mean
    lines = (tmp_path / "pts" / "coreset.csv").read_text().splitlines()
    assert lines[1:] == [f"{x!r},{y!r},{c}" for (x, y), c in
                         zip(points.tolist(), coreset.labels.argmax(axis=1))]


def test_export_2d_points_csv(tmp_path):
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    coreset = PseudoCoreset(images=np.array([[0.5, -1.0], [2.0, 3.0]]),
                            labels=np.array([[1.0, 0.0], [0.0, 1.0]]),
                            ipc=1, hyper=hyper)
    path = tmp_path / "c.vbpc"
    save_coreset(coreset, path)
    out = tmp_path / "pts"
    assert main(["export-images", "--coreset", str(path), "--out", str(out)]) == 0
    lines = (out / "coreset.csv").read_text().splitlines()
    assert lines[0] == "x,y,label"
    assert lines[1] == "0.5,-1.0,0" and lines[2] == "2.0,3.0,1"


def test_export_invalid_dimension_exits_2(tmp_path, capsys):
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    coreset = PseudoCoreset(images=np.zeros((1, 3)), labels=np.zeros((1, 2)),
                            ipc=1, hyper=hyper)
    path = tmp_path / "c.vbpc"
    save_coreset(coreset, path)
    assert main(["export-images", "--coreset", str(path),
                 "--out", str(tmp_path / "x")]) == 2
    assert "cannot export" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [(2**31 - 1,) * 3, (1 << 20, 1 << 10, 1), (-1, 2, 2)])
def test_idx_header_sizes_beyond_the_file_exit_2(tmp_path, capsys, sizes):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">iiii", 2051, *sizes) + bytes(8))
    lab.write_bytes(struct.pack(">ii", 2049, 2) + bytes(2))
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "never"
    assert main(["train", "--config", cfg, "--data", f"idx:{img},{lab}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(img) in err and "Traceback" not in err
    assert not out.exists()


def write_idx_split(tmp_path, name, n, side):
    """IDX files of n random side x side images in two classes; their spec."""
    rng = np.random.default_rng(n + side)
    img = tmp_path / f"{name}-img.idx"
    lab = tmp_path / f"{name}-lab.idx"
    img.write_bytes(struct.pack(">iiii", 2051, n, side, side)
                    + rng.integers(0, 256, n * side * side, dtype=np.uint8).tobytes())
    lab.write_bytes(struct.pack(">ii", 2049, n) + bytes(c % 2 for c in range(n)))
    return f"{img},{lab}"


def test_test_split_of_another_width_exits_2(tmp_path, capsys):
    # train reads no test split; load_data and eval refuse one of another
    # width, eval before any output
    spec = (f"idx:{write_idx_split(tmp_path, 'train', 40, 2)}"
            f";test={write_idx_split(tmp_path, 'test', 10, 3)}")
    with pytest.raises(ConfigError, match="split has 9 features, the training "
                                          "statistics 4"):
        load_data(spec, seed=0)
    run = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path, TINY), "--data", spec,
                 "--out", str(run)]) == 0
    out = tmp_path / "never"
    assert main(["eval", "--coreset", str(run / "coreset.vbpc"), "--data", spec,
                 "--out", str(out)]) == 2
    assert "dimension mismatch: coreset d=4, data d=9" in capsys.readouterr().err
    assert not out.exists()


def test_train_reads_no_test_split(tmp_path):
    # the same records (bar ms) and coreset bytes whether or not the test
    # IDX files of the spec exist
    train_part = write_idx_split(tmp_path, "train", 40, 3)
    test_part = write_idx_split(tmp_path, "test", 10, 3)
    cfg = write_cfg(tmp_path, TINY)
    runs = []
    for name in ("present", "absent"):
        if name == "absent":
            for path in test_part.split(","):
                os.remove(path)
        out = tmp_path / name
        assert main(["train", "--config", cfg, "--data",
                     f"idx:{train_part};test={test_part}", "--out", str(out)]) == 0
        records = [json.loads(line) for line in
                   (out / "metrics.jsonl").read_text().splitlines()]
        for record in records:
            del record["ms"]
        runs.append((records, (out / "coreset.vbpc").read_bytes()))
    assert runs[0] == runs[1] and len(runs[0][0]) == 4


def test_eval_without_a_test_split_exits_2(tmp_path, capsys):
    spec = f"idx:{write_idx_split(tmp_path, 'train', 40, 3)}"
    run = tmp_path / "run"
    assert main(["train", "--config", write_cfg(tmp_path, TINY), "--data", spec,
                 "--out", str(run)]) == 0
    out = tmp_path / "ev"
    assert main(["eval", "--coreset", str(run / "coreset.vbpc"), "--data", spec,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: eval needs a test split (synthetic "
                                       "specs provide one; idx specs need ;test=...)\n")
    assert not out.exists()


def test_load_data_and_train_leave_the_matrix_unbuilt(tmp_path):
    spec = (f"idx:{write_idx_split(tmp_path, 'train', 40, 3)}"
            f";test={write_idx_split(tmp_path, 'test', 10, 3)}")
    train_ds, test_ds = load_data(spec, seed=0)
    trainer.train(parse_config(write_cfg(tmp_path, TINY)), train_ds)
    # X is a cached property: once read, it sits in the instance's __dict__
    assert "X" not in train_ds.__dict__ and "X" not in test_ds.__dict__
    assert train_ds.raw.dtype == np.uint8


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------

def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["train", "--data", MOONS]) == 2
