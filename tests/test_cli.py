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

from vbpc.cli import (ConfigError, main, parse_config, write_config,
                      load_data)
from vbpc.data import CoresetFileError, PseudoCoreset, save_coreset
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
    assert not np.array_equal(train.X, test.X)
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


@pytest.mark.parametrize("bad", ["log_interval = 0", "hidden = 0", "rho = nan"])
def test_train_bad_config_exits_2_before_output(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, TINY + bad + "\n")
    out = tmp_path / "never"
    assert main(["train", "--config", cfg, "--data", MOONS,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


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
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["event"] == "abort"


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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pins a process to one CPU")
def test_train_on_one_cpu_is_bit_identical_to_two(tmp_path):
    # hidden widths and coreset size that cut products, Adam blocks and the
    # KL's products with L^{-1} in halves; pinned to one CPU they run serially
    cfg = write_cfg(tmp_path, "steps = 4\nbatch_size = 64\nipc = 32\n"
                              "hidden = 256,1024\npool_size = 2\nlog_interval = 1\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    workers = {}
    for cpus in (str(min(os.sched_getaffinity(0))), "all"):
        out = tmp_path / cpus
        child = subprocess.run(
            [sys.executable, "-c", _PINNED_TRAIN, cpus, "train", "--config", cfg,
             "--data", "synthetic:moons:n=400,k=2,noise=0.1", "--out", str(out),
             "--seed", "4"], env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        workers[cpus] = child.stderr.split()[-1]
    assert workers == {str(min(os.sched_getaffinity(0))): "False",
                       "all": str(len(os.sched_getaffinity(0)) > 1)}
    pinned, free = (tmp_path / cpus for cpus in workers)
    lines_p = (pinned / "metrics.jsonl").read_text().splitlines()
    lines_f = (free / "metrics.jsonl").read_text().splitlines()
    assert len(lines_p) == 4
    assert [strip_ms(a) for a in lines_p] == [strip_ms(b) for b in lines_f]
    assert (pinned / "coreset.vbpc").read_bytes() == (free / "coreset.vbpc").read_bytes()


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
    # two 2x2 images with distinct pixel values; stats come from the data
    spec = idx_pair(tmp_path, [10, 60, 110, 160, 50, 100, 150, 200], [0, 1])
    train, _ = load_data(spec, seed=0)
    hyper = Hyperparams(rho=1.0, gamma=1.0, beta_s=1.0)
    coreset = PseudoCoreset(images=np.zeros((2, 4)),
                            labels=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                            ipc=1, hyper=hyper)
    path = tmp_path / "c.vbpc"
    save_coreset(coreset, path)
    out = tmp_path / "imgs"
    assert main(["export-images", "--coreset", str(path), "--out", str(out),
                 "--data", spec]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["coreset_0_0.pgm", "coreset_1_0.pgm"]
    blob = (out / "coreset_0_0.pgm").read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    # normalized pixel 0 de-normalizes to the per-pixel mean
    expect = np.round(255.0 * train.mean).astype(np.uint8)
    assert blob[-4:] == expect.tobytes()


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


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------

def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["train", "--data", MOONS]) == 2
