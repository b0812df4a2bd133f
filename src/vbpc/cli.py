"""Command-line front door: train, eval, bench, export-images.

Config files are line-oriented `key = value` with `#` comments; unknown
keys and a key given twice are fatal, so hyperparameter typos cannot pass
silently. Data sources use a compact spec grammar:

    synthetic:<blobs|moons|circles>:n=<N>,k=<K>,noise=<F>
    idx:<images>,<labels>[;test=<images>,<labels>]

Each synthetic field is given once; n is at most 10^6 and noise finite and
non-negative. Config, spec, flag and dataset errors are reported before
any output; seeds and --tprime are non-negative integers. train reads only
the training split; eval reads only the test split, and standardizes it by
the statistics in the coreset file.

Exit codes: 0 success, 1 numerical failure (train or eval), 2 usage, config
and input-file errors.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import ndiff as nd
from .bench import run_bench
from .data import (CoresetFileError, gen_synthetic, load_coreset, load_idx,
                   normalize, normalize_with, save_coreset)
from .trainer import (TrainAbort, TrainConfig, _check_dataset,
                      evaluate_coreset, train)

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _parse_bool(raw):
    if raw not in ("true", "false"):
        raise ValueError("expected true/false")
    return raw == "true"


def _hidden_widths(raw):
    return tuple(int(w) for w in raw.split(",") if w)


def _non_negative_int(raw):
    """The argparse type of the seed and step-count flags."""
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {raw!r}")
    return value


_PARSERS = {bool: _parse_bool, int: int, float: float, float | None: float,
            str: str, tuple: _hidden_widths}
# TrainConfig fields whose config key differs from the field name
_KEY_OF_FIELD = {"init_mode": "init"}
# config key -> (TrainConfig field name, value parser)
_SCHEMA = {_KEY_OF_FIELD.get(f.name, f.name): (f.name, _PARSERS[f.type])
           for f in dataclasses.fields(TrainConfig)}


def parse_config(path):
    """Read a config file into a TrainConfig; missing keys take defaults."""
    overrides = {}
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    for lineno, line in enumerate(lines, 1):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}:{lineno}: not UTF-8 text ({err})") from err
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; valid "
                              f"keys: {', '.join(sorted(_SCHEMA))}")
        name, parse = _SCHEMA[key]
        if name in overrides:
            raise ConfigError(f"{path}:{lineno}: {key!r} given twice")
        try:
            overrides[name] = parse(raw)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: "
                              f"{raw!r} ({err})") from err
    try:
        return TrainConfig(**overrides)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def write_config(config, path):
    """Write every set field in the parseable key = value format; an unset
    field (None) is omitted, so it reads back as unset."""
    with open(path, "w") as fh:
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(w) for w in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            fh.write(f"{_KEY_OF_FIELD.get(f.name, f.name)} = {value}\n")


# ---------------------------------------------------------------------------
# data specs
# ---------------------------------------------------------------------------

# synthetic spec field -> value parser; each field is required, once
_SYNTHETIC_FIELDS = {"n": int, "k": int, "noise": float}


def _parse_synthetic(spec):
    """(kind, {field: value}) of `synthetic:<kind>:n=<N>,k=<K>,noise=<F>`."""
    parts = spec.split(":", 2)
    if len(parts) != 3:
        raise ConfigError(f"bad synthetic spec {spec!r}: expected "
                          f"synthetic:<kind>:n=<N>,k=<K>,noise=<F>")
    _, kind, params = parts
    fields = {}
    for item in params.split(","):
        key, sep, raw = item.partition("=")
        if not sep or key not in _SYNTHETIC_FIELDS:
            raise ConfigError(f"bad synthetic spec {spec!r}: unknown field "
                              f"{item!r} (fields: n, k, noise)")
        if key in fields:
            raise ConfigError(f"bad synthetic spec {spec!r}: {key!r} given twice")
        try:
            fields[key] = _SYNTHETIC_FIELDS[key](raw)
        except ValueError as err:
            raise ConfigError(f"bad synthetic spec {spec!r}: bad value for "
                              f"{key!r} ({err})") from err
    missing = [key for key in _SYNTHETIC_FIELDS if key not in fields]
    if missing:
        raise ConfigError(f"bad synthetic spec {spec!r}: missing {missing}")
    return kind, fields


def _read_split(spec, seed, split):
    """Split 0 (training) or 1 (test) of `spec` as loaded, and nothing else;
    None for the test split of an idx spec without one."""
    if spec.startswith("synthetic:"):
        kind, fields = _parse_synthetic(spec)
        try:
            return gen_synthetic(kind, **fields,
                                 seed=np.random.SeedSequence([seed, split]))
        except ValueError as err:
            raise ConfigError(f"bad synthetic spec {spec!r}: {err}") from err
    if not spec.startswith("idx:"):
        raise ConfigError(f"unknown data spec {spec!r} (synthetic:... or idx:...)")
    parts = spec[4:].split(";test=", 1)
    if split == len(parts):
        return None
    try:
        images, labels = parts[split].split(",")
    except ValueError as err:
        raise ConfigError(f"bad idx {'test ' * split}spec {spec!r}") from err
    return load_idx(images, labels)


def _normalized(spec, dataset, *stats):
    """`dataset` of `spec` normalized with its own statistics, or with the
    (mean, std) given."""
    try:
        return normalize_with(dataset, *stats) if stats else normalize(dataset)
    except ValueError as err:
        raise ConfigError(f"data {spec!r}: {err}") from err


def load_data(spec, seed):
    """Returns (train, test) datasets, both normalized with train stats."""
    train_ds = _normalized(spec, _read_split(spec, seed, 0))
    test_ds = _read_split(spec, seed, 1)
    if test_ds is not None:
        test_ds = _normalized(spec, test_ds, train_ds.mean, train_ds.std)
    return train_ds, test_ds


def _apply_seed_override(config, seed):
    if seed is None:
        return config
    return dataclasses.replace(config, seed_data=seed, seed_pool=seed + 1,
                               seed_noise=seed + 2, seed_init=seed + 3)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(args):
    config = parse_config(args.config)
    config = _apply_seed_override(config, args.seed)
    train_ds = _normalized(args.data, _read_split(args.data, config.seed_data, 0))
    config = config.resolve_beta_s(train_ds.k)
    _check_dataset(config, train_ds)

    os.makedirs(args.out, exist_ok=True)
    write_config(config, os.path.join(args.out, "resolved-config.txt"))
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    with open(metrics_path, "w") as metrics_file:
        def sink(record):
            metrics_file.write(json.dumps(record) + "\n")
            metrics_file.flush()

        try:
            coreset = train(config, train_ds, sink=sink)
        except TrainAbort as err:
            print(f"train aborted: {err}", file=sys.stderr)
            return EXIT_ABORT
    save_coreset(coreset, os.path.join(args.out, "coreset.vbpc"))
    return EXIT_OK


def cmd_eval(args):
    coreset = load_coreset(args.coreset)
    test_ds = _read_split(args.data, args.seed, 1)
    if test_ds is None:
        raise ConfigError("eval needs a test split (synthetic specs provide "
                          "one; idx specs need ;test=...)")
    if test_ds.d != coreset.images.shape[1]:
        raise ConfigError(f"dimension mismatch: coreset d={coreset.images.shape[1]}, "
                          f"data d={test_ds.d}")
    if test_ds.labels.max() >= coreset.k:
        raise ConfigError(f"the test split of {args.data!r} has {test_ds.labels.max() + 1}"
                          f" classes, the coreset {coreset.k}")
    test_ds = normalize_with(test_ds, coreset.mean, coreset.std)
    widths = (test_ds.d, *args.hidden)
    result = evaluate_coreset(coreset, test_ds, test_ds.labels, widths,
                              tprime=args.tprime, seed=args.seed)
    return _report(result, args.out, "eval.json")


def cmd_bench(args):
    result = run_bench(h=args.h, nhat=args.nhat, mode=args.mode, reps=args.reps)
    return _report(result, args.out, "bench.json")


def _report(result, out, name):
    """Print `result` as one JSON line and write the line to `out`/`name`."""
    blob = json.dumps(result)
    print(blob)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w") as fh:
        fh.write(blob + "\n")
    return EXIT_OK


def cmd_export_images(args):
    coreset = load_coreset(args.coreset)
    d = coreset.images.shape[1]
    os.makedirs(args.out, exist_ok=True)
    classes = coreset.labels.argmax(axis=1)
    values = coreset.images * coreset.std + coreset.mean

    if d == 2:
        path = os.path.join(args.out, "coreset.csv")
        with open(path, "w") as fh:
            fh.write("x,y,label\n")
            for (x, y), cls in zip(values, classes):
                fh.write(f"{float(x)!r},{float(y)!r},{cls}\n")
        return EXIT_OK

    side = math.isqrt(d)
    if side * side != d:
        raise ConfigError(f"cannot export d={d}: not a square image or 2-d points")
    pixels = np.clip(values, 0.0, 1.0)
    counters = {}
    for row, cls in zip(pixels, classes):
        idx = counters.get(cls, 0)
        counters[cls] = idx + 1
        payload = np.round(255.0 * row).astype(np.uint8).tobytes()
        name = f"coreset_{cls}_{idx}.pgm"
        with open(os.path.join(args.out, name), "wb") as fh:
            fh.write(f"P5\n{side} {side}\n255\n".encode("ascii") + payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="vbpc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a pseudo-coreset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("eval", help="variational inference + model averaging")
    p.add_argument("--coreset", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tprime", type=_non_negative_int, default=500)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--hidden", type=_hidden_widths, default=(64, 64))
    p.add_argument("--out", default=".")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("bench", help="naive vs efficient loss evaluation")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--nhat", type=int, required=True)
    p.add_argument("--mode", choices=("naive", "efficient"), required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", default=".")
    p.set_defaults(run=cmd_bench)

    p = sub.add_parser("export-images", help="write coreset rows as PGM/CSV")
    p.add_argument("--coreset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_export_images)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        return args.run(args)
    except (ConfigError, CoresetFileError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (nd.NonFiniteError, nd.NonSPDError) as err:     # numerical failure
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ABORT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
