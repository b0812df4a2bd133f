"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Criterion 3 (probit band at sigma^2 > 0) is known-infeasible as stated; it
runs faithfully and fails honestly, with the blocking analysis carried in its
failure message.
"""

import json
import math

import numpy as np
import pytest

from vbpc import ndiff as nd
from vbpc import network
from vbpc.bench import run_bench
from vbpc.cli import main
from vbpc.data import (PseudoCoreset, gen_synthetic, init_coreset, normalize,
                       normalize_with)
from vbpc.objective import coreset_grad, fd_grad_oracle, outer_loss
from vbpc.posterior import (Hyperparams, dense_variance, fixed_point_residual,
                            kl_to_prior, logdet_v, solve_posterior, trace_v)
from vbpc.predictive import (mc_log_softmax, predictive_moments,
                             probit_log_softmax)
from vbpc.trainer import TrainConfig, augment_noise, evaluate_coreset, train


def report(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def relerr(a, b, floor=1e-12):
    return np.abs(np.asarray(a) - np.asarray(b)).max() / max(
        np.abs(np.asarray(b)).max(), floor)


# ---------------------------------------------------------------------------
# 1 + 2: identity suite and fixed-point suite over the same 100 instances
# ---------------------------------------------------------------------------

def identity_suite_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        h = int(rng.integers(2, 65))
        nhat = int(rng.integers(1, 17))
        k = int(rng.integers(2, 11))
        hyper = Hyperparams(rho=float(10 ** rng.uniform(-1, 2)),
                            gamma=float(10 ** rng.uniform(-1, 2)),
                            beta_s=float(10 ** rng.uniform(-1, 2)))
        phi = rng.standard_normal((nhat, h))
        labels = rng.standard_normal((nhat, k))
        phi_test = rng.standard_normal((5, h))
        yield phi, labels, phi_test, hyper


def dense_oracles(phi, labels, phi_test, hyper):
    h = phi.shape[1]
    k = labels.shape[1]
    g = hyper.gamma / hyper.beta_s
    primal = hyper.rho * np.eye(h) + g * phi.T @ phi
    v = np.linalg.inv(primal)
    # one Newton step: the raw inverse carries eps*cond error, too coarse an
    # oracle at condition 1e6 for a 1e-10 comparison
    v = v @ (2.0 * np.eye(h) - primal @ v)
    v = 0.5 * (v + v.T)
    # the mean oracle must be a refined SOLVE: inverse-times-rhs amplifies
    # the inverse's absolute error by the (large) rhs norm
    rhs = g * phi.T @ labels
    m = np.linalg.solve(primal, rhs)
    m = m + np.linalg.solve(primal, rhs - primal @ m)
    logdet = -np.linalg.slogdet(primal)[1]
    kl = 0.5 * (k * (-h * math.log(hyper.rho) - logdet) - k * h
                + k * hyper.rho * np.trace(v) + hyper.rho * (m ** 2).sum())
    sigma = np.einsum("ij,jk,ik->i", phi_test, v, phi_test)
    return m, v, logdet, np.trace(v), kl, sigma


def test_criterion_1_identity_suite():
    worst = 0.0
    for phi, labels, phi_test, hyper in identity_suite_instances():
        post = solve_posterior(phi, labels, hyper)
        m, v, logdet, trace, kl, sigma = dense_oracles(phi, labels, phi_test,
                                                       hyper)
        worst = max(
            worst,
            relerr(post.means.data, m),
            relerr(dense_variance(post).data, v),
            abs(logdet_v(post).item() - logdet) / max(abs(logdet), 1e-8),
            abs(trace_v(post).item() - trace) / trace,
            abs(kl_to_prior(post).item() - kl) / max(abs(kl), 1e-8),
            relerr(predictive_moments(post, phi_test).variance.data[:, 0],
                   sigma))
    ok = worst <= 1e-10
    line = report(1, ok, f"identity suite worst relative error {worst:.3e} "
                         f"(tolerance 1e-10, 100 instances)")
    assert ok, line


def test_criterion_2_fixed_point_suite():
    worst = 0.0
    for phi, labels, phi_test, hyper in identity_suite_instances():
        worst = max(worst, fixed_point_residual(solve_posterior(phi, labels,
                                                                hyper)))
    ok = worst <= 1e-8
    line = report(2, ok, f"fixed-point residual max {worst:.3e} "
                         f"(tolerance 1e-8)")
    assert ok, line


# ---------------------------------------------------------------------------
# 3: probit vs Monte Carlo (known-infeasible band at sigma^2 > 0)
# ---------------------------------------------------------------------------

def test_criterion_3_probit_vs_monte_carlo():
    rng = np.random.default_rng(7)
    # exactness clause at sigma^2 = 0
    exact_worst = 0.0
    for k in (2, 5, 10):
        m = rng.uniform(-3, 3, k)
        probit = probit_log_softmax(m.reshape(1, -1), np.zeros((1, 1))).data[0]
        mc = mc_log_softmax(m, 0.0, samples=10, seed=0)
        exact_worst = max(exact_worst, float(np.abs(probit - mc).max()))

    cells = []
    worst_excess = -np.inf
    for k in (2, 5, 10):
        for var in (0.25, 1.0, 4.0):
            cell_excess = -np.inf
            for i in range(20):
                m = rng.uniform(-3, 3, k)
                probit = probit_log_softmax(
                    m.reshape(1, -1), np.array([[var]])).data[0]
                mc, stderr = mc_log_softmax(m, var, samples=1_000_000,
                                            seed=1000 + i,
                                            return_stderr=True)
                excess = float((np.abs(probit - mc) - (3 * stderr + 0.05)).max())
                cell_excess = max(cell_excess, excess)
            cells.append((k, var, cell_excess))
            worst_excess = max(worst_excess, cell_excess)

    for k, var, excess in cells:
        print(f"  probit cell k={k} var={var}: worst band excess "
              f"{excess:+.3f} ({'ok' if excess <= 0 else 'violated'})")
    ok = worst_excess <= 0 and exact_worst <= 1e-12
    line = report(3, ok,
                  f"sigma^2=0 exact to {exact_worst:.1e} (tol 1e-12); band "
                  f"|probit-MC| <= 3*stderr+0.05 violated by up to "
                  f"{worst_excess:.3f} - the mean-field/probit chain drops a "
                  f"Jensen term that grows with sigma^2; deterministic quadrature "
                  f"confirms the oracle")
    assert ok, line


# ---------------------------------------------------------------------------
# 4: hypergradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_4_hypergradient_fidelity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        hyper = Hyperparams(rho=1.0, gamma=100.0, beta_s=4.0, beta_d=1e-8)
        net = network.init_net((3, 6), 3, seed=int(rng.integers(1 << 31)))
        coreset = PseudoCoreset(images=rng.standard_normal((4, 3)),
                                labels=rng.standard_normal((4, 3)),
                                ipc=1, hyper=hyper)
        batch = (rng.standard_normal((8, 3)),
                 np.eye(3)[rng.integers(0, 3, 8)])
        tape = nd.Tape()
        loss, _ = outer_loss(coreset, net, batch, 8, hyper, tape)
        gx, gy = coreset_grad(loss, tape)
        fx, fy = fd_grad_oracle(coreset, net, batch, 8, hyper, eps=1e-5)
        for ad, fd in ((gx, fx), (gy, fy)):
            rel = np.abs(ad - fd) / np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-4
    line = report(4, ok, f"coreset gradient vs central differences, worst "
                         f"per-coordinate relative error {worst:.3e} "
                         f"(tolerance 1e-4, 10 instances)")
    assert ok, line


# ---------------------------------------------------------------------------
# 5: end-to-end desk-scale learning (accuracy clause known-infeasible)
# ---------------------------------------------------------------------------

def moons_splits():
    train_ds = normalize(gen_synthetic("moons", 2000, 2, 0.1,
                                       seed=np.random.SeedSequence([0, 0])))
    test_ds = normalize_with(gen_synthetic("moons", 2000, 2, 0.1,
                                           seed=np.random.SeedSequence([0, 1])),
                             train_ds.mean, train_ds.std)
    return train_ds, test_ds


def test_criterion_5_end_to_end_two_moons():
    train_ds, test_ds = moons_splits()
    config = TrainConfig(steps=2000, batch_size=256, ipc=5, hidden=(32, 32),
                         log_interval=100)
    records = []
    coreset = train(config, train_ds, sink=records.append)

    resolved = config.resolve_beta_s(train_ds.k)
    init = init_coreset(train_ds, config.ipc, config.init_mode,
                        config.seed_init, hyper=resolved.hyperparams())
    widths = (train_ds.d, *config.hidden)
    ev_final = evaluate_coreset(coreset, test_ds, test_ds.labels, widths,
                                tprime=500, seed=0)
    ev_init = evaluate_coreset(init, test_ds, test_ds.labels, widths,
                               tprime=500, seed=0)

    acc_ok = ev_final["acc"] >= 0.90
    nll_ok = ev_final["nll"] <= 0.80 * ev_init["nll"]
    loss_ok = records[-1]["loss"] < records[0]["loss"]
    ok = acc_ok and nll_ok and loss_ok
    line = report(
        5, ok,
        f"acc {ev_final['acc']:.3f} (>=0.90: {acc_ok}), "
        f"nll {ev_final['nll']:.3f} "
        f"vs 0.8*init {0.8 * ev_init['nll']:.3f} ({nll_ok}), loss "
        f"{records[0]['loss']:.1f}->{records[-1]['loss']:.1f} ({loss_ok})")
    assert ok, line


# ---------------------------------------------------------------------------
# 6: memory/time analogue of the naive-vs-efficient contrast
# ---------------------------------------------------------------------------

def test_criterion_6_memory_time_analogue():
    h, nhat = 4096, 100
    efficient = run_bench(h=h, nhat=nhat, mode="efficient", reps=3)
    naive = run_bench(h=h, nhat=nhat, mode="naive", reps=1)
    mem_ratio = efficient["peak_f64"] / naive["peak_f64"]
    time_ratio = efficient["ms_per_100"] / naive["ms_per_100"]
    no_hxh = efficient["largest_block"] < h * h
    ok = mem_ratio <= 0.5 and time_ratio <= 0.5 and no_hxh
    line = report(
        6, ok,
        f"peak f64 {efficient['peak_f64']:,} vs naive {naive['peak_f64']:,} "
        f"(ratio {mem_ratio:.3f} <= 0.5), ms/100 {efficient['ms_per_100']:.0f} "
        f"vs {naive['ms_per_100']:.0f} (ratio {time_ratio:.4f} <= 0.5), "
        f"largest efficient block {efficient['largest_block']:,} < h^2 "
        f"{h * h:,}: {no_hxh}")
    assert ok, line


# ---------------------------------------------------------------------------
# 7: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 10\nbatch_size = 32\nipc = 2\nhidden = 8\n"
                   "pool_size = 2\npool_period = 3\nlog_interval = 1\n")
    spec = "synthetic:moons:n=200,k=2,noise=0.1"
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--config", str(cfg), "--data", spec,
                     "--out", str(out), "--seed", "9"])
        assert code == 0
        outs.append(out)

    def stripped_lines(path):
        lines = []
        for line in (path / "metrics.jsonl").read_text().splitlines()[:10]:
            record = json.loads(line)
            record.pop("ms")  # wall-clock cannot agree across runs
            lines.append(json.dumps(record))
        return lines

    records_equal = stripped_lines(outs[0]) == stripped_lines(outs[1])
    coreset_equal = ((outs[0] / "coreset.vbpc").read_bytes()
                     == (outs[1] / "coreset.vbpc").read_bytes())
    ok = records_equal and coreset_equal
    line = report(7, ok, f"first 10 metrics records identical modulo ms: "
                         f"{records_equal}; coreset.vbpc byte-identical at "
                         f"step 10: {coreset_equal}")
    assert ok, line


# ---------------------------------------------------------------------------
# 8: ablation toggles
# ---------------------------------------------------------------------------

def test_criterion_8_ablation_toggles():
    train_ds, _ = moons_splits()
    base = dict(steps=60, batch_size=64, ipc=5, hidden=(16, 16), pool_size=3,
                pool_period=10, log_interval=5)

    frozen = train(TrainConfig(**base, learn_labels=False), train_ds)
    init = init_coreset(train_ds, 5, "sample", TrainConfig(**base).seed_init)
    labels_frozen = np.array_equal(frozen.labels, init.labels)

    images = np.ones((4, 3))
    identity = augment_noise(images, 0.0, np.random.default_rng(0)) is images
    records_off = []
    records_zero = []
    train(TrainConfig(**base, noise_aug=False), train_ds,
          sink=records_off.append)
    train(TrainConfig(**base, noise_sigma=0.0), train_ds,
          sink=records_zero.append)
    zero_matches_off = all(a["loss"] == b["loss"]
                           for a, b in zip(records_zero, records_off))

    uniform_records = []
    train(TrainConfig(steps=300, batch_size=128, ipc=5, hidden=(16, 16),
                      pool_size=3, pool_period=10, log_interval=10,
                      init_mode="uniform"), train_ds,
          sink=uniform_records.append)
    uniform_improves = uniform_records[-1]["loss"] < uniform_records[0]["loss"]

    ok = labels_frozen and identity and zero_matches_off and uniform_improves
    line = report(
        8, ok,
        f"learn_labels=false freezes labels: {labels_frozen}; sigma=0 is the "
        f"identity path: {identity and zero_matches_off}; uniform init trains "
        f"and improves loss {uniform_records[0]['loss']:.1f}->"
        f"{uniform_records[-1]['loss']:.1f}: {uniform_improves}")
    assert ok, line
