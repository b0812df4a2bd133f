"""End-to-end desk-scale run: distill two-moons into 10 learnable points,
then do single-forward-pass model averaging with a freshly trained net."""

import numpy as np

from vbpc import TrainConfig, train, evaluate_coreset, init_coreset, \
    gen_synthetic, normalize, normalize_with

train_ds = normalize(gen_synthetic("moons", n=2000, k=2, noise=0.1,
                                   seed=np.random.SeedSequence([0, 0])))
test_ds = normalize_with(gen_synthetic("moons", n=2000, k=2, noise=0.1,
                                       seed=np.random.SeedSequence([0, 1])),
                         train_ds.mean, train_ds.std)

config = TrainConfig(steps=600, batch_size=256, ipc=5, hidden=(32, 32),
                     log_interval=100)
records = []
coreset = train(config, train_ds, sink=records.append)
for record in records:
    print(f"step {record['step']:4d}  loss {record['loss']:9.2f}  "
          f"lik {record['lik']:9.2f}  kl {record['kl']:.2e}  "
          f"lr {record['lr']:.5f}")

widths = (train_ds.d, *config.hidden)
resolved = config.resolve_beta_s(train_ds.k)
start = init_coreset(train_ds, config.ipc, config.init_mode,
                     config.seed_init, hyper=resolved.hyperparams())
for name, c in (("sampled-init coreset", start), ("learned coreset", coreset)):
    out = evaluate_coreset(c, test_ds, test_ds.labels, widths, tprime=500,
                           seed=0)
    print(f"{name:22s} acc {out['acc']:.3f}  nll {out['nll']:.3f}")

print("\nlearned points (x, y -> soft label):")
for row, lab in zip(coreset.images, coreset.labels):
    print(f"  ({row[0]:+.2f}, {row[1]:+.2f}) -> "
          f"[{lab[0]:+.2f}, {lab[1]:+.2f}]")
