"""Feature extractor (ReLU multilayer perceptron), its Gaussian-likelihood
training step, and the rotating model pool.

The network is a deterministic feature map followed by a linear head; only
the head enters the Bayesian posterior, but the Gaussian-likelihood step
trains every parameter. Pool slots are retrained for a fixed period and then
reborn from a deterministic seed stream, so the coreset never overfits one
feature map.

A pool is drawn on both cores: each slot has its own seed stream, so the
worker of `_twocore._halves` draws the later half of the slots while the
calling thread draws the first, with the same bits as one after the other.
Every buffer is made on the calling thread and the worker only fills it.
glibc keeps a buffer in the arena of the thread that allocated it, and a
CIFAR-shaped pool allocated on the worker raised peak resident memory from
716-720 MB to 763-786 MB.
"""

from dataclasses import dataclass

import numpy as np

from . import _twocore, ndiff as nd
from .optim import SLICE, AdamState, adam_step


@dataclass(frozen=True)
class FeatureNet:
    """widths = (d, w1, ..., h); head maps features to k logits (no bias)."""

    widths: tuple
    weights: tuple          # per feature layer, shape (w_in, w_out)
    biases: tuple           # per feature layer, shape (1, w_out)
    head: np.ndarray        # (h, k)

    @property
    def params(self):
        return list(self.weights) + list(self.biases) + [self.head]

    def replace_params(self, params):
        n = len(self.weights)
        return FeatureNet(self.widths, tuple(params[:n]),
                          tuple(params[n:2 * n]), params[2 * n])


def init_net(widths, k, seed):
    """Fresh network per seed: weights ~ N(0, 1/fan_in), biases ~
    U(+-1/sqrt(fan_in)). The parameters are read-only and finite by
    construction, so the tape adopts them as leaves and constants without
    a copy or a finiteness pass (`ndiff._adopt_checked`).

    Non-zero biases keep the ReLU features from being positively homogeneous
    in the input. The biases are drawn after the head, so weights and head
    are the same draw as with zero biases.
    """
    return _draw_nets(widths, k, [seed])[0]


def _draw_nets(widths, k, seeds):
    """One network per seed, each drawn as `init_net` documents. The buffers
    are made here with `np.empty` and then filled: `standard_normal(out=)`
    and an in-place division give the bits of `standard_normal(shape) /
    sqrt(fan_in)`. When there are two seeds or more and the nets hold at
    least 2 * SLICE parameters in all, the later half of the seeds is
    filled on the second core (`_twocore._halves`); numpy's fill releases
    the interpreter lock."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 1 or any(w < 1 for w in widths) or k < 1:
        raise ValueError(f"invalid widths {widths} / classes {k}")
    layers = list(zip(widths[:-1], widths[1:]))
    # per net: the Gaussian blocks (weights, then head) and the biases
    buffers = [([np.empty(shape) for shape in layers] + [np.empty((widths[-1], k))],
                [np.empty((1, w_out)) for _, w_out in layers]) for _ in seeds]

    def fill(lo, hi):
        for seed, (gaussian, uniform) in zip(seeds[lo:hi], buffers[lo:hi]):
            rng = np.random.default_rng(seed)
            for w in gaussian:
                rng.standard_normal(out=w)
                w /= np.sqrt(w.shape[0])
            for b, (w_in, _) in zip(uniform, layers):
                np.divide(rng.uniform(-1.0, 1.0, b.shape), np.sqrt(w_in), out=b)

    mid = len(seeds) // 2
    size = sum(b.size for blocks in buffers[0] for b in blocks)
    if mid and len(seeds) * size >= 2 * SLICE:
        _twocore._halves(lambda: fill(0, mid), lambda: fill(mid, len(seeds)))
    else:
        fill(0, len(seeds))
    nets = []
    for gaussian, uniform in buffers:
        for p in (*gaussian, *uniform):
            p.flags.writeable = False
        nets.append(FeatureNet(widths, tuple(gaussian[:-1]), tuple(uniform), gaussian[-1]))
    return nets


def features(net, x):
    """Plain numpy forward pass through the feature layers (head excluded).

    Each layer is one buffer: the product (cut in two halves on two cores
    when large, see `_twocore._product`), then the bias and the ReLU in place.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != net.widths[0]:
        raise nd.ShapeError(f"input dim {x.shape[1]} != net input {net.widths[0]}")
    for w, b in zip(net.weights, net.biases):
        y = _twocore._product(x, w)
        y += b
        x = np.maximum(y, 0.0, out=y)
    return x


def features_graph(net, x, param_arrays=None):
    """Forward pass in tape primitives. `x` is an Array (a leaf if the
    coreset is being trained); param_arrays supplies leaf Arrays when the
    net itself is being trained, otherwise parameters enter as constants
    (sharing memory with net.params, which init_net and adam_step make
    read-only and finite)."""
    if param_arrays is None:
        ws = [nd._adopt_checked(w) for w in net.weights]
        bs = [nd._adopt_checked(b) for b in net.biases]
    else:
        n = len(net.weights)
        ws, bs = param_arrays[:n], param_arrays[n:2 * n]
    out = x
    for w, b in zip(ws, bs):
        out = nd.relu(nd.add(nd.matmul(out, w), b))
    return out


def gaussian_likelihood_loss(net, images, labels, gamma, param_arrays):
    """(gamma/2) ||Y - features(X) @ W||_F^2 over the leaves `param_arrays`
    that stand for net.params."""
    phi = features_graph(net, nd.constant(images), param_arrays)
    resid = nd.sub(nd.constant(labels), nd.matmul(phi, param_arrays[-1]))
    return nd.scale(nd.sum(nd.hadamard(resid, resid)), gamma / 2.0)


def gaussian_step(net, images, labels, gamma, lr, state=None):
    """One Adam step on the Gaussian likelihood over all parameters.

    `state` carries the moments, updated in place; pass None to start
    fresh. The leaves share memory with net.params. Returns (new_net,
    new_state); a non-finite new parameter raises NonFiniteError.
    """
    tape = nd.Tape()
    leaves = [tape.leaf(nd._adopt_checked(p)) for p in net.params]
    loss = gaussian_likelihood_loss(net, images, labels, gamma, leaves)
    grad_map = nd.backward(tape, loss)
    grads = [grad_map[tape.node_id(leaf)].data for leaf in leaves]
    params = net.params
    if state is None:
        state = AdamState.init(params)
    state, params = adam_step(state, params, grads, lr)
    return net.replace_params(params), state


@dataclass
class ModelPool:
    """P rotating feature networks with per-slot step counters.

    A slot that reaches `period` updates is reinitialized from the seed
    stream (seed, slot, generation) and its counter and optimizer state
    reset. Mutated by exactly one training loop.
    """

    nets: list
    counters: list
    period: int
    widths: tuple
    k: int
    seed: int
    generations: list
    opt_states: list


def _slot_seed(seed, slot, generation):
    return np.random.SeedSequence([seed, slot, generation])


def pool_new(p, widths, k, seed, period):
    """P independently seeded networks, counters at zero. Slot i is
    `init_net(widths, k, _slot_seed(seed, i, 0))` bit for bit; slots
    [P/2, P) are drawn on the second core when the pool is large enough
    (`_draw_nets`), into buffers made on the calling thread."""
    if p < 1:
        raise ValueError("pool size must be >= 1")
    nets = _draw_nets(widths, k, [_slot_seed(seed, i, 0) for i in range(p)])
    return ModelPool(nets=nets, counters=[0] * p, period=period,
                     widths=tuple(widths), k=k, seed=seed,
                     generations=[0] * p, opt_states=[None] * p)


def pool_sample(pool, rng):
    """Uniformly pick a slot; returns (index, live network)."""
    idx = int(rng.integers(len(pool.nets)))
    return idx, pool.nets[idx]


def pool_update(pool, index, images, labels, gamma, lr):
    """Gaussian step on one slot, then rotate it if its period is up."""
    net, state = gaussian_step(pool.nets[index], images, labels, gamma, lr,
                               state=pool.opt_states[index])
    pool.nets[index] = net
    pool.opt_states[index] = state
    pool.counters[index] += 1
    if pool.counters[index] >= pool.period:
        pool.generations[index] += 1
        pool.nets[index] = init_net(
            pool.widths, pool.k,
            _slot_seed(pool.seed, index, pool.generations[index]))
        pool.counters[index] = 0
        pool.opt_states[index] = None
