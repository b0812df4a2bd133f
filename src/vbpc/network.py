"""Feature extractor (ReLU multilayer perceptron), its Gaussian-likelihood
training step, and the rotating model pool.

The network is a deterministic feature map followed by a linear head; only
the head enters the Bayesian posterior, but the Gaussian-likelihood step
trains every parameter. Pool slots are retrained for a fixed period and then
reborn from a deterministic seed stream, so the coreset never overfits one
feature map.

Pool slots keep float32 parameters, as the evaluation net does. A slot,
at `pool_new` and at each rotation, is `init_net`'s draw rounded to
float32, bit for bit, and its Gaussian step, its Adam moments and the
batch features it computes run in float32, at sgemm's rate. A parameter
then takes 12 bytes with its moments. The draw goes through one float64
scratch buffer per half and layer, so no float64 net is ever whole.

This module owns the boundary between a net's dtype and the posterior's
float64. What goes into a float32 net, the coreset's images and labels for
a slot's step and the rows whose features are read, goes through
`_float32`, which adopts a read-only float32 buffer as it is and casts
anything else; taped images of another dtype than the net's go in through
the tape's `cast`. Both apply one rule (`ndiff._checked_cast`): a value
beyond float32's range raises NonFiniteError. What comes out is float64:
`features` hands back a read-only float64 block for any net, and
`features_graph`, reading a net's parameters as constants, casts the
taped features up. Training keeps the coreset's images in float32
(`trainer.train`), so a step's coreset pass casts once, on the way out,
and its image gradient comes back in float32; the labels and the
posterior stay float64.

A pool of two nets or more is drawn on both cores: each slot has its own
seed stream, so the worker of `_twocore._halves` draws the later half of
the slots while the calling thread draws the first, with the same bits as
one after the other. Every buffer is made on the calling thread and the
worker only fills it. glibc keeps a buffer in the arena of the thread that
allocated it, and a CIFAR-shaped pool allocated on the worker raised the
peak resident memory of every run measured (perfbench `wide`).
"""

from dataclasses import dataclass

import numpy as np

from . import _twocore, ndiff as nd
from .optim import AdamState, adam_step


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
    return _draw_nets(widths, k, [seed], np.float64)[0]


def _draw_nets(widths, k, seeds, dtype):
    """One network per seed, each drawn as `init_net` documents and rounded
    to `dtype`, float64 or float32. The buffers are made here with
    `np.empty` and then filled: `standard_normal(out=)` and a division give
    the bits of `standard_normal(shape) / sqrt(fan_in)`. A float32 net's
    Gaussian blocks are drawn into float64 scratch, one buffer per half and
    layer, from which the division writes the rounded quotient. When there
    are two seeds or more, the later half of the seeds is filled on the
    second core (`_twocore._halves`); numpy's fill releases the interpreter
    lock."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 1 or any(w < 1 for w in widths) or k < 1:
        raise ValueError(f"invalid widths {widths} / classes {k}")
    layers = list(zip(widths[:-1], widths[1:]))
    shapes = layers + [(widths[-1], k)]     # the Gaussian blocks: weights, head
    buffers = [([np.empty(shape, dtype) for shape in shapes],
                [np.empty((1, w_out), dtype) for _, w_out in layers]) for _ in seeds]
    mid = len(seeds) // 2
    # float64 blocks take their draws in place; float32 ones through one set
    # of float64 scratch blocks per half
    scratch = [None if np.dtype(dtype) == np.float64 else [np.empty(s) for s in shapes]
               for _ in range(1 + bool(mid))]

    def fill(lo, hi, draws):
        for seed, (gaussian, uniform) in zip(seeds[lo:hi], buffers[lo:hi]):
            rng = np.random.default_rng(seed)
            for w, z in zip(gaussian, draws or gaussian):
                rng.standard_normal(out=z)
                np.divide(z, np.sqrt(z.shape[0]), out=w)
            for b, (w_in, _) in zip(uniform, layers):
                np.divide(rng.uniform(-1.0, 1.0, b.shape), np.sqrt(w_in), out=b)

    if mid:
        _twocore._halves(lambda: fill(0, mid, scratch[0]),
                         lambda: fill(mid, len(seeds), scratch[1]))
    else:
        fill(0, len(seeds), scratch[0])
    nets = []
    for gaussian, uniform in buffers:
        for p in (*gaussian, *uniform):
            p.flags.writeable = False
        nets.append(FeatureNet(widths, tuple(gaussian[:-1]), tuple(uniform), gaussian[-1]))
    return nets


def _read_only(values, dtype):
    """A fresh read-only, owning, C-ordered copy of `values` in `dtype`,
    which the tape adopts without a second copy."""
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _float32(values, name):
    """`values` as a read-only float32 buffer that the tape adopts without
    a copy: `values` itself if it is one already (the coreset's training
    images), else a fresh copy. A finite value beyond float32's range
    raises NonFiniteError naming `name` (`ndiff._checked_cast`, the rule
    `cast` applies too)."""
    if nd._adoptable(values) and values.dtype == np.float32:
        return values
    out = nd._checked_cast(values, np.float32, name)
    out.flags.writeable = False
    return out


def features(net, x):
    """Plain numpy forward pass through the feature layers (head excluded),
    returned as a fresh read-only float64 block: what the posterior reads,
    and what the tape adopts without a copy.

    Each layer is the forward of `affine_relu`, the primitive that
    `features_graph` records, on plain arrays: one buffer per layer, in the
    net's dtype. A float64 net reads its input with no copy when it is
    float64 already; a float32 net reads it through `_float32`, which
    refuses a row beyond float32's range, and its output is upcast once,
    exactly. The primitive checks the shapes.
    """
    if net.head.dtype == np.float64:
        x = np.asarray(x, dtype=np.float64)
    else:
        x = _float32(x, "feature rows")
    for w, b in zip(net.weights, net.biases):
        x, _ = nd._fwd_affine_relu(x, w, b)
    if x.dtype != np.float64 or not net.weights:
        return _read_only(x, np.float64)
    x.flags.writeable = False
    return x


def features_graph(net, x, param_arrays=None):
    """Forward pass on the tape, one `affine_relu` per layer. `x` is an
    Array (a leaf if the coreset is being trained).

    `param_arrays` supplies leaf Arrays when the net itself is being
    trained, and the pass runs in the net's dtype. Otherwise the parameters
    enter as constants (sharing memory with net.params, which init_net and
    adam_step make read-only and finite) and the pass is the taped twin of
    `features`: `x` goes through `ndiff.cast` only when its dtype is not
    the net's, and a float32 net hands its features on through a `cast`,
    exact, as float64. So the float32 training images through a float32
    slot make one cast node, float64 images two, and float64 images
    through a float64 net none.
    """
    dtype = net.head.dtype
    if param_arrays is None:
        ws = [nd._adopt_checked(w) for w in net.weights]
        bs = [nd._adopt_checked(b) for b in net.biases]
    else:
        n = len(net.weights)
        ws, bs = param_arrays[:n], param_arrays[n:2 * n]
    constants = param_arrays is None
    out = nd.cast(x, dtype) if constants and x.data.dtype != dtype else x
    for w, b in zip(ws, bs):
        out = nd.affine_relu(out, w, b)
    return nd.cast(out, np.float64) if constants and dtype != np.float64 else out


def gaussian_likelihood_loss(net, images, labels, gamma, param_arrays):
    """(gamma/2) ||Y - features(X) @ W||_F^2 over the leaves `param_arrays`
    that stand for net.params."""
    phi = features_graph(net, nd.constant(images), param_arrays)
    # the residual taken as features(X) @ W - Y, the same squares
    resid = nd.add(nd.matmul(phi, param_arrays[-1]), nd.constant(-labels))
    return nd.scale(nd.inner(resid, resid), gamma / 2.0)


def gaussian_step(net, images, labels, gamma, lr, state=None):
    """One Adam step on the Gaussian likelihood over all parameters.

    `state` carries the moments, updated in place; pass None to start
    fresh. The moments take the parameters' dtype (`AdamState.init`), so a
    float32 net, a pool slot or the evaluation net, keeps float32 moments.
    The leaves share memory with net.params. Returns (new_net, new_state); a
    non-finite moment or new parameter raises NonFiniteError.
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
    """P independently seeded float32 networks, counters at zero. Slot i is
    `init_net(widths, k, _slot_seed(seed, i, 0))` rounded to float32, bit for
    bit; slots [P/2, P) are drawn on the second core (`_draw_nets`), into
    buffers made on the calling thread."""
    if p < 1:
        raise ValueError("pool size must be >= 1")
    nets = _draw_nets(widths, k, [_slot_seed(seed, i, 0) for i in range(p)], np.float32)
    return ModelPool(nets=nets, counters=[0] * p, period=period,
                     widths=tuple(widths), k=k, seed=seed,
                     generations=[0] * p, opt_states=[None] * p)


def pool_sample(pool, rng):
    """Uniformly pick a slot; returns (index, live network)."""
    idx = int(rng.integers(len(pool.nets)))
    return idx, pool.nets[idx]


def pool_update(pool, index, images, labels, gamma, lr):
    """Gaussian step on one slot, in float32 on the coreset's images and
    labels through `_float32` (the training images, read-only float32
    already, with no copy), then rotate the slot if its period is up: it is
    redrawn as `pool_new` draws it, from its next generation's seed."""
    net, state = gaussian_step(pool.nets[index], _float32(images, "coreset images"),
                               _float32(labels, "coreset labels"), gamma, lr,
                               state=pool.opt_states[index])
    pool.nets[index] = net
    pool.opt_states[index] = state
    pool.counters[index] += 1
    if pool.counters[index] >= pool.period:
        pool.generations[index] += 1
        pool.nets[index], = _draw_nets(
            pool.widths, pool.k,
            [_slot_seed(pool.seed, index, pool.generations[index])], np.float32)
        pool.counters[index] = 0
        pool.opt_states[index] = None
