"""Feature extractor (ReLU multilayer perceptron), its Gaussian-likelihood
training step, and the rotating model pool.

The network is a deterministic feature map followed by a linear head; only
the head enters the Bayesian posterior, but the Gaussian-likelihood step
trains every parameter. Pool slots are retrained for a fixed period and then
reborn from a deterministic seed stream, so the coreset never overfits one
feature map. A slot keeps its net, its Adam state and its step count; its
generation and its net's shape are read off those, never stored twice.

Every net is drawn in float32, its Gaussian blocks by one Box-Muller
sampler (`_standard_normal`) that every model-side normal draw goes
through, the training noise's too. Pool slots keep float32 parameters, as
the evaluation net does: a slot, at `pool_new` and at each rotation, is
`init_net`'s draw rounded to float32, bit for bit, since `init_net` is that
float32 draw upcast exactly. A slot's Gaussian step, its Adam moments and
the batch features it computes run in float32, at sgemm's rate. A
parameter then takes 12 bytes with its moments.

This module owns the boundary between a net's dtype and the posterior's
float64, and one helper, `_read_only`, crosses it for plain arrays: it
adopts a read-only buffer of the dtype asked for as it is and casts
anything else by the rule the tape's `cast` applies
(`ndiff._checked_cast`), so a value beyond float32's range raises
NonFiniteError. `gaussian_step` reads its images and labels through it,
and `features` reads and returns its rows through it, handing back a
read-only float64 block for any net. `features_graph` is the taped twin of
`features` and casts on the tape. Training keeps the coreset's images in
float32 (`trainer.train`), so a step's coreset pass casts once, on the way
out, and its image gradient comes back in float32; the labels and the
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
    """Feature layers and a head that maps features to k logits (no bias)."""

    weights: tuple          # per feature layer, shape (w_in, w_out)
    biases: tuple           # per feature layer, shape (1, w_out)
    head: np.ndarray        # (h, k)

    @property
    def widths(self):
        """(d, w1, ..., h), read off the shapes; with no layers, (h,)."""
        return (*(w.shape[0] for w in self.weights), self.head.shape[0])

    @property
    def params(self):
        return list(self.weights) + list(self.biases) + [self.head]

    def replace_params(self, params):
        n = len(self.weights)
        return FeatureNet(tuple(params[:n]), tuple(params[n:2 * n]), params[2 * n])


def init_net(widths, k, seed):
    """Fresh network per seed: weights ~ N(0, 1/fan_in), biases ~
    U(+-1/sqrt(fan_in)), drawn in float32 as a pool slot is (`_draw_nets`)
    and upcast exactly to float64. The parameters are read-only, so
    `ndiff.Array` adopts them as leaves and constants without a copy, and
    checks them.

    Non-zero biases keep the ReLU features from being positively homogeneous
    in the input. The biases are drawn after the head, so weights and head
    are the same draw as with zero biases.
    """
    return _draw_nets(widths, k, [seed], np.float64)[0]


def _standard_normal(rng, out):
    """Fill the C-ordered float32 buffer `out` with standard normals and
    return it: Box-Muller (1958) on one `rng.random` draw of 2 * ceil(n/2)
    float32 uniforms u. The first half gives the radii sqrt(-2 log(1 - u)),
    the second the angles 2 pi u; `out` takes r cos(theta) in its first
    ceil(n/2) elements and r sin(theta) in the rest. Every model-side normal
    draw comes from here: a normal from numpy's ziggurat costs about four
    float32 uniforms, one from here a uniform and half as much again in
    vectorized float32 transforms. The uniforms are multiples of 2^-24
    below 1, so 1 - u >= 2^-24 and every value is finite, with
    |z| <= sqrt(48 ln 2) < 5.77."""
    flat = np.reshape(out, -1, copy=False)
    n = flat.size
    half = n - n // 2
    u = rng.random(2 * half, dtype=np.float32)
    r, theta = u[:half], u[half:]
    np.subtract(np.float32(1.0), r, out=r)
    np.log(r, out=r)
    r *= np.float32(-2.0)
    np.sqrt(r, out=r)
    theta *= np.float32(2.0 * np.pi)
    np.cos(theta, out=flat[:half])
    flat[:half] *= r
    np.sin(theta[:n - half], out=flat[half:])
    flat[half:] *= r[:n - half]
    return out


def _draw_nets(widths, k, seeds, dtype):
    """One network per seed, each drawn as `init_net` documents, in `dtype`,
    float64 or float32. Every net is drawn in float32 into buffers made here
    with `np.empty`: each Gaussian block is `_standard_normal` divided by
    sqrt(fan_in) in float32, each bias a float64 uniform divided by
    sqrt(fan_in) and rounded. A float64 net is that draw upcast exactly, so
    a float32 net is its float64 twin rounded, bit for bit. When there are
    two seeds or more, the later half of the seeds is filled on the second
    core (`_twocore._halves`); numpy's fills release the interpreter
    lock."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 1 or any(w < 1 for w in widths) or k < 1:
        raise ValueError(f"invalid widths {widths} / classes {k}")
    layers = list(zip(widths[:-1], widths[1:]))
    shapes = layers + [(widths[-1], k)]     # the Gaussian blocks: weights, head
    buffers = [([np.empty(shape, np.float32) for shape in shapes],
                [np.empty((1, w_out), np.float32) for _, w_out in layers])
               for _ in seeds]

    def fill(lo, hi):
        for seed, (gaussian, uniform) in zip(seeds[lo:hi], buffers[lo:hi]):
            rng = np.random.default_rng(seed)
            for w in gaussian:
                _standard_normal(rng, w)
                w /= np.float32(np.sqrt(w.shape[0]))
            for b, (w_in, _) in zip(uniform, layers):
                np.divide(rng.uniform(-1.0, 1.0, b.shape), np.sqrt(w_in), out=b)

    mid = len(seeds) // 2
    if mid:
        _twocore._halves(lambda: fill(0, mid), lambda: fill(mid, len(seeds)))
    else:
        fill(0, len(seeds))

    def final(p):
        p = p.astype(dtype, copy=False)
        p.flags.writeable = False
        return p

    return [FeatureNet(tuple(map(final, gaussian[:-1])), tuple(map(final, uniform)),
                       final(gaussian[-1])) for gaussian, uniform in buffers]


def _read_only(values, dtype, name):
    """`values` as a read-only, owning, C-ordered buffer in `dtype` that the
    tape adopts without a copy: `values` itself if it is one already (the
    coreset's training images), else a fresh copy. A finite value beyond
    `dtype`'s range raises NonFiniteError naming `name`
    (`ndiff._checked_cast`, the rule `cast` applies too)."""
    if nd._adoptable(values) and values.dtype == dtype:
        return values
    out = nd._checked_cast(values, dtype, name)
    out.flags.writeable = False
    return out


def features(net, x):
    """Plain numpy forward pass through the feature layers (head excluded),
    returned as a read-only float64 block: what the posterior reads, and
    what the tape adopts without a copy.

    Each layer is the forward of `affine_relu`, the primitive that
    `features_graph` records, on plain arrays: one buffer per layer, in the
    net's dtype. Rows of another dtype go in through `_read_only`, which
    refuses a row beyond float32's range; the last layer's buffer comes out
    through it too, as it is in a float64 net and upcast once, exactly, in
    a float32 one. The primitive checks the shapes.
    """
    x = np.asarray(x)
    if x.dtype != net.head.dtype:
        x = _read_only(x, net.head.dtype, "feature rows")
    for w, b in zip(net.weights, net.biases):
        x, _ = nd._fwd_affine_relu(x, w, b)
    if net.weights:
        x.flags.writeable = False       # the last layer's own buffer
    return _read_only(x, np.float64, "features")


def features_graph(net, x):
    """The taped twin of `features`: one `affine_relu` per layer on the
    Array `x` (a leaf if the coreset is being trained), with the parameters
    as constants that `ndiff.Array` adopts, read-only, without a copy, and
    checks. `x` goes through `ndiff.cast` only when its dtype is not the
    net's, and a float32 net hands its features on through a `cast`, exact,
    as float64. So the float32 training images through a float32 slot make
    one cast node, float64 images two, and float64 images through a float64
    net none.
    """
    dtype = net.head.dtype
    out = nd.cast(x, dtype) if x.data.dtype != dtype else x
    for w, b in zip(net.weights, net.biases):
        out = nd.affine_relu(out, nd.Array(w), nd.Array(b))
    return nd.cast(out, np.float64) if dtype != np.float64 else out


def gaussian_likelihood_loss(net, images, labels, gamma, param_arrays):
    """(gamma/2) ||Y - features(X) @ W||_F^2 over the leaves `param_arrays`
    that stand for net.params, in the dtype of the net and its images."""
    n = len(net.weights)
    phi = nd.constant(images)
    for w, b in zip(param_arrays[:n], param_arrays[n:2 * n]):
        phi = nd.affine_relu(phi, w, b)
    # the residual taken as features(X) @ W - Y, the same squares
    resid = nd.add(nd.matmul(phi, param_arrays[-1]), nd.constant(-labels))
    return nd.scale(nd.inner(resid, resid), gamma / 2.0)


def gaussian_step(net, images, labels, gamma, lr, state=None):
    """One Adam step on the Gaussian likelihood over all parameters.

    The images and labels are read in the net's dtype through `_read_only`,
    so the float32 training images need no copy. `state` carries the
    moments, updated in place; pass None to start fresh. The moments take
    the parameters' dtype (`AdamState.init`), so a float32 net, a pool slot
    or the evaluation net, keeps float32 moments. The leaves share memory
    with net.params. Returns (new_net, new_state); a non-finite parameter
    (before any op runs), moment or new parameter raises NonFiniteError.
    """
    images = _read_only(images, net.head.dtype, "coreset images")
    labels = _read_only(labels, net.head.dtype, "coreset labels")
    tape = nd.Tape()
    leaves = [tape.leaf(nd.Array(p)) for p in net.params]
    loss = gaussian_likelihood_loss(net, images, labels, gamma, leaves)
    grad_map = nd.backward(tape, loss)
    grads = [grad_map[tape.node_id(leaf)].data for leaf in leaves]
    params = net.params
    if state is None:
        state = AdamState.init(params)
    state, params = adam_step(state, params, grads, lr)
    return net.replace_params(params), state


@dataclass
class Slot:
    """A pool slot: its float32 net, the net's Adam state (None before its
    first step), and the Gaussian steps of all its generations."""

    net: FeatureNet
    state: AdamState | None = None
    updates: int = 0


@dataclass
class ModelPool:
    """P rotating feature networks, one `Slot` each; slot i's generation is
    its `updates // period`. Mutated by exactly one training loop."""

    slots: list
    seed: int
    period: int


def _slot_seed(seed, slot, generation):
    return np.random.SeedSequence([seed, slot, generation])


def pool_new(p, widths, k, seed, period):
    """P independently seeded float32 networks, with no steps taken. Slot i
    is `init_net(widths, k, _slot_seed(seed, i, 0))` rounded to float32, bit
    for bit; slots [P/2, P) are drawn on the second core (`_draw_nets`), into
    buffers made on the calling thread."""
    if p < 1 or period < 1:
        raise ValueError(f"pool size and period must be >= 1, got {p} and {period}")
    nets = _draw_nets(widths, k, [_slot_seed(seed, i, 0) for i in range(p)], np.float32)
    return ModelPool([Slot(net) for net in nets], seed, period)


def pool_sample(pool, rng):
    """Uniformly pick a slot; returns its index."""
    return int(rng.integers(len(pool.slots)))


def pool_update(pool, index, images, labels, gamma, lr):
    """Gaussian step on one slot, counted in its updates. The coreset's
    images and labels go in as training holds them, and `gaussian_step`
    casts them to the slot's float32 (the images, read-only float32
    already, with no copy). At each multiple of the period the slot's net,
    of its own shape, is redrawn as `pool_new` draws it, from the next
    generation's seed (seed, slot, generation), and its Adam state starts
    afresh."""
    slot = pool.slots[index]
    slot.net, slot.state = gaussian_step(slot.net, images, labels, gamma, lr,
                                         state=slot.state)
    slot.updates += 1
    if slot.updates % pool.period == 0:
        seed = _slot_seed(pool.seed, index, slot.updates // pool.period)
        slot.net, = _draw_nets(slot.net.widths, slot.net.head.shape[1], [seed],
                               np.float32)
        slot.state = None
