"""Feature net init/forward, Gaussian-likelihood training, model pool."""

import warnings

import numpy as np
import pytest
from scipy import stats

from vbpc import _twocore, ndiff as nd, network, optim
from vbpc.network import (init_net, features, features_graph, gaussian_step,
                          gaussian_likelihood_loss, pool_new, pool_sample,
                          pool_update)


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = init_net((3, 8, 4), k=2, seed=7)
    b = init_net((3, 8, 4), k=2, seed=7)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)
    c = init_net((3, 8, 4), k=2, seed=8)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.params, c.params))


def test_init_weight_variance_lecun():
    # fan_in = 100 -> Var 1/100; sample statistics over 1e4 draws
    net = init_net((100, 100), k=1, seed=0)
    assert 0.008 <= net.weights[0].var() <= 0.012


def test_init_biases_uniform_fan_in():
    widths, k, seed = (5, 7, 3), 4, 1
    net = init_net(widths, k=k, seed=seed)
    for b, w_in in zip(net.biases, widths[:-1]):
        assert np.abs(b).max() <= 1.0 / np.sqrt(w_in)
        assert np.any(b != 0.0)
    again = init_net(widths, k=k, seed=seed)
    for b, b_again in zip(net.biases, again.biases):
        np.testing.assert_array_equal(b, b_again)
    # weights and head are the zero-bias draw: biases come after the head
    rng = np.random.default_rng(seed)
    for w, w_in in zip(net.weights, widths[:-1]):
        ref = rng.standard_normal((w_in, w.shape[1])) / np.sqrt(w_in)
        np.testing.assert_array_equal(w, ref)
    ref_head = rng.standard_normal((widths[-1], k)) / np.sqrt(widths[-1])
    np.testing.assert_array_equal(net.head, ref_head)


def test_init_invalid_widths():
    with pytest.raises(ValueError):
        init_net((3, 0), k=2, seed=0)


# ---------------------------------------------------------------------------
# forward features
# ---------------------------------------------------------------------------

def test_zero_weights_give_zero_features():
    net = init_net((3, 4), k=2, seed=0)
    net = net.replace_params([np.zeros_like(p) for p in net.params])
    assert features(net, np.ones((5, 3))).max() == 0.0


def test_identity_layer_passthrough():
    net = init_net((3, 3), k=2, seed=0)
    net = net.replace_params([np.eye(3), np.zeros((1, 3)), net.head])
    x = np.abs(np.random.default_rng(0).standard_normal((4, 3)))
    np.testing.assert_array_equal(features(net, x), x)


def test_features_equal_the_plain_expression_bit_for_bit(halves_calls):
    # one layer formula: the plain pass, the taped pass and the expression
    # agree bit for bit at widths whose first product is cut in halves and
    # whose second is not
    rng = np.random.default_rng(6)
    net = init_net((300, 512, 72), 3, seed=2)
    x = rng.standard_normal((40, 300))
    want = x
    for w, b in zip(net.weights, net.biases):
        want = np.maximum(want @ w + b, 0.0)
    got = features(net, x)
    assert len(halves_calls) == 1
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    taped = features_graph(net, nd.constant(x)).data
    assert len(halves_calls) == 2 and taped.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_features_hand_over_a_read_only_float64_block(dtype):
    # any net's features come back as a fresh read-only float64 block that
    # the tape adopts without a copy: the pass in the net's dtype, on the
    # input cast to it, upcast exactly
    rng = np.random.default_rng(7)
    net, = network._draw_nets((20, 48, 16), 3, [8], dtype)
    x = rng.standard_normal((10, 20))
    want = x.astype(dtype)
    for w, b in zip(net.weights, net.biases):
        want = np.maximum(want @ w + b, 0.0)
    got = features(net, x)
    assert want.dtype == dtype and got.dtype == np.float64
    assert not got.flags.writeable and got.flags.owndata and got.flags.c_contiguous
    assert got.tobytes() == want.astype(np.float64).tobytes()
    assert nd.constant(got).data is got


def test_float32_net_refuses_a_row_beyond_float32():
    # the rows a float32 net reads are cast by `_float32`: a finite float64
    # value beyond float32's range raises, naming them and the largest
    # finite magnitude (not the nan or inf beside it), with no warning
    net, = network._draw_nets((3, 4), 2, [9], np.float32)
    x = np.ones((5, 3))
    x[3, 2] = 5e38
    x[1, 0], x[4, 1] = np.nan, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nd.NonFiniteError,
                           match="feature rows beyond float32's range: "
                                 "largest magnitude 5.000e\\+38"):
            features(net, x)


def test_zero_depth_net_is_identity_feature_map():
    net = init_net((3,), k=2, seed=0)
    x = np.random.default_rng(1).standard_normal((4, 3))
    np.testing.assert_array_equal(features(net, x), x)


def test_feature_gradient_wrt_params_matches_fd():
    rng = np.random.default_rng(2)
    net = init_net((3, 5, 4), k=2, seed=3)
    x_val = rng.standard_normal((6, 3))
    probe = rng.standard_normal((6, 4))

    tape = nd.Tape()
    leaves = [tape.leaf(nd.Array(p)) for p in net.params]
    phi = features_graph(net, nd.constant(x_val), leaves)
    loss = nd.inner(phi, nd.constant(probe))
    grad_map = nd.backward(tape, loss)

    eps = 1e-5
    params = [p.copy() for p in net.params]     # writable copies to perturb
    for i in (0, 1, 2, 3):  # both weight layers and both biases
        ad = grad_map[tape.node_id(leaves[i])].data
        val = params[i]
        fd = np.zeros_like(val)
        flat, fdf = val.ravel(), fd.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = float((features(net.replace_params(params), x_val) * probe).sum())
            flat[j] = orig - eps
            down = float((features(net.replace_params(params), x_val) * probe).sum())
            flat[j] = orig
            fdf[j] = (up - down) / (2 * eps)
        assert (np.abs(ad - fd) / np.maximum(np.abs(fd), 1e-8)).max() <= 1e-5


# ---------------------------------------------------------------------------
# gaussian step
# ---------------------------------------------------------------------------

def test_gaussian_step_scalar_hand_case():
    # identity feature map, W=0, x=1, y=1, gamma=1, lr 0.1:
    # grad_W = -gamma (y - Wx) x = -1; Adam's bias-corrected first step is
    # lr * g / (|g| + eps), taken in the float64 moments of a float64 net:
    # W moves to 0.1 / (1 + 1e-8), and m holds -(1 - BETA1) * 1
    net = init_net((1,), k=1, seed=0)
    net = net.replace_params([np.zeros((1, 1))])
    stepped, state = gaussian_step(net, np.array([[1.0]]), np.array([[1.0]]),
                                   gamma=1.0, lr=0.1)
    assert stepped.head.dtype == np.float64 and stepped.head[0, 0] == 0.1 / (1 + 1e-8)
    assert state.m[0].dtype == np.float64 and state.m[0][0, 0] == -(1.0 - optim.BETA1)


def test_gaussian_step_leaves_share_memory_with_params(monkeypatch):
    seen = []
    real_loss = network.gaussian_likelihood_loss

    def spy(net, images, labels, gamma, param_arrays):
        seen.append([leaf.data for leaf in param_arrays])
        return real_loss(net, images, labels, gamma, param_arrays)

    monkeypatch.setattr(network, "gaussian_likelihood_loss", spy)
    rng = np.random.default_rng(10)
    net = init_net((3, 6, 4), k=2, seed=11)
    images, labels = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    assert not any(p.flags.writeable for p in net.params)
    stepped, state = gaussian_step(net, images, labels, gamma=1.0, lr=1e-2)
    gaussian_step(stepped, images, labels, gamma=1.0, lr=1e-2, state=state)
    for leaves, params in zip(seen, (net.params, stepped.params)):
        assert all(np.shares_memory(leaf, p) for leaf, p in zip(leaves, params))


def test_gaussian_step_stationary_point():
    rng = np.random.default_rng(4)
    net = init_net((2, 3), k=2, seed=5)
    images = rng.standard_normal((4, 2))
    labels = features(net, images) @ net.head  # exactly current predictions
    stepped, _ = gaussian_step(net, images, labels, gamma=10.0, lr=0.05)
    for before, after in zip(net.params, stepped.params):
        np.testing.assert_array_equal(before, after)


def test_gaussian_step_gradient_matches_fd():
    # the taped Gaussian-likelihood loss that gaussian_step differentiates,
    # checked per parameter block against central differences
    rng = np.random.default_rng(13)
    net = init_net((2, 4, 3), k=2, seed=14)
    images = rng.standard_normal((5, 2))
    labels = rng.standard_normal((5, 2))
    gamma, eps = 3.0, 1e-5
    # finite differences need relu margins well clear of the kink
    pre = images
    for w, b in zip(net.weights, net.biases):
        pre_act = pre @ w + b
        assert np.abs(pre_act).min() > 1e-2
        pre = np.maximum(pre_act, 0.0)

    def loss_at(params):
        candidate = net.replace_params(params)
        r = labels - features(candidate, images) @ candidate.head
        return gamma / 2.0 * (r ** 2).sum()

    tape = nd.Tape()
    leaves = [tape.leaf(nd.Array(p)) for p in net.params]
    loss = gaussian_likelihood_loss(net, images, labels, gamma, leaves)
    np.testing.assert_allclose(loss.item(), loss_at(net.params), rtol=1e-14)
    grads = nd.backward(tape, loss)
    for i, leaf in enumerate(leaves):
        ad = grads[tape.node_id(leaf)].data
        params = [p.copy() for p in net.params]
        fd = np.zeros_like(ad)
        flat, fdf = params[i].ravel(), fd.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss_at(params)
            flat[j] = orig - eps
            down = loss_at(params)
            flat[j] = orig
            fdf[j] = (up - down) / (2 * eps)
        assert (np.abs(ad - fd) / np.maximum(np.abs(fd), 1e-8)).max() <= 1e-5


def _read_only(values, dtype):
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _gaussian_grads(net, images, labels, gamma):
    tape = nd.Tape()
    leaves = [tape.leaf(nd._adopt_checked(p)) for p in net.params]
    loss = gaussian_likelihood_loss(net, images, labels, gamma, leaves)
    grads = nd.backward(tape, loss)
    return loss, [grads[tape.node_id(leaf)].data for leaf in leaves]


@pytest.mark.parametrize("widths, k, nhat", [((5, 16, 8), 3, 6), ((64, 128, 96), 10, 40)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_gaussian_gradient_agrees_with_float64(widths, k, nhat, seed):
    # the same net, images and labels in float32 and in float64: every
    # block's gradient agrees to rounding. Over seeds 0-3 the gradients'
    # relative error read 2.0e-7 to 3.6e-7 at these shapes and at
    # (784, 256, 256) and (3072, 512, 512), and the losses' 2e-8 to 1.0e-7
    # at these shapes; each gate is ten times the worst
    rng = np.random.default_rng(seed)
    net = init_net(widths, k, seed)
    images, labels = rng.standard_normal((nhat, widths[0])), rng.standard_normal((nhat, k))
    loss64, want = _gaussian_grads(net, _read_only(images, np.float64), labels, 100.0)
    net32 = net.replace_params([_read_only(p, np.float32) for p in net.params])
    images32, labels32 = _read_only(images, np.float32), _read_only(labels, np.float32)
    loss32, got = _gaussian_grads(net32, images32, labels32, 100.0)
    assert loss32.data.dtype == np.float32
    assert abs(loss32.item() - loss64.item()) <= 1.0e-6 * loss64.item()
    for g32, g64 in zip(got, want):
        assert g32.dtype == np.float32
        assert np.linalg.norm(g32 - g64) <= 3.6e-6 * np.linalg.norm(g64)
    # a float32 net's step keeps float32 parameters and moments
    stepped, state = gaussian_step(net32, images32, labels32, 100.0, 1e-3)
    assert all(p.dtype == np.float32 and not p.flags.writeable for p in stepped.params)
    assert all(m.dtype == np.float32 for m in state.m + state.v)


def test_gaussian_loss_decreases_over_training():
    rng = np.random.default_rng(6)
    net = init_net((3, 8), k=2, seed=7)
    images = rng.standard_normal((5, 3))
    labels = rng.standard_normal((5, 2))

    def loss(n):
        r = labels - features(n, images) @ n.head
        return 0.5 * (r ** 2).sum()

    state = None
    losses = [loss(net)]
    for _ in range(50):
        net, state = gaussian_step(net, images, labels, gamma=1.0, lr=1e-3,
                                   state=state)
        losses.append(loss(net))
    rises = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
    assert rises <= 5
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------------------
# model pool
# ---------------------------------------------------------------------------

def test_pool_of_one():
    pool = pool_new(1, (2, 3), k=2, seed=0, period=5)
    rng = np.random.default_rng(0)
    assert pool_sample(pool, rng) == 0


@pytest.mark.parametrize("p, period", [(0, 5), (2, 0)])
def test_pool_refuses_an_empty_pool_or_period(p, period):
    # a slot's generation is updates // period, so a period of 0 has none
    with pytest.raises(ValueError, match=f"got {p} and {period}"):
        pool_new(p, (2, 3), k=2, seed=0, period=period)


def test_pool_slots_distinct_and_deterministic():
    pool_a = pool_new(4, (2, 3), k=2, seed=1, period=5)
    pool_b = pool_new(4, (2, 3), k=2, seed=1, period=5)
    for sa, sb in zip(pool_a.slots, pool_b.slots):
        for pa, pb in zip(sa.net.params, sb.net.params):
            np.testing.assert_array_equal(pa, pb)
    assert not np.array_equal(pool_a.slots[0].net.weights[0],
                              pool_a.slots[1].net.weights[0])


# (pool size, widths, whether the draw is cut): a pool of one is drawn
# whole; a pool of two nets or more, small or large, odd or even, is cut
# into two halves
POOL_DRAWS = [(1, (64, 256, 128), False), (2, (2, 3), True),
              (3, (64, 256, 128), True), (4, (2, 256, 1024), True)]


@pytest.mark.parametrize("p, widths, cut", POOL_DRAWS)
def test_pool_draw_is_bit_identical_on_one_thread_or_two(halves_calls, monkeypatch,
                                                         p, widths, cut):
    two = pool_new(p, widths, k=3, seed=21, period=5)
    assert len(halves_calls) == int(cut)
    monkeypatch.setattr(_twocore, "_start_worker", lambda: False)
    one = pool_new(p, widths, k=3, seed=21, period=5)
    for i in range(p):
        # each slot is init_net's draw rounded to float32
        alone = init_net(widths, 3, network._slot_seed(21, i, 0))
        for a, b, c in zip(two.slots[i].net.params, one.slots[i].net.params,
                           alone.params):
            assert not a.flags.writeable and a.flags.c_contiguous and a.flags.owndata
            assert a.dtype == b.dtype == np.float32 and c.dtype == np.float64
            assert a.tobytes() == b.tobytes() == c.astype(np.float32).tobytes()


def test_pool_sample_uniformity_chi2():
    pool = pool_new(10, (2, 2), k=2, seed=2, period=5)
    rng = np.random.default_rng(3)
    counts = np.zeros(10)
    for _ in range(10_000):
        counts[pool_sample(pool, rng)] += 1
    chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
    assert stats.chi2.sf(chi2, df=9) > 0.001


def test_pool_sample_reproducible():
    pool = pool_new(6, (2, 2), k=2, seed=4, period=5)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    a = [pool_sample(pool, rng1) for _ in range(20)]
    b = [pool_sample(pool, rng2) for _ in range(20)]
    assert a == b and all(type(i) is int for i in a)


def test_pool_rotation_contract():
    rng = np.random.default_rng(10)
    images = rng.standard_normal((3, 2))
    labels = rng.standard_normal((3, 2))
    pool = pool_new(1, (2, 3), k=2, seed=11, period=3)
    trained = []
    for _ in range(3):
        pool_update(pool, 0, images, labels, gamma=1.0, lr=1e-3)
        trained.append(pool.slots[0].net)
    # after exactly `period` updates the slot was reborn, in generation
    # 3 // 3 = 1, with a fresh Adam state: its parameters differ from the
    # trained values that preceded rotation
    slot = pool.slots[0]
    assert slot.updates == 3 and slot.state is None
    assert not np.array_equal(slot.net.weights[0], trained[1].weights[0])
    # reborn as pool_new draws a slot: the next generation's init_net draw,
    # rounded to float32
    reborn = init_net((2, 3), 2, network._slot_seed(11, 0, 1))
    for a, b in zip(slot.net.params, reborn.params):
        assert a.dtype == np.float32 and not a.flags.writeable
        assert a.tobytes() == b.astype(np.float32).tobytes()


def test_pool_period_one_reinitializes_every_update():
    rng = np.random.default_rng(12)
    images = rng.standard_normal((3, 2))
    labels = rng.standard_normal((3, 2))
    pool = pool_new(2, (2, 3), k=2, seed=13, period=1)
    for step in range(4):
        pool_update(pool, step % 2, images, labels, gamma=1.0, lr=1e-3)
        slot = pool.slots[step % 2]
        assert slot.state is None
        reborn = init_net((2, 3), 2, network._slot_seed(13, step % 2, slot.updates))
        assert all(a.tobytes() == b.astype(np.float32).tobytes()
                   for a, b in zip(slot.net.params, reborn.params))
    assert [slot.updates for slot in pool.slots] == [2, 2]


def test_pool_slot_runs_through_two_periods():
    # the generation is derived, updates // period: after each boundary the
    # slot holds that generation's draw and a fresh Adam state, and between
    # boundaries it trains the net it holds
    rng = np.random.default_rng(22)
    images, labels = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
    pool = pool_new(2, (5, 8, 6), k=3, seed=23, period=3)
    slot = pool.slots[1]
    for updates in range(1, 7):
        before = slot.net
        pool_update(pool, 1, images, labels, gamma=1.0, lr=1e-3)
        assert slot.updates == updates
        if updates % 3:
            assert slot.state.t == updates % 3 and slot.net is not before
            continue
        assert slot.state is None
        seed = network._slot_seed(23, 1, updates // 3)
        drawn, = network._draw_nets((5, 8, 6), 3, [seed], np.float32)
        assert slot.net.widths == drawn.widths
        for a, b in zip(slot.net.params, drawn.params):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes()
    assert pool.slots[0].updates == 0 and pool.slots[0].state is None


def test_pool_slot_moments_take_the_bytes_of_its_parameters():
    # float32 parameters and moments: m and v together take twice the bytes
    # of the parameters, and a parameter takes 12 bytes with its moments
    rng = np.random.default_rng(16)
    images, labels = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
    pool = pool_new(3, (5, 8, 6), k=3, seed=17, period=10)
    for slot in range(3):
        pool_update(pool, slot, images, labels, gamma=1.0, lr=1e-3)
    for slot in pool.slots:
        net, state = slot.net, slot.state
        assert all(p.dtype == np.float32 for p in net.params)
        assert all(b.dtype == np.float32 for b in state.m + state.v)
        assert (sum(b.nbytes for b in state.m + state.v)
                == 2 * sum(p.nbytes for p in net.params))


@pytest.mark.parametrize("field", ["images", "labels"])
def test_pool_step_refuses_a_coreset_beyond_float32(field):
    # a finite float64 value beyond float32's range raises, naming the
    # array, where the cast would warn and train the slot on inf
    rng = np.random.default_rng(18)
    arrays = {"images": rng.standard_normal((4, 5)), "labels": rng.standard_normal((4, 3))}
    arrays[field][2, 1] = -4e38
    pool = pool_new(1, (5, 8), k=3, seed=19, period=10)
    before = pool.slots[0].net
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nd.NonFiniteError,
                           match=f"coreset {field} beyond float32's range: "
                                 f"largest magnitude 4.000e\\+38"):
            pool_update(pool, 0, arrays["images"], arrays["labels"], gamma=1.0, lr=1e-3)
    slot, = pool.slots
    assert slot.net is before and slot.updates == 0 and slot.state is None


def test_float32_adopts_a_read_only_float32_buffer():
    # the training images, read-only float32 from Adam, reach the pool step
    # as they are; a writable or float64 buffer is copied
    rng = np.random.default_rng(20)
    frozen = rng.standard_normal((4, 5)).astype(np.float32)
    frozen.flags.writeable = False
    assert network._float32(frozen, "x") is frozen
    for values in (frozen.copy(), frozen.astype(np.float64)):
        out = network._float32(values, "x")
        assert out is not values and out.dtype == np.float32 and not out.flags.writeable
        assert out.tobytes() == frozen.tobytes()


def test_pool_counters_never_exceed_period():
    rng = np.random.default_rng(14)
    images = rng.standard_normal((2, 2))
    labels = rng.standard_normal((2, 2))
    pool = pool_new(3, (2, 2), k=2, seed=15, period=4)
    for step in range(1, 1001):
        pool_update(pool, pool_sample(pool, rng), images, labels, gamma=1.0, lr=1e-4)
        # the steps of a slot's current generation, which its Adam state
        # counts, stay below the period
        for slot in pool.slots:
            taken = 0 if slot.state is None else slot.state.t
            assert 0 <= taken == slot.updates % 4 < 4
        assert sum(slot.updates for slot in pool.slots) == step
    assert sum(slot.updates % 4 for slot in pool.slots) <= 3 * 3


def test_pool_state_deterministic_after_updates():
    def run():
        rng = np.random.default_rng(16)
        images = rng.standard_normal((3, 2))
        labels = rng.standard_normal((3, 2))
        pool = pool_new(2, (2, 3), k=2, seed=17, period=3)
        for _ in range(10):
            pool_update(pool, pool_sample(pool, rng), images, labels, gamma=2.0, lr=1e-3)
        return pool

    pa, pb = run(), run()
    for sa, sb in zip(pa.slots, pb.slots):
        for x, y in zip(sa.net.params, sb.net.params):
            np.testing.assert_array_equal(x, y)
    assert [s.updates for s in pa.slots] == [s.updates for s in pb.slots]
