"""Network substrate tests: hand gradients vs finite differences, optimizer
behavior and soft updates."""

import numpy as np
import pytest

from stabletrade.errors import NumericError, ParamError
from stabletrade.tinynet import (
    Mlp,
    adam_init,
    clip_global_norm,
    gradient_check,
    opt_step,
    soft_update,
)


def test_rejects_bad_architectures():
    with pytest.raises(ParamError):
        Mlp([4])
    with pytest.raises(ParamError):
        Mlp([4, 2], out_act="softmax")


def test_forward_shapes_and_input_check():
    net = Mlp([3, 5, 2], seed=0)
    y, _ = net.forward(np.zeros((7, 3)))
    assert y.shape == (7, 2)
    y1, _ = net.forward(np.zeros(3))
    assert y1.shape == (2,)
    with pytest.raises(ParamError):
        net.forward(np.zeros((7, 4)))


def test_single_linear_layer_weight_gradient_is_input():
    net = Mlp([3, 1], seed=1)
    x = np.array([0.5, -2.0, 3.0])
    _, cache = net.forward(x)
    grads, _ = net.backward(cache, np.array([1.0]))
    np.testing.assert_allclose(grads[:3], x, atol=1e-14)
    np.testing.assert_allclose(grads[3:], [1.0], atol=1e-14)


def test_zero_weights_pass_through_output_bias():
    net = Mlp([4, 6, 3], seed=2)
    for w in net.weights:
        w[...] = 0.0
    net.biases[0][...] = 0.0
    net.biases[1][...] = np.array([0.1, -0.2, 0.3])
    y, _ = net.forward(np.ones(4))
    np.testing.assert_allclose(y, [0.1, -0.2, 0.3], atol=1e-14)


def test_forward_is_pure():
    net = Mlp([3, 4, 2], seed=3)
    before = [p.copy() for p in net.params()]
    net.forward(np.random.default_rng(0).normal(size=(5, 3)))
    for b, p in zip(before, net.params()):
        np.testing.assert_array_equal(b, p)


@pytest.mark.parametrize("out_act", ["linear", "tanh"])
def test_three_layer_gradients_match_finite_differences(out_act):
    rng = np.random.default_rng(11)
    net = Mlp([4, 8, 8, 2], out_act=out_act, seed=7)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=4)
        worst = max(worst, gradient_check(net, x, rng=rng))
    assert worst < 1e-4


def test_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    net = Mlp([3, 10, 1], seed=9)
    x = rng.normal(size=(6, 3))
    assert gradient_check(net, x, rng=rng) < 1e-4


def test_tanh_output_is_bounded():
    net = Mlp([2, 4, 3], out_act="tanh", seed=0)
    y, _ = net.forward(100.0 * np.ones((10, 2)))
    assert np.all(np.abs(y) <= 1.0)


# ---------------------------------------------------------------------------
# optimizer


def test_zero_gradient_leaves_parameters_unchanged():
    net = Mlp([3, 4, 2], seed=1)
    before = [p.copy() for p in net.params()]
    state = adam_init(net)
    opt_step(net, np.zeros_like(net.flat), state)
    for b, p in zip(before, net.params()):
        np.testing.assert_array_equal(b, p)


def test_quadratic_converges_to_minimizer():
    # single parameter, loss (w - 3)^2, gradient 2(w - 3)
    net = Mlp([1, 1], seed=0)
    net.weights[0][...] = 0.0
    net.biases[0][...] = 0.0
    state = adam_init(net)
    for _ in range(500):
        w = float(net.weights[0][0, 0])
        g = np.array([2.0 * (w - 3.0), 0.0])
        opt_step(net, g, state, lr=0.05)
    assert abs(float(net.weights[0][0, 0]) - 3.0) < 1e-3


def test_identical_streams_stay_identical():
    a = Mlp([2, 5, 1], seed=4)
    b = a.copy()
    sa, sb = adam_init(a), adam_init(b)
    rng = np.random.default_rng(0)
    for _ in range(50):
        gs = rng.normal(size=a.flat.shape)
        opt_step(a, gs, sa)
        opt_step(b, gs.copy(), sb)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa, pb)


def test_nonfinite_update_raises():
    net = Mlp([2, 2], seed=0)
    state = adam_init(net)
    bad = np.zeros(6)
    bad[:4] = np.nan
    with pytest.raises(NumericError):
        opt_step(net, bad, state)


def test_parameters_stay_finite_under_clipped_noise():
    net = Mlp([3, 8, 2], seed=6)
    state = adam_init(net)
    rng = np.random.default_rng(6)
    for _ in range(2000):
        gs = rng.standard_cauchy(size=net.flat.shape)
        clip_global_norm(net, gs, 10.0)
        opt_step(net, gs, state, lr=1e-3)
    assert all(np.all(np.isfinite(p)) for p in net.params())


# ---------------------------------------------------------------------------
# soft updates


def test_soft_update_endpoints():
    src = Mlp([2, 3, 1], seed=1)
    tgt = Mlp([2, 3, 1], seed=2)
    keep = [p.copy() for p in tgt.params()]
    soft_update(tgt, src, 0.0)
    for k, p in zip(keep, tgt.params()):
        np.testing.assert_array_equal(k, p)
    soft_update(tgt, src, 1.0)
    for s, p in zip(src.params(), tgt.params()):
        np.testing.assert_array_equal(s, p)


def test_soft_update_geometric_closed_form():
    tau, n = 0.01, 137
    src = Mlp([2, 4, 2], seed=3)
    tgt = Mlp([2, 4, 2], seed=4)
    init = [p.copy() for p in tgt.params()]
    for _ in range(n):
        soft_update(tgt, src, tau)
    decay = (1.0 - tau) ** n
    for s, i0, p in zip(src.params(), init, tgt.params()):
        np.testing.assert_allclose(p, s * (1.0 - decay) + i0 * decay, atol=1e-10)


def test_soft_update_rejects_mismatched_architectures():
    with pytest.raises(ParamError):
        soft_update(Mlp([2, 3, 1]), Mlp([2, 4, 1]), 0.5)


# ---------------------------------------------------------------------------
# clipping


def test_clip_scales_only_above_the_cap():
    net = Mlp([1, 1])           # one weight and one bias
    g = np.array([3.0, 4.0])    # norm 5
    norm = clip_global_norm(net, g, 10.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(g, [3.0, 4.0])
    g = np.array([30.0, 40.0])  # norm 50
    norm = clip_global_norm(net, g, 10.0)
    assert norm == pytest.approx(50.0)
    np.testing.assert_allclose(np.sqrt(np.sum(g ** 2)), 10.0)


def test_same_seed_same_init():
    a, b = Mlp([4, 4, 2], seed=5), Mlp([4, 4, 2], seed=5)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa, pb)


# ---------------------------------------------------------------------------
# the flat parameter vector against per-parameter references
#
# The references below are the per-parameter-list implementations the flat
# vector replaced; the flat code must match them bit for bit.


def _ref_init(sizes, seed):
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        params.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        params.append(rng.uniform(-bound, bound, size=fan_out))
    return params


def _ref_backward(params, out_act, cache, gy):
    acts = cache["acts"]
    g = np.atleast_2d(gy)
    if out_act == "tanh":
        g = g * (1.0 - acts[-1] ** 2)
    weights = params[0::2]
    grads = [None] * len(params)
    for i in range(len(weights) - 1, -1, -1):
        grads[2 * i] = acts[i].T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ weights[i].T
        if i > 0:
            g = g * (acts[i] > 0.0)
    return grads, g


def _ref_opt_step(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _ref_soft_update(target, source, tau):
    for tp, sp in zip(target, source):
        tp *= 1.0 - tau
        tp += tau * sp


def _ref_clip(grads, max_norm):
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def _split(net, vec):
    """Per-parameter copies of a vector aligned to net.flat."""
    return [vec[a:b].reshape(shape).copy() for a, b, shape in net.layout]


def _flatten(arrays):
    return np.concatenate([np.ravel(x) for x in arrays])


_SHAPES = [[15, 64, 64, 1], [13, 64, 64, 2], [9, 32, 3], [3, 1], [5, 7, 4, 6, 2]]


@pytest.mark.parametrize("sizes", _SHAPES)
def test_flat_init_matches_per_layer_draws(sizes):
    net = Mlp(sizes, seed=17)
    ref = _ref_init(sizes, 17)
    assert np.array_equal(net.flat, _flatten(ref))
    for p, r in zip(net.params(), ref):
        assert p.shape == r.shape and np.array_equal(p, r)
        assert np.shares_memory(p, net.flat)


@pytest.mark.parametrize("out_act", ["linear", "tanh"])
@pytest.mark.parametrize("sizes", _SHAPES)
def test_flat_backward_matches_per_layer_gradients(sizes, out_act):
    net = Mlp(sizes, out_act=out_act, seed=3)
    rng = np.random.default_rng(4)
    for rows in (1, 64, 640):
        _, cache = net.forward(rng.normal(size=(rows, sizes[0])))
        gy = rng.normal(size=(rows, sizes[-1]))
        grads, gx = net.backward(cache, gy, want_gx=True)
        ref, ref_gx = _ref_backward(net.params(), out_act, cache, gy)
        assert np.array_equal(grads, _flatten(ref))
        assert np.array_equal(gx, ref_gx)
        # skipping the input gradient changes no parameter gradient, also
        # where a width-1 output layer multiplies instead of a matrix product
        lean, no_gx = net.backward(cache, gy)
        assert no_gx is None
        assert np.array_equal(lean, grads)


@pytest.mark.parametrize("sizes", _SHAPES)
def test_flat_opt_step_matches_per_parameter_loop(sizes):
    net = Mlp(sizes, seed=5)
    ref = [p.copy() for p in net.params()]
    state = adam_init(net)
    ref_state = {"step": 0, "m": [np.zeros_like(p) for p in ref],
                 "v": [np.zeros_like(p) for p in ref]}
    rng = np.random.default_rng(6)
    for k in range(25):
        g = rng.normal(scale=10.0 ** (k % 5 - 2), size=net.flat.shape)
        opt_step(net, g, state, lr=1e-3 * (1 + k % 3))
        _ref_opt_step(ref, _split(net, g), ref_state, lr=1e-3 * (1 + k % 3))
        assert np.array_equal(net.flat, _flatten(ref))
        assert np.array_equal(state["m"], _flatten(ref_state["m"]))
        assert np.array_equal(state["v"], _flatten(ref_state["v"]))
    assert state["step"] == ref_state["step"] == 25


def _ref_flat_opt_step(net, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """The whole-vector update as one expression per line, allocating its
    temporaries."""
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    p, m, v = net.flat, state["m"], state["v"]
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * grads * grads
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _ref_flat_clip(net, grads, max_norm=10.0):
    """The global norm with each slice squared on its own."""
    total = float(np.sqrt(sum(float(np.sum(grads[a:b] * grads[a:b]))
                              for a, b, _ in net.layout)))
    if total > max_norm and total > 0.0:
        grads *= max_norm / total
    return total


@pytest.mark.parametrize("sizes", [[9, 32, 3], [13, 64, 64, 2], [15, 64, 64, 1]])
def test_scratch_adam_and_clip_match_the_allocating_expressions(sizes):
    net = Mlp(sizes, seed=21)
    ref = net.copy()
    state = adam_init(net)
    ref_state = {"step": 0, "m": np.zeros_like(ref.flat), "v": np.zeros_like(ref.flat)}
    rng = np.random.default_rng(22)
    for k in range(50):
        g = rng.standard_cauchy(size=net.flat.shape) * 10.0 ** (k % 5 - 2)
        g_ref = g.copy()
        assert clip_global_norm(net, g, 10.0) == _ref_flat_clip(ref, g_ref, 10.0)
        assert np.array_equal(g, g_ref)
        opt_step(net, g, state, lr=1e-3 * (1 + k % 3))
        _ref_flat_opt_step(ref, g_ref, ref_state, lr=1e-3 * (1 + k % 3))
        assert np.array_equal(net.flat, ref.flat)
        assert np.array_equal(state["m"], ref_state["m"])
        assert np.array_equal(state["v"], ref_state["v"])


def test_opt_step_rejects_a_misaligned_gradient():
    net = Mlp([3, 4, 2], seed=0)
    state = adam_init(net)
    with pytest.raises(ParamError):
        opt_step(net, np.zeros(net.flat.size + 1), state)
    with pytest.raises(ParamError):
        opt_step(net, [np.zeros_like(p) for p in net.params()], state)
    assert state["step"] == 0


@pytest.mark.parametrize("tau", [0.0, 0.01, 0.05, 0.3, 1.0])
def test_flat_soft_update_matches_per_parameter_loop(tau):
    src = Mlp([15, 64, 64, 1], seed=1)
    tgt = Mlp([15, 64, 64, 1], seed=2)
    ref = [p.copy() for p in tgt.params()]
    for _ in range(20):
        soft_update(tgt, src, tau)
        _ref_soft_update(ref, src.params(), tau)
    assert np.array_equal(tgt.flat, _flatten(ref))


@pytest.mark.parametrize("sizes", _SHAPES)
@pytest.mark.parametrize("max_norm", [1e9, 10.0, 1e-3])
def test_flat_clip_matches_per_parameter_norm(sizes, max_norm):
    net = Mlp(sizes, seed=0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = rng.standard_cauchy(size=net.flat.shape)
        ref = _split(net, g)
        norm = clip_global_norm(net, g, max_norm)
        ref_norm = _ref_clip(ref, max_norm)
        assert norm == ref_norm
        assert np.array_equal(g, _flatten(ref))
        if max_norm == 1e9:
            assert norm <= max_norm      # clipping inactive


def test_copy_owns_its_vector():
    net = Mlp([4, 5, 2], seed=9)
    twin = net.copy()
    assert np.array_equal(twin.flat, net.flat)
    assert not np.shares_memory(twin.flat, net.flat)
    twin.weights[0][0, 0] += 1.0
    assert twin.flat[0] == net.flat[0] + 1.0


# ---------------------------------------------------------------------------
# predict: forward's output through the net's own hidden buffers


def _ref_forward(params, out_act, x):
    """The allocating layer loop that forward's in-place loop replaced."""
    h = np.atleast_2d(x)
    weights, biases = params[0::2], params[1::2]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        if i == len(weights) - 1:
            h = np.tanh(z) if out_act == "tanh" else z
        else:
            h = np.maximum(z, 0.0)
    return h


@pytest.mark.parametrize("out_act", ["linear", "tanh"])
@pytest.mark.parametrize("sizes", _SHAPES)
def test_in_place_forward_matches_allocating_reference(sizes, out_act):
    net = Mlp(sizes, out_act=out_act, seed=11)
    rng = np.random.default_rng(12)
    for rows in (1, 64, 640):
        x = rng.normal(size=(rows, sizes[0]))
        assert np.array_equal(net.forward(x)[0], _ref_forward(net.params(), out_act, x))


@pytest.mark.parametrize("out_act", ["linear", "tanh"])
@pytest.mark.parametrize("sizes", _SHAPES)
def test_predict_matches_forward_output(sizes, out_act):
    net = Mlp(sizes, out_act=out_act, seed=8)
    rng = np.random.default_rng(9)
    # growing, then smaller batches that reuse the grown buffers
    for rows in (1, 64, 640, 64, 1, 640):
        x = rng.normal(size=(rows, sizes[0]))
        assert np.array_equal(net.predict(x), net.forward(x)[0])
    x1 = rng.normal(size=sizes[0])
    y1 = net.predict(x1)
    assert y1.shape == (sizes[-1],)
    assert np.array_equal(y1, net.forward(x1)[0])
    # the buffers hold activations, not weights: an update shows at once
    opt_step(net, rng.normal(size=net.flat.shape), adam_init(net), lr=0.1)
    x = rng.normal(size=(64, sizes[0]))
    assert np.array_equal(net.predict(x), net.forward(x)[0])


def test_predict_results_do_not_alias():
    net = Mlp([15, 64, 64, 1], seed=1)
    rng = np.random.default_rng(2)
    first = net.predict(rng.normal(size=(640, 15)))
    second = net.predict(rng.normal(size=(64, 15)))
    keep = first.copy(), second.copy()
    net.predict(rng.normal(size=(640, 15)))
    assert np.array_equal(first, keep[0]) and np.array_equal(second, keep[1])
    assert not np.shares_memory(first, second)
    for buf in net._hidden:
        assert not np.shares_memory(first, buf) and not np.shares_memory(second, buf)


def test_predict_buffers_grow_only_to_the_largest_batch():
    net = Mlp([13, 64, 32, 2], out_act="tanh", seed=3)
    rng = np.random.default_rng(4)
    net.predict(rng.normal(size=13))
    assert [b.shape for b in net._hidden] == [(1, 64), (1, 32)]
    for rows, largest in ((64, 64), (640, 640), (64, 640), (1, 640)):
        net.predict(rng.normal(size=(rows, 13)))
        assert [b.shape for b in net._hidden] == [(largest, 64), (largest, 32)]
    assert Mlp([3, 1], seed=0).predict(np.ones((5, 3))).shape == (5, 1)


def test_copy_gets_its_own_predict_buffers():
    net = Mlp([4, 5, 2], seed=9)
    x = np.random.default_rng(0).normal(size=(8, 4))
    y = net.predict(x)
    twin = net.copy()
    assert np.array_equal(twin.predict(x), y)
    for mine in net._hidden:
        assert not any(np.shares_memory(mine, theirs) for theirs in twin._hidden)


# ---------------------------------------------------------------------------
# cache_rows: forward's cache for rows of the last predict


@pytest.mark.parametrize("out_act", ["linear", "tanh"])
@pytest.mark.parametrize("sizes", _SHAPES)
def test_cache_rows_equals_forward_cache_of_those_rows(sizes, out_act):
    # row counts that are multiples of 4, as in the margin loss: 640-row
    # candidate passes, 128 [best; expert] rows (see the method's docstring)
    net = Mlp(sizes, out_act=out_act, seed=5)
    rng = np.random.default_rng(6)
    for n in (640, 64, 8):      # the buffers outgrow the later passes
        x = rng.normal(size=(n, sizes[0]))
        net.predict(x)
        for rows in (np.arange(n), rng.integers(n, size=128),
                     np.array([n - 1, 0, n - 1, 1])):
            cache = net.cache_rows(rows)
            _, ref = net.forward(x[rows])
            assert cache["squeeze"] is False
            assert len(cache["acts"]) == len(ref["acts"])
            for got, want in zip(cache["acts"], ref["acts"]):
                assert got.shape == want.shape and np.array_equal(got, want)
            gy = rng.normal(size=(len(rows), sizes[-1]))
            got_g, got_gx = net.backward(cache, gy, want_gx=True)
            want_g, want_gx = net.backward(ref, gy, want_gx=True)
            assert np.array_equal(got_g, want_g) and np.array_equal(got_gx, want_gx)


def test_cache_rows_outlives_the_next_predict():
    net = Mlp([15, 64, 64, 1], seed=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(640, 15))
    net.predict(x)
    cache = net.cache_rows(np.array([3, 7]))
    keep = [h.copy() for h in cache["acts"]]
    net.predict(rng.normal(size=(640, 15)))
    assert all(np.array_equal(h, k) for h, k in zip(cache["acts"], keep))
    # rows past the last pass are not read from the larger buffers
    net.predict(x[:4])
    with pytest.raises(IndexError):
        net.cache_rows(np.array([5]))
    with pytest.raises(ParamError, match="earlier predict"):
        Mlp([3, 2], seed=0).cache_rows(np.array([0]))
