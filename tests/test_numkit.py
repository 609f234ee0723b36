import numpy as np
import pytest

from relembed.numkit import (
    ADAM_BLOCK,
    AdamState,
    Linear,
    Mlp,
    NonFiniteGradient,
    ShapeError,
    adam_init,
    adam_step,
    glorot_uniform,
    linear_backward,
    linear_forward,
    linear_init,
    linear_param_grads,
    log_sigmoid,
    mlp_backward,
    mlp_forward,
    mlp_init,
    rng_stream,
    sigmoid,
)

from adam_reference import reference_adam_step
from gradcheck import finite_diff_grad, max_relative_error


def flatten_mlp(g: Mlp) -> list:
    out = [g.first.w]
    if g.first.b is not None:
        out.append(g.first.b)
    out.append(g.second.w)
    if g.second.b is not None:
        out.append(g.second.b)
    return out


def test_identity_network_passes_input_through():
    net = Mlp(Linear(np.eye(2), np.zeros(2)), Linear(np.eye(2), np.zeros(2)))
    y, _ = mlp_forward(net, np.array([1.0, 2.0]))
    assert np.array_equal(y, [1.0, 2.0])


def test_dead_relu_leaves_only_second_bias():
    bias = np.array([0.3, -1.1])
    net = Mlp(Linear(-np.eye(2), np.zeros(2)), Linear(np.ones((2, 2)), bias))
    y, _ = mlp_forward(net, np.array([1.0, 1.0]))
    assert np.array_equal(y, bias)


def test_forward_matches_by_hand_evaluation():
    rng = np.random.default_rng(7)
    net = mlp_init(rng, 2, 3, 2)
    x = np.array([0.3, -0.7])
    y, _ = mlp_forward(net, x)
    # Straight-line recomputation without the layer helpers.
    h = net.first.w @ x + net.first.b
    h[h < 0.0] = 0.0
    expect = net.second.w @ h + net.second.b
    assert np.allclose(y, expect, rtol=0, atol=1e-15)


def test_forward_rejects_wrong_input_dim():
    net = mlp_init(np.random.default_rng(0), 4, 3, 2)
    with pytest.raises(ShapeError):
        mlp_forward(net, np.zeros(5))


def test_batched_forward_equals_per_row():
    rng = np.random.default_rng(3)
    net = mlp_init(rng, 5, 4, 3)
    xs = rng.normal(size=(6, 5))
    ys, _ = mlp_forward(net, xs)
    for i in range(6):
        yi, _ = mlp_forward(net, xs[i])
        # matmul may take a different BLAS path per shape; only rounding differs
        assert np.allclose(ys[i], yi, rtol=0, atol=1e-12)


def test_zero_upstream_gradient_gives_zero_grads():
    rng = np.random.default_rng(11)
    net = mlp_init(rng, 3, 4, 2)
    y, cache = mlp_forward(net, rng.normal(size=3))
    g, gx = mlp_backward(net, cache, np.zeros_like(y))
    for arr in flatten_mlp(g) + [gx]:
        assert np.all(arr == 0.0)


def test_linear_backward_scalar_case():
    # y = w*x with upstream gradient 1: dL/dw = x.
    lin = Linear(np.array([[2.0]]), None)
    x = np.array([3.5])
    _, cache = linear_forward(lin, x)
    g, gx = linear_backward(lin, cache, np.array([1.0]))
    assert g.w[0, 0] == 3.5
    assert gx[0] == 2.0


def test_linear_param_grads_equal_linear_backward_bit_for_bit():
    rng = np.random.default_rng(4)
    for bias in (True, False):
        lin = linear_init(rng, 7, 5)
        if not bias:
            lin = Linear(lin.w, None)
        for x in (rng.normal(size=7), rng.normal(size=(9, 7))):
            y, cache = linear_forward(lin, x)
            grad_out = rng.normal(size=y.shape)
            want, _ = linear_backward(lin, cache, grad_out)
            got = linear_param_grads(lin, cache, grad_out)
            assert np.array_equal(got.w, want.w)
            assert (got.b is None) == (not bias)
            if bias:
                assert np.array_equal(got.b, want.b)


def test_mlp_backward_without_input_gradient():
    rng = np.random.default_rng(8)
    net = mlp_init(rng, 6, 5, 3, dropout=0.4)
    for x in (rng.normal(size=6), rng.normal(size=(4, 6))):
        y, cache = mlp_forward(net, x, training=True, rng=np.random.default_rng(1))
        grad_out = rng.normal(size=y.shape)
        want, gx = mlp_backward(net, cache, grad_out)
        got, none = mlp_backward(net, cache, grad_out, need_input=False)
        assert gx.shape == x.shape and none is None
        for a, b in zip(flatten_mlp(got), flatten_mlp(want)):
            assert np.array_equal(a, b)


def test_finite_diff_on_square():
    w = np.array([3.0])
    (g,) = finite_diff_grad(lambda: float(w[0] ** 2), [w])
    assert abs(g[0] - 6.0) < 1e-6
    assert w[0] == 3.0  # restored


def test_finite_diff_on_constant_is_zero():
    w = np.array([1.0, -2.0])
    (g,) = finite_diff_grad(lambda: 4.2, [w])
    assert np.all(g == 0.0)


def test_backward_matches_finite_differences_many_seeds():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_in, n_h, n_out = rng.integers(1, 9, size=3)
        net = mlp_init(rng, int(n_in), int(n_h), int(n_out))
        x = rng.normal(size=int(n_in))
        target = rng.normal(size=int(n_out))

        def loss():
            y, _ = mlp_forward(net, x)
            return float(np.sum((y - target) ** 2))

        y, cache = mlp_forward(net, x)
        g, _ = mlp_backward(net, cache, 2.0 * (y - target))
        numeric = finite_diff_grad(loss, flatten_mlp(net))
        worst = max(worst, max_relative_error(flatten_mlp(g), numeric))
    assert worst < 1e-5


def test_backward_through_log_sigmoid_loss():
    # Dot-product score fed through log sigmoid, the shape every training
    # loss here takes; gradient checked against finite differences.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = mlp_init(rng, 4, 5, 3)
        x = rng.normal(size=4)
        w_vec = rng.normal(size=3)
        y_lab = float(rng.integers(0, 2))

        def loss():
            v, _ = mlp_forward(net, x)
            d = float(w_vec @ v)
            return -(y_lab * log_sigmoid(d) + (1.0 - y_lab) * log_sigmoid(-d))

        v, cache = mlp_forward(net, x)
        d = float(w_vec @ v)
        grad_d = sigmoid(d) - y_lab
        g, _ = mlp_backward(net, cache, grad_d * w_vec)
        numeric = finite_diff_grad(loss, flatten_mlp(net))
        assert max_relative_error(flatten_mlp(g), numeric) < 1e-5


def test_dropout_backward_matches_frozen_mask_finite_diff():
    rng = np.random.default_rng(5)
    net = mlp_init(rng, 4, 6, 2, dropout=0.5)
    x = rng.normal(size=4)
    _, cache = mlp_forward(net, x, training=True, rng=np.random.default_rng(99))
    mask = cache[2]
    assert mask is not None

    def loss():
        z1, _ = linear_forward(net.first, x)
        h = np.maximum(z1, 0.0) * mask
        y, _ = linear_forward(net.second, h)
        return float(np.sum(y**2))

    y, cache = mlp_forward(net, x, training=True, rng=None if mask is None else _FrozenMaskRng(mask))
    g, _ = mlp_backward(net, cache, 2.0 * y)
    numeric = finite_diff_grad(loss, flatten_mlp(net))
    assert max_relative_error(flatten_mlp(g), numeric) < 1e-5


def reference_mlp(net: Mlp, x, mask, grad_out):
    """Output, pre-activation and gradients of a two-layer net, written out
    the way that keeps the pre-activation z1 and masks the backward by it."""
    z1 = x @ net.first.w.T + net.first.b
    h = np.maximum(z1, 0.0)
    hd = h if mask is None else h * mask
    y = hd @ net.second.w.T + net.second.b
    ghd = grad_out @ net.second.w
    gz1 = (ghd if mask is None else ghd * mask) * (z1 > 0.0)
    grads = [gz1.T @ x, gz1.sum(axis=0), grad_out.T @ hd, grad_out.sum(axis=0), gz1 @ net.first.w]
    return y, z1, grads


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_in_place_mlp_equals_the_reference_that_keeps_z1_bitwise(dropout):
    """With and without dropout, with NaN and infinite inputs, the forward
    output and every backward gradient have the reference's bytes."""
    rng = np.random.default_rng(17)
    net = mlp_init(rng, 4, 6, 3, dropout=dropout)
    x = rng.normal(size=(8, 4))
    x[2, 1], x[5, 3] = np.nan, -np.inf  # NaN pre-activations in rows 2 and 5
    grad_out = rng.normal(size=(8, 3))
    y, cache = mlp_forward(net, x, training=True, rng=np.random.default_rng(3))
    mask = cache[2]
    assert (mask is None) == (dropout == 0.0)
    want_y, z1, want_grads = reference_mlp(net, x, mask, grad_out)
    assert np.isnan(z1).any()
    assert y.tobytes() == want_y.tobytes()
    g, gx = mlp_backward(net, cache, grad_out)
    got = [*flatten_mlp(g), gx]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want_grads]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_backward_masks_by_post_relu_h_exactly_as_by_z1():
    """``h > 0`` equals ``z1 > 0`` for every pre-activation: NaN, -0.0,
    +0.0, infinities, subnormals and ordinary values."""
    rng = np.random.default_rng(23)
    net = mlp_init(rng, 2, 9, 2)
    x = rng.normal(size=(3, 2))
    special = [np.nan, -0.0, 0.0, -np.inf, np.inf, 5e-324, -5e-324, 1.5, -1.5]
    z1 = np.array([special, special[::-1], special[3:] + special[:3]])
    assert np.signbit(z1).any() and np.isnan(z1).any()
    h = np.maximum(z1, 0.0)
    grad_out = rng.normal(size=(3, 2))
    cache = ((x,), h, None, (h,))
    ghd = grad_out @ net.second.w
    gz1 = ghd * (z1 > 0.0)
    g, gx = mlp_backward(net, cache, grad_out)
    assert g.first.w.tobytes() == (gz1.T @ x).tobytes()
    assert g.first.b.tobytes() == gz1.sum(axis=0).tobytes()
    assert gx.tobytes() == (gz1 @ net.first.w).tobytes()
    assert g.second.w.tobytes() == (grad_out.T @ h).tobytes()


class _FrozenMaskRng:
    """Replays a fixed dropout mask through the rng.random interface."""

    def __init__(self, mask):
        self.keep = mask > 0.0

    def random(self, shape):
        out = np.ones(shape)
        out[self.keep.reshape(shape)] = 0.0  # < keep-prob => kept
        return out


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(21)
    net = mlp_init(rng, 6, 32, 4, dropout=0.5)
    x = rng.normal(size=6)
    eval_y, _ = mlp_forward(net, x)
    acc = np.zeros_like(eval_y)
    n = 20000
    drop_rng = np.random.default_rng(1234)
    for _ in range(n):
        y, _ = mlp_forward(net, x, training=True, rng=drop_rng)
        acc += y
    mean = acc / n
    scale = max(1.0, float(np.max(np.abs(eval_y))))
    assert np.max(np.abs(mean - eval_y)) / scale < 0.02


def test_dropout_requires_rng_in_training():
    net = mlp_init(np.random.default_rng(0), 2, 2, 2, dropout=0.3)
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros(2), training=True)


def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, -2.0, 3.0])
    state = adam_init([p], lr=0.01)
    adam_step(state, [p], [np.zeros_like(p)])
    assert np.array_equal(p, [1.0, -2.0, 3.0])


def test_adam_first_step_direction_and_size():
    g = np.array([0.3, -0.2, 5.0])
    p = np.zeros(3)
    state = adam_init([p], lr=0.001)
    adam_step(state, [p], [g.copy()])
    # Bias correction makes m_hat = g and v_hat = g^2 at t=1.
    expect = -0.001 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p, expect, rtol=0, atol=1e-12)


def test_adam_two_steps_match_scalar_reimplementation():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = 0.7
    # Independent scalar trace.
    p_ref, m, v = 2.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    p = np.array([2.0])
    state = adam_init([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    for _ in range(2):
        adam_step(state, [p], [np.array([g])])
    assert abs(p[0] - p_ref) < 1e-12


def test_adam_rejects_non_finite_gradients():
    p = np.zeros(2)
    state = adam_init([p])
    with pytest.raises(NonFiniteGradient):
        adam_step(state, [p], [np.array([1.0, np.nan])])


def test_adam_rejects_shape_mismatch():
    p = np.zeros(2)
    state = adam_init([p])
    with pytest.raises(ShapeError):
        adam_step(state, [p], [np.zeros(3)])


def test_blocked_adam_matches_per_array_reference_bit_for_bit():
    # ragged shapes: a single entry, one array spanning two blocks, and
    # arrays straddling block boundaries in the flat layout
    shapes = [(1,), (3, 4), (ADAM_BLOCK + 517,), (7,), (130, 131), (1,)]
    assert any(int(np.prod(s)) > ADAM_BLOCK for s in shapes)
    rng = np.random.default_rng(12)
    params = [rng.normal(size=s) for s in shapes]
    ref = [p.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    state = adam_init(params, lr=0.003)
    for t in range(1, 6):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes]
        grads[1][0, 0] = 0.0
        adam_step(state, params, [g.copy() for g in grads])
        reference_adam_step(ref, grads, ref_m, ref_v, t, lr=0.003)
        for p, r in zip(params, ref):
            assert np.array_equal(p, r)
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in ref_m]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in ref_v]))
    assert state.step == 5


def test_adam_non_finite_last_gradient_changes_nothing():
    rng = np.random.default_rng(13)
    shapes = [(4,), (ADAM_BLOCK + 3,), (2, 3)]
    params = [rng.normal(size=s) for s in shapes]
    state = adam_init(params, lr=0.01)
    adam_step(state, params, [rng.normal(size=s) for s in shapes])
    before = [p.copy() for p in params], state.m.copy(), state.v.copy()
    grads = [rng.normal(size=s) for s in shapes]
    grads[-1][1, 2] = np.nan
    with pytest.raises(NonFiniteGradient):
        adam_step(state, params, grads)
    for p, b in zip(params, before[0]):
        assert np.array_equal(p, b)
    assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
    assert state.step == 1


def test_adam_non_finite_error_names_the_parameter_and_entry():
    params = [np.zeros(3), np.zeros((2, 3))]
    state = adam_init(params)
    grads = [np.zeros(3), np.zeros((2, 3))]
    grads[1][1, 2] = np.inf
    with pytest.raises(NonFiniteGradient, match=r"\(parameter, flat index\): \[\(1, 5\)\]$"):
        adam_step(state, params, grads)


def test_adam_rejects_parameters_unlike_its_state():
    state = adam_init([np.zeros(2), np.zeros(3)])
    with pytest.raises(ShapeError):
        adam_step(state, [np.zeros(2)], [np.zeros(2)])
    with pytest.raises(ShapeError):
        adam_step(state, [np.zeros(3), np.zeros(2)], [np.zeros(3), np.zeros(2)])
    assert state.step == 0


def test_training_trajectory_is_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(42)
        net = mlp_init(rng, 3, 4, 2, dropout=0.5)
        params = flatten_mlp(net)
        state = adam_init(params, lr=0.01)
        drop_rng = np.random.default_rng(7)
        for _ in range(10):
            x = np.array([0.1, -0.2, 0.3])
            y, cache = mlp_forward(net, x, training=True, rng=drop_rng)
            g, _ = mlp_backward(net, cache, y)
            adam_step(state, params, flatten_mlp(g))
        return [p.copy() for p in params]

    a, b = run(), run()
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_glorot_bounds_and_bias_zero():
    rng = np.random.default_rng(1)
    lin = linear_init(rng, 30, 20)
    limit = np.sqrt(6.0 / 50.0)
    assert np.all(np.abs(lin.w) <= limit)
    assert np.all(lin.b == 0.0)
    w2 = glorot_uniform(np.random.default_rng(1), 20, 30)
    assert np.array_equal(lin.w, w2)


def test_sigmoid_extremes_and_symmetry():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(log_sigmoid(-1000.0))
    assert log_sigmoid(-1000.0) == pytest.approx(-1000.0, rel=1e-12)
    xs = np.linspace(-20, 20, 41)
    assert np.allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-15)
    assert np.allclose(np.log(sigmoid(xs)), log_sigmoid(xs), atol=1e-12)


def masked_sigmoid(x):
    """The boolean-mask logistic function that ``sigmoid`` replaced: one
    formula per sign, gathered and scattered through masks."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    745.0, -745.0, 746.0, -746.0, 709.78, -709.78, 36.8, -36.8, 1e300, -1e300,
    np.nan, np.copysign(np.nan, -1.0),
]


def test_sigmoid_is_bitwise_the_masked_form():
    """Equal bytes to the masked form on random inputs at every scale, on
    signed zeros, infinities, subnormals, exp's limits and NaN of both
    signs, on 2-D input, and on Python scalars (still a float)."""
    special = np.array(SPECIAL)
    assert np.signbit(special[np.isnan(special)]).tolist() == [False, True]
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1e-2, 0.1, 1.0, 10.0, 30.0, 100.0, 800.0):
        x = scale * rng.standard_normal(20_000)
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes(), scale
    assert sigmoid(special).tobytes() == masked_sigmoid(special).tobytes()
    grid = rng.standard_normal((37, 53)) * 50.0
    grid.flat[::7] = special[np.arange(grid.size)[::7] % len(special)]
    got = sigmoid(grid)
    assert got.shape == grid.shape and got.tobytes() == masked_sigmoid(grid).tobytes()
    for v in SPECIAL + [0.3, -0.3]:
        got, want = sigmoid(float(v)), masked_sigmoid(float(v))
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), v


def test_rng_streams_are_independent_and_reproducible():
    a = rng_stream(5, "stage1").normal(size=4)
    b = rng_stream(5, "stage1").normal(size=4)
    c = rng_stream(5, "stage2").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        rng_stream(5, "nope")
