"""Layer-level forward semantics and per-layer-kind gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mibci import layers
from mibci.network import ConvBlockSpec, NetworkSpec, backward, init_params

from helpers import max_relative_gradient_error, numeric_gradients


class TestConv:
    def test_identity_kernel_same_padding(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = np.array([[[0.0, 1.0, 0.0]]])
        y, _ = layers.conv1d_forward(x, w, np.zeros(1), "same")
        assert np.array_equal(y, x)

    def test_hand_cross_correlation_valid(self):
        # window sums: [1,2,3] * [1,1] -> [3, 5]
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0, 1.0]]])
        y, _ = layers.conv1d_forward(x, w, np.zeros(1), "valid")
        assert np.array_equal(y, np.array([[[3.0, 5.0]]]))

    def test_shape_rule_same_padding(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 251))
        w = rng.normal(size=(3, 2, 7))
        y, _ = layers.conv1d_forward(x, w, np.zeros(3), "same")
        assert y.shape == (1, 3, 251)

    def test_valid_needs_long_enough_input(self):
        with pytest.raises(ValueError, match="length"):
            layers.conv1d_forward(np.zeros((1, 1, 2)), np.zeros((1, 1, 5)), np.zeros(1), "valid")

    def test_plane_mismatch(self):
        with pytest.raises(ValueError, match="planes"):
            layers.conv1d_forward(np.zeros((1, 3, 8)), np.zeros((2, 2, 3)), np.zeros(2), "same")

    def test_bias_added_per_plane(self):
        x = np.zeros((1, 1, 4))
        w = np.zeros((2, 1, 3))
        y, _ = layers.conv1d_forward(x, w, np.array([1.5, -2.0]), "same")
        assert np.allclose(y[0, 0], 1.5)
        assert np.allclose(y[0, 1], -2.0)


class TestRelu:
    def test_clips_negatives(self):
        assert np.array_equal(layers.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_identity_on_nonnegative(self):
        x = np.array([0.0, 1.0, 3.0])
        assert np.array_equal(layers.relu(x), x)

    def test_idempotent(self):
        x = np.random.default_rng(0).normal(size=100)
        assert np.array_equal(layers.relu(layers.relu(x)), layers.relu(x))


class TestMaxPool:
    def test_simple(self):
        y, _ = layers.maxpool_forward(np.array([[[1.0, 3.0, 2.0, 0.0]]]))
        assert np.array_equal(y, np.array([[[3.0, 2.0]]]))

    def test_ceil_length(self):
        y, _ = layers.maxpool_forward(np.zeros((1, 1, 251)))
        assert y.shape == (1, 1, 126)

    def test_constant_in_constant_out(self):
        y, _ = layers.maxpool_forward(np.full((1, 2, 7), 4.2))
        assert np.allclose(y, 4.2)

    def test_backward_routes_to_argmax(self):
        x = np.array([[[1.0, 3.0, 2.0, 0.0, 5.0]]])
        y, cache = layers.maxpool_forward(x)
        dy = np.array([[[1.0, 2.0, 3.0]]])
        dx = layers.maxpool_backward(dy, cache)
        assert np.array_equal(dx, np.array([[[0.0, 1.0, 2.0, 0.0, 3.0]]]))

    def test_ties_route_gradient_to_first_sample(self):
        # equal pairs, an all-zero pair (ReLU output) and an odd tail
        x = np.array([[[0.0, 0.0, 2.0, 2.0, -1.5, -1.5, 0.0, 0.0, 7.0]]])
        y, cache = layers.maxpool_forward(x)
        assert np.array_equal(y, np.array([[[0.0, 2.0, -1.5, 0.0, 7.0]]]))
        dy = np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
        dx = layers.maxpool_backward(dy, cache)
        assert np.array_equal(dx, np.array([[[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0]]]))

    def test_nan_wins_its_window_like_argmax(self):
        x = np.array([[[np.nan, 1.0, 1.0, np.nan]]])
        y, cache = layers.maxpool_forward(x)
        assert np.isnan(y).all()
        dx = layers.maxpool_backward(np.array([[[1.0, 2.0]]]), cache)
        assert np.array_equal(dx, np.array([[[1.0, 0.0, 0.0, 2.0]]]))


class TestBatchNorm:
    def _params(self, planes):
        return (
            np.ones(planes),
            np.zeros(planes),
            np.zeros(planes),
            np.ones(planes),
        )

    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.0, size=(8, 3, 10))
        gamma, beta, rm, rv = self._params(3)
        y, _ = layers.batchnorm_forward(x, gamma, beta, rm, rv, "train")
        assert np.abs(y.mean(axis=(0, 2))).max() <= 1e-6
        assert np.abs(y.var(axis=(0, 2)) - 1.0).max() <= 1e-3

    def test_eval_mode_identity_with_unit_stats(self):
        x = np.random.default_rng(2).normal(size=(2, 2, 5))
        gamma, beta, rm, rv = self._params(2)
        y, _ = layers.batchnorm_forward(x, gamma, beta, rm, rv, "eval")
        assert np.allclose(y, x, atol=1e-4)

    def test_shift_controls_means(self):
        x = np.random.default_rng(3).normal(size=(6, 2, 8))
        gamma, beta, rm, rv = self._params(2)
        beta[:] = 5.0
        y, _ = layers.batchnorm_forward(x, gamma, beta, rm, rv, "train")
        assert np.abs(y.mean(axis=(0, 2)) - 5.0).max() <= 1e-6

    def test_batch_of_one_rejected_in_train(self):
        gamma, beta, rm, rv = self._params(2)
        with pytest.raises(ValueError, match="at least 2"):
            layers.batchnorm_forward(np.zeros((1, 2, 4)), gamma, beta, rm, rv, "train")

    def test_running_stats_updated(self):
        x = np.full((4, 1, 4), 10.0)
        gamma, beta, rm, rv = self._params(1)
        layers.batchnorm_forward(x, gamma, beta, rm, rv, "train")
        assert rm[0] == pytest.approx(1.0)  # 0.9 * 0 + 0.1 * 10


class TestDropout:
    def test_p_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 2, 4))
        y, mask = layers.dropout_forward(x, 0.0, "train", np.random.default_rng(1))
        assert mask is None and np.array_equal(y, x)

    def test_eval_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 2, 4))
        y, mask = layers.dropout_forward(x, 0.9, "eval")
        assert mask is None and np.array_equal(y, x)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones((100, 10, 1000))
        y, _ = layers.dropout_forward(x, 0.5, "train", np.random.default_rng(5))
        assert 0.99 <= y.mean() <= 1.01

    def test_train_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            layers.dropout_forward(np.zeros((1, 1, 2)), 0.5, "train")


def single_block_net(block: ConvBlockSpec, output_dim: int) -> NetworkSpec:
    return NetworkSpec(blocks=(block,), output_dim=output_dim)


@pytest.mark.parametrize(
    "block,length,output_dim",
    [
        # conv with same padding, nothing else
        (ConvBlockSpec(2, 3, 4, "same", False, False, 0.0), 3, 12),
        # conv with valid padding
        (ConvBlockSpec(2, 4, 3, "valid", False, False, 0.0), 8, 15),
        # max pooling on an odd length
        (ConvBlockSpec(2, 3, 2, "same", True, False, 0.0), 7, 8),
        # batch normalization (eval mode is exercised by the check itself)
        (ConvBlockSpec(2, 3, 3, "same", False, True, 0.0), 4, 12),
    ],
    ids=["conv-same", "conv-valid", "maxpool", "batchnorm"],
)
def test_layer_kind_gradients_match_finite_differences(block, length, output_dim):
    rng = np.random.default_rng(42)
    spec = single_block_net(block, output_dim)
    params = init_params(spec, seed=7)
    if block.batch_norm:
        params.blocks[0].gamma[:] = rng.uniform(0.5, 1.5, block.out_planes)
        params.blocks[0].beta[:] = rng.normal(size=block.out_planes)
        params.blocks[0].running_mean[:] = 0.1 * rng.normal(size=block.out_planes)
        params.blocks[0].running_var[:] = rng.uniform(0.5, 1.5, block.out_planes)
    params.blocks[0].bias[:] = 0.1 * rng.normal(size=block.out_planes)
    x = rng.normal(size=(5, block.in_planes, length))
    targets = rng.normal(size=(5, output_dim))
    analytic, _ = backward(spec, params, x, targets, mode="eval")
    numeric = numeric_gradients(spec, params, x, targets, mode="eval")
    assert max_relative_gradient_error(analytic, numeric) <= 1e-4


def test_batchnorm_train_mode_gradients():
    rng = np.random.default_rng(3)
    block = ConvBlockSpec(2, 3, 3, "same", False, True, 0.0)
    spec = single_block_net(block, 12)
    params = init_params(spec, seed=1)
    params.blocks[0].gamma[:] = rng.uniform(0.5, 1.5, 3)
    params.blocks[0].beta[:] = rng.normal(size=3)
    x = rng.normal(size=(6, 2, 4))
    targets = rng.normal(size=(6, 12))
    analytic, _ = backward(spec, params, x, targets, mode="train")
    numeric = numeric_gradients(spec, params, x, targets, mode="train")
    assert max_relative_gradient_error(analytic, numeric) <= 1e-4


# The argmax maxpool, per-tap conv dx and two-reduction batchnorm kernels the
# layers replaced, kept as test-only references.


def reference_maxpool_forward(x):
    b, p, length = x.shape
    body = x[:, :, : length - length % 2].reshape(b, p, length // 2, 2)
    argmax = body.argmax(axis=3)
    pooled = np.take_along_axis(body, argmax[..., None], axis=3)[..., 0]
    if length % 2:
        pooled = np.concatenate([pooled, x[:, :, -1:]], axis=2)
    return pooled, argmax


def reference_maxpool_backward(dy, x_shape, argmax):
    b, p, length = x_shape
    dx = np.zeros((b, p, length // 2, 2), dtype=dy.dtype)
    np.put_along_axis(dx, argmax[..., None], dy[:, :, : length // 2, None], axis=3)
    dx = dx.reshape(b, p, (length // 2) * 2)
    if length % 2:
        dx = np.concatenate([dx, dy[:, :, -1:]], axis=2)
    return dx


def reference_conv_dx(dy, weight, padding, length):
    """Scatter dy through each kernel tap into the padded input, then crop."""
    k = weight.shape[2]
    left = (k - 1) // 2 if padding == "same" else 0
    dxp = np.zeros((dy.shape[0], weight.shape[1], dy.shape[2] + k - 1))
    for j in range(k):
        dxp[:, :, j : j + dy.shape[2]] += np.einsum("bol,op->bpl", dy, weight[:, :, j])
    return dxp[:, :, left : left + length]


def reference_batchnorm_forward(x, gamma, beta):
    mean = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    inv_std = 1.0 / np.sqrt(var + layers.BN_EPS)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    return gamma[None, :, None] * xhat + beta[None, :, None]


def reference_batchnorm_dx(dy, xhat, inv_std, gamma):
    """Train-mode input gradient with its two extra full-size reductions."""
    scaled = dy * gamma[None, :, None] * inv_std[None, :, None]
    n = dy.shape[0] * dy.shape[2]
    mean_dy = scaled.sum(axis=(0, 2)) / n
    mean_dy_xhat = (scaled * xhat).sum(axis=(0, 2)) / n
    return scaled - mean_dy[None, :, None] - xhat * mean_dy_xhat[None, :, None]


def assert_close_to_scale(actual, expected, scale):
    """Max abs difference within 1e-12 of the magnitude of the summed terms."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= 1e-12 * scale


# few distinct values, so a large share of pool windows are ties
pool_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(
    x=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 12)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=pool_values)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_maxpool_matches_argmax_reference_bit_for_bit(x, seed):
    pooled, cache = layers.maxpool_forward(x)
    ref_pooled, argmax = reference_maxpool_forward(x)
    assert pooled.shape == ref_pooled.shape
    assert pooled.tobytes() == ref_pooled.tobytes()
    dy = np.random.default_rng(seed).normal(size=pooled.shape)
    dx = layers.maxpool_backward(dy, cache)
    # equal element for element; an unrouted slot may hold -0.0 for +0.0
    assert np.array_equal(dx, reference_maxpool_backward(dy, x.shape, argmax))


@settings(max_examples=100, deadline=None)
@given(
    batch=st.integers(1, 3),
    in_planes=st.integers(1, 3),
    out_planes=st.integers(1, 3),
    k=st.integers(1, 7),
    extra=st.integers(0, 12),
    padding=st.sampled_from(["same", "valid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_dx_matches_per_tap_reference(batch, in_planes, out_planes, k, extra, padding, seed):
    rng = np.random.default_rng(seed)
    length = k + extra  # odd and even lengths, always valid-able
    x = rng.normal(size=(batch, in_planes, length))
    weight = rng.normal(size=(out_planes, in_planes, k))
    y, cache = layers.conv1d_forward(x, weight, rng.normal(size=out_planes), padding)
    dy = rng.normal(size=y.shape)
    dx, _, _ = layers.conv1d_backward(dy, cache)
    expected = reference_conv_dx(dy, weight, padding, length)
    scale = reference_conv_dx(np.abs(dy), np.abs(weight), padding, length).max()
    assert_close_to_scale(dx, expected, scale)


@settings(max_examples=100, deadline=None)
@given(
    batch=st.integers(2, 4),
    planes=st.integers(1, 3),
    length=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_batchnorm_matches_reference(batch, planes, length, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=(batch, planes, length))
    gamma = rng.uniform(0.5, 1.5, planes)
    beta = rng.normal(size=planes)
    y, cache = layers.batchnorm_forward(x, gamma, beta, np.zeros(planes), np.ones(planes), "train")
    assert y.tobytes() == reference_batchnorm_forward(x, gamma, beta).tobytes()
    dy = rng.normal(size=y.shape)
    dx, _, _ = layers.batchnorm_backward(dy, cache)
    xhat, inv_std, _, _ = cache
    scale = np.abs(dy * (gamma * inv_std)[None, :, None]).max()
    assert_close_to_scale(dx, reference_batchnorm_dx(dy, xhat, inv_std, gamma), scale)
