"""Structure parsing, weight counting, forward contracts, and backward oracles."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mibci.network as network_module
from mibci import layers
from mibci.base import BLOCK_EPOCHS
from mibci.network import (
    BlockParams,
    ConvBlockSpec,
    NetworkParams,
    NetworkSpec,
    backward,
    count_weights,
    forward,
    init_params,
    mse_loss,
    parse_structure,
    render_structure,
)

from helpers import (
    as_format_1,
    masked_eval_forward,
    max_relative_gradient_error,
    numeric_gradients,
    packed,
    unpacked,
)

TABLE7_S1 = "2,7,40 / 40,7,40 / 40,7,40 / 40,7,40 / 40,16,16"
TABLE5 = "68,9,40 / 40,9,40 / 40,9,40 / 40,9,40 / 40,9,40 / 40,8,16"
E2E_STRUCTURE = "4,5,12 / 12,5,12 / 12,5,12 / 12,5,12 / 12,16,16"
ARRAY_FIELDS = ("weight", "bias", "gamma", "beta", "running_mean", "running_var")
# +0, -0, +inf, -inf, a quiet NaN with a payload, a signalling NaN, a
# negative all-ones NaN, the smallest positive and the largest negative subnormal
SPECIAL_BITS = {
    np.float32: [0x0, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00001, 0x7F800001, 0xFFFFFFFF,
                 0x1, 0x807FFFFF],
    np.float64: [0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                 0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 0x1,
                 0x800FFFFFFFFFFFFF],
}


class TestParseStructure:
    def test_table7_s1_chain(self):
        spec = parse_structure(TABLE7_S1, input_channels=2, input_length=251, output_dim=16)
        assert len(spec.blocks) == 5
        # length chain 251 -> 126 -> 63 -> 32 -> 16, final valid conv k=16 -> 1
        assert spec.flatten_length(251) == 1
        assert spec.blocks[-1].padding == "valid"
        assert not spec.blocks[-1].pool_after
        assert all(b.padding == "same" and b.pool_after for b in spec.blocks[:-1])

    def test_table5_shape_five_pools(self):
        spec = parse_structure(TABLE5, input_channels=68, input_length=251, output_dim=16)
        # five pooled blocks: 251 -> 126 -> 63 -> 32 -> 16 -> 8; final valid k=8
        assert spec.blocks[-1].kernel_size == 8
        assert spec.flatten_length(251) == 1

    def test_broken_plane_chain(self):
        with pytest.raises(ValueError, match="chain"):
            parse_structure("2,7,40 / 60,7,40 / 40,16,16")

    def test_final_flatten_must_match_output_dim(self):
        with pytest.raises(ValueError, match="output_dim"):
            parse_structure("2,7,40 / 40,16,32", output_dim=16)

    def test_final_kernel_must_consume_remaining_length(self):
        with pytest.raises(ValueError, match="remaining length"):
            parse_structure(TABLE7_S1, input_channels=2, input_length=300, output_dim=16)

    def test_input_channel_mismatch(self):
        with pytest.raises(ValueError, match="input channels"):
            parse_structure(TABLE7_S1, input_channels=5, output_dim=16)

    def test_non_triple_rejected(self):
        with pytest.raises(ValueError, match="triple"):
            parse_structure("2,7 / 40,16,16")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            parse_structure("2,x,40 / 40,16,16")

    def test_round_trip(self):
        spec = parse_structure(TABLE7_S1, output_dim=16)
        assert render_structure(spec) == TABLE7_S1
        again = parse_structure(render_structure(spec), output_dim=16)
        assert again == spec

    def test_hidden_blocks_carry_configured_extras(self):
        spec = parse_structure(TABLE7_S1, output_dim=16, batch_norm=True, dropout_p=0.25)
        assert all(b.batch_norm and b.dropout_p == 0.25 for b in spec.blocks[:-1])
        # normalization and dropout sit between layers, not on the code output
        assert not spec.blocks[-1].batch_norm
        assert spec.blocks[-1].dropout_p == 0.0


class TestCountWeights:
    def test_table7_s1_with_classifier(self):
        spec = parse_structure(TABLE7_S1, output_dim=16)
        assert count_weights(spec, num_classes=2) == 44_432

    def test_alexnet_conv_stack(self):
        triples = [(3, 11 * 11, 96), (96, 5 * 5, 256), (256, 3 * 3, 192), (192, 3 * 3, 192), (192, 3 * 3, 128)]
        assert count_weights(triples) == 1_644_576

    def test_alexnet_fc_stack(self):
        triples = [(13 * 13 * 128, 1, 2048), (2048, 1, 2048), (2048, 1, 2)]
        assert count_weights(triples) == 48_500_736

    def test_smallest_case(self):
        assert count_weights([(1, 3, 1)], num_classes=1, output_dim=1) == 4

    def test_invariant_to_padding_and_pooling(self):
        a = parse_structure(TABLE7_S1, output_dim=16)
        blocks = tuple(
            ConvBlockSpec(b.in_planes, b.kernel_size, b.out_planes, "same", False, False, 0.0)
            for b in a.blocks
        )
        b = NetworkSpec(blocks=blocks, output_dim=16)
        assert count_weights(a, num_classes=4) == count_weights(b, num_classes=4)


class TestForward:
    def test_table7_s1_produces_code_vector(self):
        spec = parse_structure(TABLE7_S1, input_channels=2, input_length=251, output_dim=16)
        params = init_params(spec, seed=0)
        out = forward(spec, params, np.random.default_rng(1).normal(size=(1, 2, 251)))
        assert out.shape == (1, 16)
        assert np.all(out >= 0)

    def test_zero_input_zero_biases_zero_output(self):
        spec = parse_structure(TABLE7_S1, output_dim=16)
        params = init_params(spec, seed=0)
        out = forward(spec, params, np.zeros((1, 2, 251)))
        assert np.array_equal(out, np.zeros((1, 16)))

    def test_outputs_always_nonnegative(self):
        spec = parse_structure("3,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = init_params(spec, seed=3)
        x = np.random.default_rng(4).normal(size=(10, 3, 32))
        out = forward(spec, params, x)
        assert out.shape == (10, 16)
        assert np.all(out >= 0)

    def test_shape_error_names_block(self):
        spec = parse_structure("2,7,8 / 8,300,16", output_dim=16)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError, match="layer 2"):
            forward(spec, params, np.zeros((1, 2, 64)))

    def test_eval_mode_deterministic(self):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16, dropout_p=0.5)
        params = init_params(spec, seed=1)
        x = np.random.default_rng(0).normal(size=(4, 2, 32))
        assert np.array_equal(forward(spec, params, x), forward(spec, params, x))


def trained_looking_params(spec: NetworkSpec, seed: int) -> NetworkParams:
    """Random init plus non-trivial biases and batchnorm statistics."""
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for p in params.blocks:
        p.bias = rng.normal(0, 0.1, p.bias.shape)
        if p.gamma is not None:
            p.gamma = rng.uniform(0.5, 1.5, p.gamma.shape)
            p.beta = rng.normal(0, 0.2, p.beta.shape)
            p.running_mean = rng.normal(0, 0.2, p.running_mean.shape)
            p.running_var = rng.uniform(0.5, 2.0, p.running_var.shape)
    return params


class TestBlockedEval:
    """Eval mode runs in blocks of BLOCK_EPOCHS, each cast to the params dtype
    on its own; a ``caches`` list runs the same stack over the whole batch at
    once, which is the reference.

    BLAS may pick a different kernel for a short tail block, or for a single
    epoch, than for a full block, so a batch that spans blocks agrees with
    the whole-batch and per-epoch passes to rounding only: at most 7.8e-16
    and 1.1e-15 in float64 measured on OpenBLAS 0.3.31 (a few float32 ulps
    in float32). Each block alone is the bit-exact reference.
    """

    @pytest.mark.parametrize(
        "structure, channels, length",
        [(E2E_STRUCTURE, 4, 250), (TABLE7_S1, 2, 251)],
        ids=["e2e", "paper"],
    )
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100, 127, 128, 129, 300])
    def test_matches_whole_batch(self, structure, channels, length, n):
        assert BLOCK_EPOCHS == 32
        spec = parse_structure(structure, input_channels=channels, input_length=length, output_dim=16)
        params = trained_looking_params(spec, seed=n)
        x = np.random.default_rng(n).normal(size=(n, channels, length))
        whole = forward(spec, params, x, mode="eval", caches=[])
        blocked = forward(spec, params, x, mode="eval")
        assert blocked.shape == (n, 16)
        if n <= BLOCK_EPOCHS:
            assert np.array_equal(blocked, whole)
        else:
            assert np.max(np.abs(blocked - whole)) <= 1e-12
        assert np.array_equal(forward(spec, params, x, mode="eval"), blocked)

    @pytest.mark.parametrize(
        "structure, channels, length",
        [(E2E_STRUCTURE, 4, 250), (TABLE7_S1, 2, 251)],
        ids=["e2e", "paper"],
    )
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_block_and_per_epoch_passes(self, structure, channels, length, n, dtype):
        spec = parse_structure(structure, input_channels=channels, input_length=length, output_dim=16)
        params = trained_looking_params(spec, seed=n).astype(dtype)
        x = np.random.default_rng(n).normal(size=(n, channels, length))
        blocked = forward(spec, params, x)
        assert blocked.dtype == dtype
        assert np.array_equal(blocked, masked_eval_forward(spec, params, x))
        assert np.array_equal(forward(spec, params, x.astype(dtype)), blocked)
        per_epoch = np.concatenate([forward(spec, params, x[i : i + 1]) for i in range(n)])
        tolerance = 1e-12 if dtype == np.float64 else 1e-5
        assert np.max(np.abs(blocked - per_epoch)) <= tolerance

    def test_blocks_split_at_the_block_size(self, monkeypatch):
        spec = parse_structure("3,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = trained_looking_params(spec, seed=2)
        x = np.random.default_rng(3).normal(size=(2 * BLOCK_EPOCHS + 5, 3, 32))
        batches = []
        conv = network_module.layers.conv1d_forward

        def recording_conv(x, *args):
            batches.append(len(x))
            return conv(x, *args)

        monkeypatch.setattr(network_module.layers, "conv1d_forward", recording_conv)
        out = forward(spec, params, x)
        assert batches == [32, 32, 32, 32, 5, 5]
        monkeypatch.undo()
        for start in (0, BLOCK_EPOCHS, 2 * BLOCK_EPOCHS):
            block = x[start : start + BLOCK_EPOCHS]
            assert np.array_equal(out[start : start + len(block)], forward(spec, params, block))

    def test_working_set_is_one_block(self):
        """A paper-scale float32 forward over 1000 float64 epochs allocates
        at most 16 MB (8 MB measured); 128-epoch blocks after a whole-input
        cast took 33 MB."""
        spec = parse_structure(TABLE7_S1, input_channels=2, input_length=251, output_dim=16)
        params = trained_looking_params(spec, seed=1).astype(np.float32)
        x = np.random.default_rng(1).normal(size=(1000, 2, 251))
        tracemalloc.start()
        try:
            out = forward(spec, params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1000, 16)
        assert peak <= 16e6


class TestMaskFreeEval:
    """Eval mode without ``caches`` pools before its ReLU and builds no masks;
    the training stack, run over the same blocks, is the bit-exact reference."""

    @pytest.mark.parametrize(
        "structure, channels, length",
        [(E2E_STRUCTURE, 4, 250), (TABLE7_S1, 2, 251)],
        ids=["e2e", "paper"],
    )
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 127, 128, 129])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("values", ["normal", "ternary"])
    def test_matches_the_masked_stack_bit_for_bit(self, structure, channels, length, n, dtype, values):
        spec = parse_structure(
            structure, input_channels=channels, input_length=length, output_dim=16, dropout_p=0.5
        )
        params = trained_looking_params(spec, seed=n).astype(dtype)
        rng = np.random.default_rng(n)
        if values == "normal":
            x = rng.normal(size=(n, channels, length))
        else:
            # few distinct values: many equal pool pairs and exact zeros
            x = rng.integers(-1, 2, size=(n, channels, length)).astype(float)
            params.blocks[0].bias[:] = 0
        out = forward(spec, params, x)
        expected = masked_eval_forward(spec, params, x)
        assert out.dtype == expected.dtype == dtype
        assert out.tobytes() == expected.tobytes()

    def test_builds_no_masks(self, monkeypatch):
        spec = parse_structure("3,5,8 / 8,5,8 / 8,8,16", input_length=32, output_dim=16, dropout_p=0.5)
        params = trained_looking_params(spec, seed=4)
        x = np.random.default_rng(5).normal(size=(6, 3, 32))
        expected = masked_eval_forward(spec, params, x)
        expected_single = masked_eval_forward(spec, params, x[:1])

        def training_only(*args, **kwargs):
            raise AssertionError("an eval forward built a training mask")

        for name in ("relu_forward", "maxpool_forward", "dropout_forward"):
            monkeypatch.setattr(network_module.layers, name, training_only)
        assert np.array_equal(forward(spec, params, x), expected)
        assert np.array_equal(forward(spec, params, x[:1]), expected_single)


class TestMseLoss:
    def test_equal_is_zero(self):
        v = np.arange(8.0).reshape(2, 4)
        assert mse_loss(v, v) == 0.0

    def test_half_ones_target(self):
        target = np.array([[1.0] * 8 + [0.0] * 8])
        assert mse_loss(np.zeros((1, 16)), target) == pytest.approx(0.5)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 16))
        b = rng.normal(size=(3, 16))
        direct = sum((x - y) ** 2 for x, y in zip(a.ravel(), b.ravel())) / (3 * 16)
        assert abs(mse_loss(a, b) - direct) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss(np.zeros((1, 4)), np.zeros((1, 5)))

    def test_computes_in_the_input_dtype(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 16)).astype(np.float32)
        b = rng.normal(size=(4, 16)).astype(np.float32)
        diff = a - b
        assert diff.dtype == np.float32
        assert mse_loss(a, b) == float(np.mean(np.sum(diff * diff, axis=1) / 16))
        # a float64 side promotes the whole computation to float64
        assert mse_loss(a, b.astype(np.float64)) == mse_loss(a.astype(np.float64), b.astype(np.float64))


class TestBatchesOnly:
    """A single epoch is a batch of one; its bare 2-D (or 1-D output) form is refused."""

    def test_forward_rejects_a_single_epoch(self):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError, match=r"\(batch, planes, length\) batch, got shape \(2, 32\)"):
            forward(spec, params, np.zeros((2, 32)))
        with pytest.raises(ValueError, match=r"\(batch, planes, length\) batch, got shape \(2, 32\)"):
            backward(spec, params, np.zeros((2, 32)), np.zeros((1, 16)))

    def test_mse_loss_rejects_a_single_output(self):
        with pytest.raises(ValueError, match=r"\(batch, M\) outputs, got shape \(16,\)"):
            mse_loss(np.zeros(16), np.zeros(16))


class TestBackward:
    def test_composite_random_net_gradcheck(self):
        spec = NetworkSpec(
            blocks=(
                ConvBlockSpec(2, 3, 3, "same", True, True, 0.0),
                ConvBlockSpec(3, 3, 4, "same", True, False, 0.0),
                ConvBlockSpec(4, 3, 4, "valid", False, False, 0.0),
            ),
            output_dim=4,
        )
        rng = np.random.default_rng(12)
        params = init_params(spec, seed=5)
        params.blocks[0].gamma[:] = rng.uniform(0.5, 1.5, 3)
        params.blocks[0].beta[:] = rng.normal(size=3)
        params.blocks[0].running_mean[:] = 0.1 * rng.normal(size=3)
        params.blocks[0].running_var[:] = rng.uniform(0.5, 1.5, 3)
        x = rng.normal(size=(4, 2, 10))
        targets = rng.normal(size=(4, 4))
        analytic, _ = backward(spec, params, x, targets, mode="eval")
        numeric = numeric_gradients(spec, params, x, targets, mode="eval")
        assert max_relative_gradient_error(analytic, numeric) <= 1e-4

    def test_loss_is_the_mse_loss_of_its_forward(self):
        spec = parse_structure("2,5,8 / 8,8,16", input_length=16, output_dim=16, dropout_p=0.0)
        params = init_params(spec, seed=2).astype(np.float32)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2, 16))
        targets = rng.normal(size=(3, 16))
        _, loss = backward(spec, params, x, targets, mode="eval")
        assert loss == mse_loss(forward(spec, params, x, mode="eval"), targets.astype(np.float32))

    def test_zero_gradient_at_exact_fit(self):
        spec = parse_structure("2,5,8 / 8,8,16", input_length=16, output_dim=16, batch_norm=False, dropout_p=0.0)
        params = init_params(spec, seed=2)
        x = np.random.default_rng(3).normal(size=(3, 2, 16))
        targets = forward(spec, params, x, mode="eval")
        grads, loss = backward(spec, params, x, targets, mode="eval")
        assert loss <= 1e-20
        for g in grads:
            for arr in g.values():
                assert np.abs(arr).max() <= 1e-10

    def test_final_bias_gradient_equals_mean_residual_pathway(self):
        # one plane, one valid conv spanning the input: ofe = relu(w.x + b)
        spec = NetworkSpec(
            blocks=(ConvBlockSpec(1, 4, 1, "valid", False, False, 0.0),),
            output_dim=1,
        )
        params = init_params(spec, seed=9)
        params.blocks[0].bias[:] = 0.5  # keep the relu active
        rng = np.random.default_rng(10)
        x = np.abs(rng.normal(size=(6, 1, 4)))
        targets = rng.normal(size=(6, 1))
        out = forward(spec, params, x, mode="eval")
        assert np.all(out > 0)
        hand = float(np.mean(2.0 * (out - targets)))
        grads, _ = backward(spec, params, x, targets, mode="eval")
        assert grads[0]["bias"][0] == pytest.approx(hand, rel=1e-12)
        numeric = numeric_gradients(spec, params, x, targets, mode="eval")
        assert numeric[0]["bias"][0] == pytest.approx(hand, rel=1e-6)

    def test_target_shape_checked(self):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError, match="targets"):
            backward(spec, params, np.zeros((2, 2, 32)), np.zeros((2, 4)))


def _padded_reference_conv_forward(x, weight, bias, padding="same"):
    """The conv forward as it was before the single-allocation padding."""
    k = weight.shape[2]
    left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (left, k - 1 - left))) if padding == "same" else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    y = np.einsum("bplk,opk->bol", windows, weight, optimize=True)
    y += bias[None, :, None]
    return y, (windows, padding, weight)


def _padded_reference_conv_backward(dy, cache, need_dx=True):
    """The conv backward as it was before ``need_dx``: ``np.pad`` and a dx
    computed for every layer, the first one included."""
    windows, padding, weight = cache
    k = weight.shape[2]
    dw = np.einsum("bol,bplk->opk", dy, windows, optimize=True)
    db = dy.sum(axis=(0, 2))
    left = (k - 1) // 2 if padding == "same" else 0
    right = k - 1 - left if padding == "same" else 0
    dyp = np.pad(dy, ((0, 0), (0, 0), (k - 1 - left, k - 1 - right)))
    dy_windows = np.lib.stride_tricks.sliding_window_view(dyp, k, axis=2)
    dx = np.einsum("bolk,opk->bpl", dy_windows, weight[:, :, ::-1], optimize=True)
    return dx, dw, db


class TestBackwardMatchesPaddedReference:
    @pytest.mark.parametrize(
        "structure, channels, length, batch, dropout",
        [(E2E_STRUCTURE, 4, 250, 16, 0.0), (E2E_STRUCTURE, 4, 250, 16, 0.3), (TABLE7_S1, 2, 251, 8, 0.5)],
    )
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_float64_gradients_bit_identical(self, monkeypatch, structure, channels, length, batch, dropout, mode):
        spec = parse_structure(structure, input_channels=channels, input_length=length, output_dim=16,
                               dropout_p=dropout)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(batch, channels, length))
        targets = rng.integers(0, 2, size=(batch, 16)).astype(float)

        def run():
            params = trained_looking_params(spec, seed=6)
            return backward(spec, params, x, targets, mode=mode, rng=np.random.default_rng(8))

        grads, loss = run()
        with monkeypatch.context() as m:
            m.setattr(network_module.layers, "conv1d_forward", _padded_reference_conv_forward)
            m.setattr(network_module.layers, "conv1d_backward", _padded_reference_conv_backward)
            ref_grads, ref_loss = run()
        assert loss == ref_loss
        for got, want in zip(grads, ref_grads):
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].dtype == np.float64
                assert np.array_equal(got[name], want[name]), name

    def test_first_layer_input_gradient_is_not_computed(self, monkeypatch):
        spec = parse_structure(E2E_STRUCTURE, input_channels=4, input_length=250, output_dim=16,
                               dropout_p=0.0)
        seen = []
        real = network_module.layers.conv1d_backward

        def spy(dy, cache, need_dx=True):
            seen.append(need_dx)
            return real(dy, cache, need_dx)

        monkeypatch.setattr(network_module.layers, "conv1d_backward", spy)
        x = np.random.default_rng(0).normal(size=(4, 4, 250))
        backward(spec, init_params(spec, seed=0), x, np.zeros((4, 16)), mode="train")
        assert seen == [True, True, True, True, False]  # last entry is block 1


def _conv_layer_cases():
    """Every conv layer of the e2e net at the ``nts_a_fixture`` batch and of
    the paper net at the training batch, plus a valid conv longer than one
    output: (batch, in_planes, kernel, out_planes, padding, length)."""
    cases = []
    for structure, channels, length, batch in ((E2E_STRUCTURE, 4, 250, 64), (TABLE7_S1, 2, 251, 32)):
        spec = parse_structure(structure, input_channels=channels, input_length=length, output_dim=16)
        for b in spec.blocks:
            cases.append((batch, b.in_planes, b.kernel_size, b.out_planes, b.padding, length))
            length = b.out_length(length)
    cases.append((64, 12, 5, 12, "valid", 63))
    return cases


class TestConvMatchesEinsumReference:
    """The conv layers multiply the matrices that ``np.einsum(...,
    optimize=True)`` plans for the same contractions, so they match the einsum
    reference bit for bit in both dtypes, whatever the input's layout."""

    @pytest.mark.parametrize("batch, in_planes, k, out_planes, padding, length", _conv_layer_cases())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_bit_identical(self, batch, in_planes, k, out_planes, padding, length, dtype, layout):
        rng = np.random.default_rng(length * k + in_planes)
        if layout == "contiguous":
            x = rng.normal(size=(batch, in_planes, length)).astype(dtype)
        else:  # the strides of a conv output that skips batchnorm
            x = rng.normal(size=(in_planes, batch, length)).astype(dtype).transpose(1, 0, 2)
        weight = rng.normal(size=(out_planes, in_planes, k)).astype(dtype)
        bias = rng.normal(size=out_planes).astype(dtype)
        y, cache = layers.conv1d_forward(x, weight, bias, padding)
        ref_y, ref_cache = _padded_reference_conv_forward(x, weight, bias, padding)
        assert y.dtype == dtype and y.shape == ref_y.shape
        assert np.array_equal(y, ref_y)
        assert cache[1:] == (padding, weight)
        dy = rng.normal(size=y.shape).astype(dtype)
        ref = _padded_reference_conv_backward(dy, ref_cache)
        for need_dx in (True, False):
            dx, dw, db = layers.conv1d_backward(dy, cache, need_dx=need_dx)
            assert dw.dtype == db.dtype == dtype
            assert np.array_equal(dw, ref[1]) and np.array_equal(db, ref[2])
            if need_dx:
                assert dx.dtype == dtype and dx.shape == x.shape
                assert np.array_equal(dx, ref[0])
            else:
                assert dx is None


def _stage_order(monkeypatch, spec, mode):
    """The layer functions one backward call runs, in call order."""
    calls = []
    for name in ("relu_forward", "relu_backward", "dropout_forward", "dropout_backward",
                 "maxpool_forward", "maxpool_backward"):
        real = getattr(network_module.layers, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(network_module.layers, name, spy)
    x = np.random.default_rng(0).normal(size=(4, 3, 16))
    backward(spec, init_params(spec, seed=0), x, np.zeros((4, 16)), mode=mode,
             rng=np.random.default_rng(1))
    monkeypatch.undo()
    return calls


class TestPoolBeforeRelu:
    """A block without dropout pools before its ReLU in training, which gives
    the outputs and gradients of ReLU then pool bit for bit; a block with
    dropout keeps ReLU -> dropout -> pool, since dropout does not commute
    with the pool."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_dropout_free_blocks_pool_first(self, monkeypatch, mode):
        spec = parse_structure("3,3,4 / 4,8,16", input_length=16, output_dim=16, dropout_p=0.0)
        assert _stage_order(monkeypatch, spec, mode) == [
            "maxpool_forward", "relu_forward",  # block 1
            "relu_forward",  # block 2: no pool
            "dropout_backward", "relu_backward",
            "dropout_backward", "relu_backward", "maxpool_backward",
        ]

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_blocks_with_dropout_keep_relu_dropout_pool(self, monkeypatch, mode):
        spec = parse_structure("3,3,4 / 4,8,16", input_length=16, output_dim=16, dropout_p=0.5)
        assert _stage_order(monkeypatch, spec, mode) == [
            "relu_forward", "dropout_forward", "maxpool_forward",  # block 1
            "relu_forward",  # block 2: no dropout, no pool
            "dropout_backward", "relu_backward",
            "maxpool_backward", "dropout_backward", "relu_backward",
        ]

    @pytest.mark.parametrize(
        "structure, channels, length",
        [(E2E_STRUCTURE, 4, 250), (TABLE7_S1, 2, 251), ("3,3,4 / 4,3,4 / 4,4,16", 3, 13)],
        ids=["e2e", "paper", "odd"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", ["normal", "ternary"])
    def test_matches_relu_then_pool_bit_for_bit(self, monkeypatch, structure, channels, length, dtype, values):
        """The reference runs the same blocks ReLU -> pool: a dropout block
        whose dropout is the identity."""
        rng = np.random.default_rng(length)
        if values == "normal":
            x = rng.normal(size=(8, channels, length))
        else:  # many equal pool pairs, exact zeros and negative zeros
            x = rng.integers(-1, 2, size=(8, channels, length)) * 1.0
            x[rng.random(x.shape) < 0.3] = -0.0
        targets = rng.integers(0, 2, size=(8, 16)).astype(float)

        def run(dropout_p):
            spec = parse_structure(structure, input_channels=channels, input_length=length,
                                   output_dim=16, dropout_p=dropout_p)
            params = trained_looking_params(spec, seed=3).astype(dtype)
            if values == "ternary":
                for p in params.blocks:
                    p.bias[:] = 0
            return backward(spec, params, x, targets, mode="train", rng=np.random.default_rng(5))

        grads, loss = run(0.0)
        monkeypatch.setattr(network_module.layers, "dropout_forward", lambda x, *args: (x, None))
        ref_grads, ref_loss = run(0.5)
        assert loss == ref_loss
        uint = np.uint32 if dtype == np.float32 else np.uint64
        for got, want in zip(grads, ref_grads):
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].dtype == dtype
                assert np.array_equal(got[name].view(uint), want[name].view(uint)), name


class TestTrainingWorkingSet:
    def test_paper_scale_float32_step(self):
        """One paper-scale float32 training step at batch 32 allocates at
        most 12 MB: 11.4 MB measured before the conv dropped einsum, and 11.1
        MB after, with numpy 2.4 on OpenBLAS 0.3.31. Keeping the window matrix
        alive across the dx product took 15.9 MB."""
        spec = parse_structure(TABLE7_S1, input_channels=2, input_length=251, output_dim=16,
                               dropout_p=0.0)
        params = trained_looking_params(spec, seed=1).astype(np.float32)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 2, 251)).astype(np.float32)
        targets = rng.integers(0, 2, size=(32, 16)).astype(np.float32)
        backward(spec, params, x, targets, mode="train")  # warm-up
        tracemalloc.start()
        try:
            backward(spec, params, x, targets, mode="train")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 11.4e6


class TestComputeDtype:
    def test_float32_params_compute_in_float32(self):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16, dropout_p=0.5)
        assert init_params(spec, seed=3).dtype == np.float64
        params = trained_looking_params(spec, seed=3).astype(np.float32)
        assert params.dtype == np.float32
        x = np.random.default_rng(1).normal(size=(5, 2, 32))  # float64 input is cast
        assert forward(spec, params, x).dtype == np.float32
        assert forward(spec, params, x[:1]).dtype == np.float32
        grads, loss = backward(spec, params, x, np.ones((5, 16)), mode="train",
                               rng=np.random.default_rng(2))
        assert np.isfinite(loss)
        for g in grads:
            assert all(arr.dtype == np.float32 for arr in g.values())


class TestParamsSerialization:
    def test_json_round_trip(self):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = init_params(spec, seed=42)
        spec2, params2 = NetworkParams.from_json(params.to_json(spec))
        assert spec2 == spec
        assert params2.init_seed == params.init_seed
        for a, b in zip(params.blocks, params2.blocks):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
            if a.gamma is not None:
                assert np.array_equal(a.gamma, b.gamma)
                assert np.array_equal(a.running_var, b.running_var)

    @staticmethod
    def _bn_doc() -> dict:
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16)
        return json.loads(init_params(spec, seed=0).to_json(spec))

    def test_fewer_blocks_than_structure_rows(self):
        doc = self._bn_doc()
        doc["blocks"].pop()
        with pytest.raises(ValueError, match="2 layers but the document has 1 blocks"):
            NetworkParams.from_json(json.dumps(doc))

    def test_more_blocks_than_structure_rows(self):
        doc = self._bn_doc()
        doc["blocks"].append(doc["blocks"][-1])
        with pytest.raises(ValueError, match="2 layers but the document has 3 blocks"):
            NetworkParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["weight", "bias", "gamma", "beta", "running_mean", "running_var"])
    def test_vector_length_checked(self, name):
        doc = self._bn_doc()
        doc["blocks"][0][name] = packed(unpacked(doc["blocks"][0][name], "float64")[:-1])
        with pytest.raises(ValueError, match=f"layer 1: {name} needs"):
            NetworkParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["weight", "bias", "gamma", "beta", "running_mean", "running_var"])
    def test_format_1_vector_length_checked(self, name):
        doc = as_format_1(self._bn_doc())
        doc["blocks"][0][name].pop()
        with pytest.raises(ValueError, match=f"layer 1: {name} needs"):
            NetworkParams.from_json(json.dumps(doc))

    def test_missing_batchnorm_vector_rejected(self):
        doc = self._bn_doc()
        del doc["blocks"][0]["running_var"]
        with pytest.raises(ValueError, match="network document layer 1: missing field 'running_var'"):
            NetworkParams.from_json(json.dumps(doc))

    def test_non_triple_structure_row_rejected(self):
        doc = self._bn_doc()
        doc["structure"] = "2,5 / 8,16,16"
        with pytest.raises(ValueError, match="layer 1 is not an in,kernel,out triple"):
            NetworkParams.from_json(json.dumps(doc))

    def test_newline_separated_structure_accepted(self):
        doc = self._bn_doc()
        doc["structure"] = "2,5,8\n8,16,16"
        spec, _ = NetworkParams.from_json(json.dumps(doc))
        assert render_structure(spec) == "2,5,8 / 8,16,16"

    def test_float32_round_trip_predicts_identically(self):
        spec = parse_structure(TABLE7_S1, input_channels=2, input_length=251, output_dim=16)
        params = trained_looking_params(spec, seed=11).astype(np.float32)
        text = params.to_json(spec)
        assert json.loads(text)["dtype"] == "float32"
        spec2, params2 = NetworkParams.from_json(text)
        assert params2.dtype == np.float32
        x = np.random.default_rng(12).normal(size=(40, 2, 251))
        assert np.array_equal(forward(spec2, params2, x), forward(spec, params, x))

    def test_document_without_dtype_loads_as_float64(self):
        doc = self._bn_doc()
        assert doc.pop("dtype") == "float64"
        spec, params = NetworkParams.from_json(json.dumps(doc))
        assert params.dtype == np.float64
        assert all(
            arr.dtype == np.float64
            for bp in params.blocks
            for arr in (bp.weight, bp.bias, bp.gamma, bp.beta, bp.running_mean, bp.running_var)
            if arr is not None
        )
        x = np.random.default_rng(0).normal(size=(3, 2, 32))
        assert np.array_equal(forward(spec, params, x), forward(spec, init_params(spec, seed=0), x))

    def test_unknown_dtype_rejected(self):
        doc = self._bn_doc()
        doc["dtype"] = "float16"
        with pytest.raises(ValueError, match="field 'dtype' is 'float16'"):
            NetworkParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["structure", "blocks", "output_dim"])
    def test_missing_top_level_field_named(self, name):
        doc = self._bn_doc()
        del doc[name]
        with pytest.raises(ValueError, match=f"network document: missing field '{name}'"):
            NetworkParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["batch_norm", "dropout_p"])
    def test_missing_block_field_named(self, name):
        # the hidden blocks' settings are held once, at the top of the document
        doc = self._bn_doc()
        del doc[name]
        with pytest.raises(ValueError, match=f"network document: missing field '{name}'"):
            NetworkParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("batch_norm", [True, False])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.5])
    def test_written_document_holds_no_per_block_layout_key(self, batch_norm, dropout_p):
        spec = parse_structure("2,5,8 / 8,5,8 / 8,8,16", input_length=32, output_dim=16,
                               batch_norm=batch_norm, dropout_p=dropout_p)
        doc = init_params(spec, seed=0).to_doc(spec)
        assert list(doc) == ["format", "structure", "output_dim", "batch_norm", "dropout_p",
                             "init_seed", "dtype", "blocks"]
        assert (doc["batch_norm"], doc["dropout_p"]) == (batch_norm, dropout_p)
        arrays = ["weight", "bias", "gamma", "beta", "running_mean", "running_var"]
        hidden = arrays if batch_norm else arrays[:2]
        assert [list(entry) for entry in doc["blocks"]] == [hidden, hidden, arrays[:2]]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch_norm", [True, False])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.5])
    def test_round_trip_rebuilds_the_spec_and_the_bytes(self, dtype, batch_norm, dropout_p):
        spec = parse_structure(TABLE7_S1, input_channels=2, input_length=251, output_dim=16,
                               batch_norm=batch_norm, dropout_p=dropout_p)
        params = trained_looking_params(spec, seed=8).astype(dtype)
        spec2, params2 = NetworkParams.from_json(params.to_json(spec))
        assert spec2 == spec
        for a, b in zip(params.blocks, params2.blocks, strict=True):
            for name in ("weight", "bias", "gamma", "beta", "running_mean", "running_var"):
                va, vb = getattr(a, name), getattr(b, name)
                assert (va is None) == (vb is None)
                if va is not None:
                    assert vb.dtype == dtype and vb.shape == va.shape
                    assert va.tobytes() == vb.tobytes()

    @pytest.mark.parametrize(
        "blocks, output_dim",
        [
            # a hidden block valid-padded, or not pooled
            ((ConvBlockSpec(2, 5, 8, padding="valid"), ConvBlockSpec(8, 12, 16, "valid", False, False, 0.0)), 16),
            ((ConvBlockSpec(2, 5, 8, pool_after=False), ConvBlockSpec(8, 32, 16, "valid", False, False, 0.0)), 16),
            # the last block same-padded, pooled, with batchnorm or dropout
            ((ConvBlockSpec(2, 5, 8), ConvBlockSpec(8, 16, 16, "same", False, False, 0.0)), 256),
            ((ConvBlockSpec(2, 5, 8), ConvBlockSpec(8, 16, 16, "valid", True, False, 0.0)), 16),
            ((ConvBlockSpec(2, 5, 8), ConvBlockSpec(8, 16, 16, "valid", False, True, 0.0)), 16),
            ((ConvBlockSpec(2, 5, 8), ConvBlockSpec(8, 16, 16, "valid", False, False, 0.5)), 16),
            # hidden blocks that disagree on batchnorm or dropout
            ((ConvBlockSpec(2, 5, 8), ConvBlockSpec(8, 5, 8, batch_norm=False),
              ConvBlockSpec(8, 8, 16, "valid", False, False, 0.0)), 16),
            ((ConvBlockSpec(2, 5, 8, dropout_p=0.2), ConvBlockSpec(8, 5, 8, dropout_p=0.5),
              ConvBlockSpec(8, 8, 16, "valid", False, False, 0.0)), 16),
            # a final length above 1, so the flatten is not the last plane count
            ((ConvBlockSpec(2, 5, 8), ConvBlockSpec(8, 8, 4, "valid", False, False, 0.0)), 36),
        ],
    )
    def test_to_doc_refuses_a_spec_outside_the_table_layout(self, blocks, output_dim):
        spec = NetworkSpec(blocks=blocks, output_dim=output_dim)
        with pytest.raises(ValueError, match="only a spec in the structure-table layout"):
            init_params(spec, seed=0).to_doc(spec)

    def test_per_block_document_loads_with_its_first_blocks_settings(self):
        spec = parse_structure("2,5,8 / 8,5,8 / 8,8,16", input_length=32, output_dim=16,
                               dropout_p=0.25)
        params = trained_looking_params(spec, seed=4)
        doc = params.to_doc(spec)
        # the layout that documents held before the settings moved to the top
        for name in ("batch_norm", "dropout_p"):
            del doc[name]
        for block, entry in zip(spec.blocks, doc["blocks"]):
            entry.update(padding=block.padding, pool_after=block.pool_after,
                         batch_norm=block.batch_norm, dropout_p=block.dropout_p)
        spec2, params2 = NetworkParams.from_doc(doc)
        assert spec2 == spec
        x = np.random.default_rng(5).normal(size=(4, 2, 32))
        assert np.array_equal(forward(spec2, params2, x), forward(spec, params, x))
        # the structure governs every other per-block key
        doc["blocks"][1].update(padding="valid", pool_after=False, batch_norm=False, dropout_p=0.9)
        assert NetworkParams.from_doc(doc)[0] == spec
        del doc["blocks"][0]["dropout_p"]
        with pytest.raises(ValueError, match="network document layer 1: missing field 'dropout_p'"):
            NetworkParams.from_doc(doc)
        del doc["blocks"][0]["batch_norm"]
        with pytest.raises(ValueError, match="network document: missing field 'batch_norm'"):
            NetworkParams.from_doc(doc)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_packed_arrays_round_trip_every_bit_pattern(self, dtype, data):
        spec = parse_structure("1,2,2 / 2,2,2", output_dim=2)
        params = init_params(spec, seed=0).astype(dtype)
        width = 8 * np.dtype(dtype).itemsize
        bits = st.one_of(st.sampled_from(SPECIAL_BITS[dtype]), st.integers(0, 2**width - 1))
        for block in params.blocks:
            for name in ARRAY_FIELDS:
                if (a := getattr(block, name)) is not None:
                    drawn = data.draw(st.lists(bits, min_size=a.size, max_size=a.size))
                    setattr(block, name, np.array(drawn, dtype=f"uint{width}").view(dtype).reshape(a.shape))
        doc = params.to_doc(spec)
        assert doc["format"] == 2
        spec2, params2 = NetworkParams.from_doc(json.loads(json.dumps(doc)))
        assert spec2 == spec
        for a, b in zip(params.blocks, params2.blocks, strict=True):
            for name in ARRAY_FIELDS:
                va, vb = getattr(a, name), getattr(b, name)
                assert (va is None) == (vb is None)
                if va is not None:
                    assert vb.dtype == dtype and vb.shape == va.shape and vb.flags.writeable
                    assert va.tobytes() == vb.tobytes()

    def test_written_arrays_are_little_endian_base64(self):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = trained_looking_params(spec, seed=3).astype(np.float32)
        doc = params.to_doc(spec)
        for block, entry in zip(params.blocks, doc["blocks"], strict=True):
            for name, text in entry.items():
                assert text == packed(getattr(block, name).ravel())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_format_1_document_loads(self, dtype):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = trained_looking_params(spec, seed=9).astype(dtype)
        doc = as_format_1(params.to_doc(spec))
        assert "format" not in doc and isinstance(doc["blocks"][0]["weight"], list)
        spec2, params2 = NetworkParams.from_json(json.dumps(doc))
        assert spec2 == spec
        for a, b in zip(params.blocks, params2.blocks, strict=True):
            for name in ARRAY_FIELDS:
                va, vb = getattr(a, name), getattr(b, name)
                assert (va is None and vb is None) or va.tobytes() == vb.tobytes()
        doc["format"] = 1
        assert NetworkParams.from_doc(doc)[0] == spec

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc, e: e.update(bias="@@@@"), "layer 2: bias is not valid base64"),
            (lambda doc, e: e.update(bias=e["bias"] + "="), "layer 2: bias is not valid base64"),
            (lambda doc, e: e.update(bias="\u00e9" * 4), "layer 2: bias is not valid base64"),
            (lambda doc, e: e.update(weight=e["weight"][:-4]),
             r"layer 2: weight needs 2048 values \(16384 bytes of float64\), got 16383 bytes"),
            (lambda doc, e: e.update(bias=packed(np.zeros(16, dtype=np.float32))),
             r"layer 2: bias needs 16 values \(128 bytes of float64\), got 64 bytes"),
            (lambda doc, e: e.update(bias=[0.0] * 16),
             "network document layer 2: field 'bias' must be a string, got list"),
            (lambda doc, e: doc.pop("format"),
             "network document layer 1: field 'weight' must be a list, got str"),
            (lambda doc, e: doc.update(format=3), "network document: field 'format' is 3, expected 1 or 2"),
            (lambda doc, e: doc.update(format="2"), "network document: field 'format' must be an integer, got str"),
            (lambda doc, e: doc.update(format=True), "network document: field 'format' must be an integer, got bool"),
            (lambda doc, e: doc.update(format=2.0), "network document: field 'format' must be an integer, got float"),
        ],
        ids=["not-base64", "extra-padding", "non-ascii", "short-bytes", "float32-bytes", "list-in-format-2",
             "string-in-format-1", "format-3", "format-string", "format-bool", "format-float"],
    )
    def test_malformed_packed_array_named(self, edit, message):
        doc = self._bn_doc()
        edit(doc, doc["blocks"][1])
        with pytest.raises(ValueError, match=message):
            NetworkParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", ["abc", True, 1.5, None], ids=["string", "bool", "float", "null"])
    def test_init_seed_that_is_not_an_integer_rejected(self, value):
        doc = self._bn_doc()
        doc["init_seed"] = value
        with pytest.raises(ValueError, match="network document: field 'init_seed' must be an integer, got "):
            NetworkParams.from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [None, True, "0.5"], ids=["null", "true", "string"])
    def test_format_1_entry_that_is_not_a_number_rejected(self, value):
        doc = as_format_1(self._bn_doc())
        doc["blocks"][1]["bias"][3] = value
        with pytest.raises(ValueError, match="layer 2: bias: entry 3 is .*, not a number"):
            NetworkParams.from_json(json.dumps(doc))

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object, got list"):
            NetworkParams.from_json("[]")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch_norm", [True, False])
    def test_from_doc_equals_from_json(self, dtype, batch_norm):
        spec = parse_structure("2,5,8 / 8,16,16", input_length=32, output_dim=16, batch_norm=batch_norm)
        params = trained_looking_params(spec, seed=6).astype(dtype)
        doc = params.to_doc(spec)
        assert params.to_json(spec) == json.dumps(doc)
        spec_a, params_a = NetworkParams.from_doc(doc)
        spec_b, params_b = NetworkParams.from_json(json.dumps(doc))
        assert spec_a == spec_b == spec
        assert params_a.init_seed == params_b.init_seed == params.init_seed
        for a, b in zip(params_a.blocks, params_b.blocks):
            for name in ("weight", "bias", "gamma", "beta", "running_mean", "running_var"):
                va, vb = getattr(a, name), getattr(b, name)
                assert (va is None) == (vb is None)
                if va is not None:
                    assert va.dtype == vb.dtype == dtype
                    assert va.tobytes() == vb.tobytes()

    @pytest.mark.parametrize("value", [5, None, ["2,5,8", "8,16,16"]])
    def test_non_string_structure_named(self, value):
        doc = self._bn_doc()
        doc["structure"] = value
        with pytest.raises(ValueError, match="network document: field 'structure' must be a string"):
            NetworkParams.from_doc(doc)

    @pytest.mark.parametrize("value", [5, "blocks", {"0": {}}])
    def test_non_list_blocks_named(self, value):
        doc = self._bn_doc()
        doc["blocks"] = value
        with pytest.raises(ValueError, match="network document: field 'blocks' must be a list, got "):
            NetworkParams.from_doc(doc)

    def test_non_object_block_named(self):
        doc = self._bn_doc()
        doc["blocks"][1] = 7
        with pytest.raises(ValueError, match="network document layer 2 must be a JSON object, got int"):
            NetworkParams.from_doc(doc)

    def test_copy_is_deep(self):
        spec = parse_structure("1,3,4 / 4,8,8", input_length=16, output_dim=8)
        params = init_params(spec, seed=0)
        clone = params.copy()
        clone.blocks[0].weight[0, 0, 0] += 1.0
        assert params.blocks[0].weight[0, 0, 0] != clone.blocks[0].weight[0, 0, 0]


def test_block_params_trainable_names():
    bp = BlockParams(weight=np.zeros((1, 1, 1)), bias=np.zeros(1))
    assert bp.trainable() == ["weight", "bias"]
    bp.gamma = np.ones(1)
    bp.beta = np.zeros(1)
    assert bp.trainable() == ["weight", "bias", "gamma", "beta"]
