"""Structure parsing, weight counting, forward contracts, and backward oracles."""

import json

import numpy as np
import pytest

import mibci.network as network_module
from mibci.network import (
    EVAL_BLOCK_EPOCHS,
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

from helpers import max_relative_gradient_error, numeric_gradients

TABLE7_S1 = "2,7,40 / 40,7,40 / 40,7,40 / 40,7,40 / 40,16,16"
TABLE5 = "68,9,40 / 40,9,40 / 40,9,40 / 40,9,40 / 40,9,40 / 40,8,16"
E2E_STRUCTURE = "4,5,12 / 12,5,12 / 12,5,12 / 12,5,12 / 12,16,16"


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
        out = forward(spec, params, np.random.default_rng(1).normal(size=(2, 251)))
        assert out.shape == (16,)
        assert np.all(out >= 0)

    def test_zero_input_zero_biases_zero_output(self):
        spec = parse_structure(TABLE7_S1, output_dim=16)
        params = init_params(spec, seed=0)
        out = forward(spec, params, np.zeros((2, 251)))
        assert np.array_equal(out, np.zeros(16))

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
            forward(spec, params, np.zeros((2, 64)))

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
    """Eval mode runs in blocks of EVAL_BLOCK_EPOCHS; a ``caches`` list runs
    the same stack over the whole batch at once, which is the reference.

    BLAS may pick a different kernel for a short tail block than for the
    whole batch, so a batch that spans blocks agrees to rounding only:
    at most 1.1e-16 (e2e) and 1.0e-15 (paper) measured on OpenBLAS 0.3.31.
    """

    @pytest.mark.parametrize(
        "structure, channels, length",
        [(E2E_STRUCTURE, 4, 250), (TABLE7_S1, 2, 251)],
        ids=["e2e", "paper"],
    )
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_matches_whole_batch(self, structure, channels, length, n):
        assert EVAL_BLOCK_EPOCHS == 128
        spec = parse_structure(structure, input_channels=channels, input_length=length, output_dim=16)
        params = trained_looking_params(spec, seed=n)
        x = np.random.default_rng(n).normal(size=(n, channels, length))
        whole = forward(spec, params, x, mode="eval", caches=[])
        blocked = forward(spec, params, x, mode="eval")
        assert blocked.shape == (n, 16)
        if n <= EVAL_BLOCK_EPOCHS:
            assert np.array_equal(blocked, whole)
        else:
            assert np.max(np.abs(blocked - whole)) <= 1e-12
        assert np.array_equal(forward(spec, params, x, mode="eval"), blocked)

    def test_blocks_split_at_the_block_size(self, monkeypatch):
        spec = parse_structure("3,5,8 / 8,16,16", input_length=32, output_dim=16)
        params = trained_looking_params(spec, seed=2)
        x = np.random.default_rng(3).normal(size=(2 * EVAL_BLOCK_EPOCHS + 5, 3, 32))
        batches = []
        conv = network_module.layers.conv1d_forward

        def recording_conv(x, *args):
            batches.append(len(x))
            return conv(x, *args)

        monkeypatch.setattr(network_module.layers, "conv1d_forward", recording_conv)
        out = forward(spec, params, x)
        assert batches == [128, 128, 128, 128, 5, 5]
        monkeypatch.undo()
        for start in (0, EVAL_BLOCK_EPOCHS, 2 * EVAL_BLOCK_EPOCHS):
            block = x[start : start + EVAL_BLOCK_EPOCHS]
            assert np.array_equal(out[start : start + len(block)], forward(spec, params, block))


class TestMseLoss:
    def test_equal_is_zero(self):
        v = np.arange(8.0)
        assert mse_loss(v, v) == 0.0

    def test_half_ones_target(self):
        target = np.array([1.0] * 8 + [0.0] * 8)
        assert mse_loss(np.zeros(16), target) == pytest.approx(0.5)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        direct = sum((x - y) ** 2 for x, y in zip(a, b)) / 16
        assert abs(mse_loss(a, b) - direct) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss(np.zeros(4), np.zeros(5))


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

    def test_zero_gradient_at_exact_fit(self):
        spec = parse_structure("2,5,8 / 8,8,16", input_length=16, output_dim=16, batch_norm=False, dropout_p=0.0)
        params = init_params(spec, seed=2)
        x = np.random.default_rng(3).normal(size=(3, 2, 16))
        targets = np.atleast_2d(forward(spec, params, x, mode="eval"))
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
        out = np.atleast_2d(forward(spec, params, x, mode="eval"))
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
        doc["blocks"][0][name].pop()
        with pytest.raises(ValueError, match=f"layer 1: {name} needs"):
            NetworkParams.from_json(json.dumps(doc))

    def test_missing_batchnorm_vector_rejected(self):
        doc = self._bn_doc()
        del doc["blocks"][0]["running_var"]
        with pytest.raises(ValueError, match="layer 1: running_var needs 8 values"):
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
