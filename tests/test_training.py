"""The training loop: stopping rules, determinism, and learning sanity."""

import re

import numpy as np
import pytest

import mibci.training as training_module
from mibci.network import parse_structure
from mibci.synthetic import SyntheticSpec, generate_synthetic
from mibci.training import TrainConfig, TrainingDivergedError, TrainReport, train
from mibci.walsh import WalshCodebook

SMALL_STRUCTURE = "2,5,8 / 8,16,16"


def small_problem(n_per_class=8, seed=0):
    spec = SyntheticSpec(
        num_classes=2,
        epochs_per_class=n_per_class,
        channels=2,
        samples=32,
        sampling_rate=64.0,
        mu_hz=10.0,
        beta_hz=20.0,
        noise_sd=0.3,
        default_gain=2.0,
        seed=seed,
    )
    dataset = generate_synthetic(spec)
    X = dataset.to_array()
    y = dataset.labels
    val_mask = np.zeros(len(y), dtype=bool)
    val_mask[:: 4] = True
    return (X[~val_mask], y[~val_mask]), (X[val_mask], y[val_mask])


def small_spec(dropout=0.0, batch_norm=True):
    return parse_structure(
        SMALL_STRUCTURE, input_channels=2, input_length=32, output_dim=16,
        batch_norm=batch_norm, dropout_p=dropout,
    )


def test_patience_one_with_constant_validation_loss_stops_at_two():
    # zero inputs pin every output at the relu dead zone: no gradients, no
    # improvement after the first pass, so patience=1 fires at iteration 2
    spec = small_spec(batch_norm=False)
    codebook = WalshCodebook(2, 16)
    X = np.zeros((8, 2, 32))
    y = np.array([1, 2] * 4)
    cfg = TrainConfig(max_iterations=50, patience=1, batch_size=4, seed=0)
    _, report = train(spec, (X, y), (X[:4], y[:4]), codebook, cfg)
    assert report.stopped_at == 2
    assert report.stop_reason == "patience"
    assert len(report.train_loss) == 2
    assert len(report.validation_loss) == 2
    assert report.validation_loss[0] == report.validation_loss[1]


def test_max_iterations_stop_reason():
    train_data, val_data = small_problem()
    cfg = TrainConfig(max_iterations=3, patience=10, batch_size=8, seed=1)
    _, report = train(small_spec(), train_data, val_data, WalshCodebook(2, 16), cfg)
    assert report.stopped_at == 3
    assert report.stop_reason == "max_iterations"
    assert len(report.validation_accuracy) == 3


def test_bit_identical_given_same_seed():
    train_data, val_data = small_problem()
    cfg = TrainConfig(max_iterations=4, patience=10, batch_size=8, seed=7)
    codebook = WalshCodebook(2, 16)
    params_a, report_a = train(small_spec(dropout=0.3), train_data, val_data, codebook, cfg)
    params_b, report_b = train(small_spec(dropout=0.3), train_data, val_data, codebook, cfg)
    assert report_a.to_dict() == report_b.to_dict()
    for a, b in zip(params_a.blocks, params_b.blocks):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
    _, report_c = train(
        small_spec(dropout=0.3), train_data, val_data, codebook,
        TrainConfig(max_iterations=4, patience=10, batch_size=8, seed=8),
    )
    assert report_c.to_dict() != report_a.to_dict()


def test_learns_separable_problem():
    train_data, val_data = small_problem(n_per_class=16)
    cfg = TrainConfig(learning_rate=3e-3, max_iterations=40, patience=40, batch_size=16, seed=3)
    params, report = train(small_spec(), train_data, val_data, WalshCodebook(2, 16), cfg)
    assert max(report.validation_accuracy) >= 0.9
    assert report.best_validation_loss < report.validation_loss[0]


def test_divergence_fields_populated():
    train_data, val_data = small_problem()
    cfg = TrainConfig(max_iterations=5, patience=5, batch_size=8, seed=2)
    _, report = train(small_spec(), train_data, val_data, WalshCodebook(2, 16), cfg)
    assert report.initial_divergence is not None and report.initial_divergence >= 0
    assert report.final_divergence is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_loss_raises_with_iteration():
    train_data, val_data = small_problem()
    cfg = TrainConfig(learning_rate=1e150, max_iterations=10, patience=10, batch_size=8, seed=0)
    with pytest.raises(TrainingDivergedError, match="iteration"):
        train(small_spec(batch_norm=False), train_data, val_data, WalshCodebook(2, 16), cfg)


def test_output_dim_must_match_code_size():
    train_data, val_data = small_problem()
    with pytest.raises(ValueError, match="code size"):
        train(small_spec(), train_data, val_data, WalshCodebook(2, 32), TrainConfig())


@pytest.mark.parametrize("bad_label", [0, 3])
@pytest.mark.parametrize("where", ["train", "validation"])
def test_label_without_a_code_row_rejected(bad_label, where):
    # a two-class codebook has rows for labels 1 and 2 only
    (X, y), (X_val, y_val) = small_problem()
    y, y_val = y.copy(), y_val.copy()
    (y if where == "train" else y_val)[1] = bad_label
    with pytest.raises(ValueError, match=f"label {bad_label} has no assigned code row"):
        train(small_spec(), (X, y), (X_val, y_val), WalshCodebook(2, 16), TrainConfig(max_iterations=1))


def test_best_loss_bookkeeping_is_running_minimum():
    train_data, val_data = small_problem(n_per_class=10)
    cfg = TrainConfig(learning_rate=3e-3, max_iterations=15, patience=15, batch_size=8, seed=4)
    _, report = train(small_spec(), train_data, val_data, WalshCodebook(2, 16), cfg)
    assert report.best_validation_loss == min(report.validation_loss)
    assert report.validation_loss[report.best_iteration - 1] == report.best_validation_loss


def test_returns_best_iteration_parameters():
    train_data, val_data = small_problem(n_per_class=12)
    cfg = TrainConfig(learning_rate=3e-3, max_iterations=25, patience=25, batch_size=8, seed=5)
    codebook = WalshCodebook(2, 16)
    params, report = train(small_spec(), train_data, val_data, codebook, cfg)
    from mibci.network import forward, mse_loss

    targets = codebook.targets[val_data[1] - 1]
    loss = mse_loss(forward(small_spec(), params, val_data[0]), targets)
    assert loss == pytest.approx(report.best_validation_loss, rel=1e-9)


def test_training_computes_in_float32(monkeypatch):
    import mibci.network as network_module
    import mibci.training as training_module

    optimizers, masks, outputs = [], [], []

    class SpyAdam(training_module._Adam):
        def __init__(self, arrays, cfg):
            super().__init__(arrays, cfg)
            optimizers.append(self)

    real_dropout = network_module.layers.dropout_forward
    real_stack = network_module._forward_stack

    def spy_dropout(x, p, mode="train", rng=None):
        y, mask = real_dropout(x, p, mode, rng)
        masks.append(mask)
        return y, mask

    def spy_stack(*args):
        out = real_stack(*args)
        outputs.append(out)
        return out

    monkeypatch.setattr(training_module, "_Adam", SpyAdam)
    monkeypatch.setattr(network_module.layers, "dropout_forward", spy_dropout)
    monkeypatch.setattr(network_module, "_forward_stack", spy_stack)

    train_data, val_data = small_problem()
    cfg = TrainConfig(max_iterations=3, patience=3, batch_size=4, seed=2)
    codebook = WalshCodebook(2, 16)
    params, report = train(small_spec(dropout=0.3), train_data, val_data, codebook, cfg)

    assert report.stopped_at == 3
    (adam,) = optimizers
    assert adam.t == 3 * 3  # 12 training epochs in batches of 4, three passes
    for arr in adam.arrays + adam.m + adam.v:
        assert arr.dtype == np.float32
    train_masks = [mask for mask in masks if mask is not None]  # eval passes draw none
    assert len(train_masks) == 9
    assert all(mask.dtype == np.float32 for mask in train_masks)
    # backward's recorded pass (one per step), then one block each: validation
    # (one per pass) and two divergences
    assert len(outputs) == 9 + 3 + 2
    assert all(out.dtype == np.float32 for out in outputs)
    assert params.dtype == np.float32
    bn = params.blocks[0]
    for arr in (bn.weight, bn.bias, bn.gamma, bn.beta, bn.running_mean, bn.running_var):
        assert arr.dtype == np.float32
    assert not np.array_equal(bn.running_mean, np.zeros_like(bn.running_mean))
    assert not np.array_equal(bn.running_var, np.ones_like(bn.running_var))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


def test_report_to_dict_round_trips_series():
    report = TrainReport(train_loss=[1.0], validation_loss=[2.0], validation_accuracy=[0.5])
    doc = report.to_dict()
    assert doc["train_loss"] == [1.0]
    assert doc["validation_accuracy"] == [0.5]


@pytest.mark.parametrize(
    "partition, cut, message",
    [
        ("train", slice(None, -2), "training data has 12 epochs but 10 labels"),
        ("val", slice(None, -1), "validation data has 4 epochs but 3 labels"),
    ],
)
def test_misaligned_labels_rejected_before_any_step(monkeypatch, partition, cut, message):
    def no_step(*args, **kwargs):
        raise AssertionError("backward ran on misaligned data")

    monkeypatch.setattr(training_module, "backward", no_step)
    (X, y), (X_val, y_val) = small_problem()
    if partition == "train":
        y = y[cut]
    else:
        y_val = y_val[cut]
    with pytest.raises(ValueError, match=message):
        train(small_spec(), (X, y), (X_val, y_val), WalshCodebook(2, 16), TrainConfig(max_iterations=1))


@pytest.mark.parametrize("field", ["batch_size", "max_iterations", "patience"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_integer_knobs_refuse_other_types(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        TrainConfig(**{field: value})
