"""CLI subcommands, output files, and exit codes."""

import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import mibci.bandpass as bandpass_module
import mibci.base as base_module
import mibci.cli as cli_module
import mibci.io as io_module
import mibci.mdn as mdn_module
from mibci.augment import AugmentConfig
from mibci.bandpass import FilterBankSpec
from mibci.cli import cli, main
from mibci.epochs import EpochSet, SplitSpec
from mibci.experiment import ExperimentPlan, MatrixReport
from mibci.io import EpochFormatError, load_epochs, save_epochs
from mibci.mdn import MetaScheme, SchemeMember
from mibci.network import ConvBlockSpec, init_params, parse_structure
from mibci.stats import paired_ttest
from mibci.synthetic import SyntheticSpec
from mibci.training import TrainConfig
from mibci.walsh import WalshCodebook

from helpers import masked_eval_forward, packed, plant_training_copy, report_of

TABLE7_S1 = "2,7,40 / 40,7,40 / 40,7,40 / 40,7,40 / 40,16,16"
ALEXNET_CONV = "3,121,96 / 96,25,256 / 256,9,192 / 192,9,192 / 192,9,128"

SYNTH_ARGS = [
    "--classes", "2", "--epochs-per-class", "8", "--channels", "2",
    "--samples", "32", "--rate", "64", "--noise-sd", "0.4",
]
FAST_TRAIN = [
    "--structure", "2,5,8 / 8,16,16", "--max-iterations", "3",
    "--patience", "3", "--batch-size", "8", "--dropout", "0.0",
]

# Every option of each knob command, in order, with the defaults they had
# before each default moved onto its config type. A knob option is
# (option, click parameter name, default, owner type, owner field); the
# parameter name is the keyword the command passes on.
COMMAND_OPTIONS = {
    "synth": [
        ("--classes", "num_classes", 2, SyntheticSpec, "num_classes"),
        ("--epochs-per-class", "epochs_per_class", 100, SyntheticSpec, "epochs_per_class"),
        ("--channels", "channels", 4, SyntheticSpec, "channels"),
        ("--samples", "samples", 250, SyntheticSpec, "samples"),
        ("--rate", "sampling_rate", 250.0, SyntheticSpec, "sampling_rate"),
        ("--noise-sd", "noise_sd", 1.0, SyntheticSpec, "noise_sd"),
        ("--gain", "default_gain", 2.0, SyntheticSpec, "default_gain"),
        "--output",
    ],
    "augment": [
        "--in",
        ("--amp-low", "amp_low", 0.2, AugmentConfig, "amp_low"),
        ("--amp-high", "amp_high", 5.0, AugmentConfig, "amp_high"),
        ("--flip-probability", "flip_probability", 0.5, AugmentConfig, "flip_probability"),
        ("--rotation-half-range", "rotation_half_range", None, AugmentConfig, "rotation_half_range"),
        ("--noise-sd", "noise_sd", 0.01, AugmentConfig, "noise_sd"),
        ("--copies", "copies_per_epoch", 9, AugmentConfig, "copies_per_epoch"),
        "--output",
    ],
    "split": [
        "--in",
        ("--test-fraction", "test_fraction", 0.2, SplitSpec, "test_fraction"),
        ("--validation-fraction", "validation_fraction", 0.1, SplitSpec, "validation_fraction"),
    ],
    "csp-fit": ["--in", "--m", "--scheme", "--bands", ("--order", "order", 4, FilterBankSpec, "order"), "--output"],
    "train": [
        "--train",
        "--val",
        "--structure",
        ("--code-size", "code_size", 16, WalshCodebook, "size"),
        "--scheme",
        ("--learning-rate", "learning_rate", 1e-3, TrainConfig, "learning_rate"),
        ("--batch-size", "batch_size", 32, TrainConfig, "batch_size"),
        ("--max-iterations", "max_iterations", 500, TrainConfig, "max_iterations"),
        ("--patience", "patience", 20, TrainConfig, "patience"),
        ("--dropout", "dropout_p", 0.5, ConvBlockSpec, "dropout_p"),
        "--no-batch-norm",
    ],
    "count-weights": ["--structure", "--classes", ("--code-size", "code_size", 16, WalshCodebook, "size")],
}


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def synth_file(tmp_path, capsys):
    code, _, err = run(["--out", str(tmp_path), "--seed", "3", "synth", *SYNTH_ARGS], capsys)
    assert code == 0, err
    return tmp_path / "synthetic.epb"


class TestKnobSurface:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_knob_defaults_are_their_owners_fields(self, command):
        params = {p.opts[0]: p for p in cli.commands[command].params}
        expected = COMMAND_OPTIONS[command]
        assert list(params) == [o if isinstance(o, str) else o[0] for o in expected]
        for option, name, default, owner, field in (o for o in expected if not isinstance(o, str)):
            assert params[option].name == name
            assert params[option].default == default == getattr(owner, field)


class TestSynthSplitAugment:
    def test_synth_writes_loadable_file(self, synth_file):
        dataset = load_epochs(synth_file)
        assert len(dataset) == 16
        assert dataset.n_channels == 2

    def test_split_counts(self, synth_file, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "--seed", "1", "split", "--in", str(synth_file)], capsys
        )
        assert code == 0
        doc = json.loads((tmp_path / "split.json").read_text())
        assert doc["test"]["count"] == 2
        assert doc["train"]["count"] + doc["validation"]["count"] == 14
        assert load_epochs(tmp_path / "test.epb").num_classes == 2
        assert doc["validation"]["count"] == 0  # floor(0.1 * 7) per class

    def test_split_refuses_a_partition_without_a_class_and_writes_nothing(self, tmp_path, capsys):
        # 5 epochs of class 2: 1 goes to test, floor(0.1 * 4) = 0 to validation
        data = np.random.default_rng(0).normal(size=(35, 2, 32))
        uneven = tmp_path / "uneven.epb"
        save_epochs(EpochSet(data, [1] * 30 + [2] * 5, 64.0, 2, subject_ids="s"), uneven)
        out = tmp_path / "o"
        code, _, err = run(["--out", str(out), "split", "--in", str(uneven)], capsys)
        assert code == 1
        assert ("error: the validation partition has no epochs of classes [2] "
                "at test_fraction 0.2 and validation_fraction 0.1") in err
        assert not out.exists() or not any(out.iterdir())

    def test_given_flags_win_over_the_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"num_classes": 2, "epochs_per_class": 4, "channels": 3, "samples": 32}))
        code, _, err = run(
            ["--out", str(tmp_path), "--config", str(config), "synth", "--classes", "3",
             "--channels", "4", "--samples", "16"],
            capsys,
        )
        assert code == 0, err
        dataset = load_epochs(tmp_path / "synthetic.epb")
        # --channels 4 is the default value, but it was given, so it wins too
        assert (dataset.num_classes, dataset.n_channels, dataset.n_samples) == (3, 4, 16)
        assert len(dataset) == 12  # epochs_per_class from the config: no flag given

    def test_synth_refuses_samples_an_epb_file_cannot_store(self, tmp_path, capsys):
        code, _, err = run(["--out", str(tmp_path), "synth", *SYNTH_ARGS, "--noise-sd", "1e200"], capsys)
        assert code == 1
        assert "error: epoch 0 holds a sample of magnitude" in err
        assert "beyond EPB1's float32 range" in err
        assert not (tmp_path / "synthetic.epb").exists()

    @pytest.mark.parametrize("config, message", [
        ({"noise_sd": 1e308}, "noise_sd must be in [0, 1.12356e+307], got 1e+308"),
        ({"default_gain": 1e308}, "default_gain must be in [0, 1.12356e+307], got 1e+308"),
        ({"mu_gains": [[1, 0], [0, 1e308]]}, "mu_gains row 1 must be at most 1.12356e+307, got 1e+308"),
    ])
    def test_synth_names_an_amplitude_that_can_overflow(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run(["--out", str(tmp_path), "--config", str(path), "synth", *SYNTH_ARGS[:6]], capsys)
        assert code == 1
        assert f"error: {message}" in err
        assert not (tmp_path / "synthetic.epb").exists()

    @pytest.mark.parametrize("flag, value, knob", [("--noise-sd", "1e308", "noise_sd"),
                                                   ("--amp-high", "1e39", "amp_high")])
    def test_augment_names_a_knob_that_takes_a_variant_beyond_float32(self, synth_file, tmp_path, capsys,
                                                                       flag, value, knob):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["--out", str(tmp_path), "augment", "--in", str(synth_file), flag, value], capsys)
        assert code == 1
        assert err.startswith(f"error: {knob} ")
        assert not (tmp_path / "augmented.epb").exists()

    def test_augment_grows_set(self, synth_file, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "augment", "--in", str(synth_file), "--copies", "4"], capsys
        )
        assert code == 0
        assert len(load_epochs(tmp_path / "augmented.epb")) == 80
        assert "16 -> 80" in out


CSP_FIELDS = ["m", "scheme", "bands", "filter_order", "num_classes", "input_channels", "projection", "fingerprint"]


class TestCspCommands:
    def test_fit_then_apply(self, synth_file, tmp_path, capsys):
        code, out, _ = run(
            [
                "--out", str(tmp_path),
                "csp-fit", "--in", str(synth_file), "--m", "1",
                "--bands", "8-12,18-24", "--order", "4",
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "csp.json").exists()
        code, out, _ = run(
            [
                "--out", str(tmp_path),
                "csp-apply", "--in", str(synth_file), "--model", str(tmp_path / "csp.json"),
            ],
            capsys,
        )
        assert code == 0
        transformed = load_epochs(tmp_path / "transformed.epb")
        assert transformed.n_channels == 2
        assert transformed.n_samples == 32

    @pytest.mark.parametrize("bands", ["8-12,16", "a-b"])
    def test_fit_names_a_malformed_band(self, synth_file, tmp_path, capsys, bands):
        code, _, err = run(
            ["--out", str(tmp_path), "csp-fit", "--in", str(synth_file), "--m", "1", "--bands", bands], capsys
        )
        assert code == 1
        entry = bands.split(",")[-1]
        assert f"band {entry!r} is not of the form LOW-HIGH" in err
        assert "could not convert" not in err
        assert not (tmp_path / "csp.json").exists()

    def test_apply_checks_channels_before_filtering(self, synth_file, tmp_path, capsys, monkeypatch):
        code, _, err = run(
            ["--out", str(tmp_path), "csp-fit", "--in", str(synth_file), "--m", "1",
             "--bands", "8-12,18-24"],
            capsys,
        )
        assert code == 0, err
        wide = tmp_path / "wide"
        code, _, err = run(["--out", str(wide), "--seed", "3", "synth", *SYNTH_ARGS, "--channels", "3"], capsys)
        assert code == 0, err

        def no_filtering(*args):
            raise AssertionError("a mismatched input reached the filter bank")

        monkeypatch.setattr(bandpass_module, "_filter_bank", no_filtering)
        code, _, err = run(
            ["--out", str(tmp_path), "csp-apply", "--in", str(wide / "synthetic.epb"),
             "--model", str(tmp_path / "csp.json")],
            capsys,
        )
        assert code == 1
        assert "error: epochs have 3 channels x 2 bands = 6 filtered channels, model expects 4" in err
        assert not (tmp_path / "transformed.epb").exists()

    @pytest.mark.filterwarnings("ignore:singular composite covariance")
    def test_fit_names_a_band_that_cannot_be_designed_at_the_rate(self, tmp_path, capsys):
        """At 1e12 Hz the error names the band, the order and the rate. 1e9 Hz
        still fits. From 1e10 Hz up, ``butter`` rounds every section of the
        6-12 Hz band to the denominator 1 - 2/z + 1/z^2 exactly (at 1e9 Hz
        its a1 + a2 + 1 is about 3e-15), a double pole at z = 1, whose
        steady-state system has an exactly zero pivot that LAPACK reports."""
        for rate in ("1e12", "1e9"):
            out = tmp_path / rate
            code, _, err = run(["--out", str(out), "synth", "--rate", rate, "--epochs-per-class", "4"], capsys)
            assert code == 0, err
            code, _, err = run(["--out", str(out), "csp-fit", "--in", str(out / "synthetic.epb"), "--m", "1"], capsys)
            if rate == "1e9":
                assert code == 0, err
                continue
            assert code == 1
            assert err == ("error: band (6.0, 12.0) Hz cannot be designed as an order-4 Butterworth band-pass at a "
                           "1e+12 Hz sampling rate: its steady state cannot be solved (Singular matrix)\n")
            assert not (out / "csp.json").exists()

    @pytest.mark.parametrize("field", CSP_FIELDS)
    def test_apply_names_a_missing_field(self, synth_file, tmp_path, capsys, field):
        code, _, err = run(
            ["--out", str(tmp_path), "csp-fit", "--in", str(synth_file), "--m", "1",
             "--bands", "8-12,18-24"],
            capsys,
        )
        assert code == 0, err
        model = tmp_path / "csp.json"
        doc = json.loads(model.read_text())
        assert sorted(doc) == sorted(CSP_FIELDS)
        del doc[field]
        model.write_text(json.dumps(doc))
        code, _, err = run(
            ["--out", str(tmp_path), "csp-apply", "--in", str(synth_file), "--model", str(model)], capsys
        )
        assert code == 1
        assert f"error: csp document: missing field {field!r}" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"scheme": "bogus", "projection": np.eye(4).ravel().tolist()}, "unknown scheme 'bogus'"),
            ({"m": 0, "projection": []}, "m=0 must be >= 1"),
            ({"num_classes": 3}, "a two_class model needs exactly two classes, got 3"),
            ({"input_channels": 0}, "csp document: field 'input_channels' must be >= 1, got 0"),
            ({"input_channels": -4}, "csp document: field 'input_channels' must be >= 1, got -4"),
            ({"input_channels": 3},
             "csp document: field 'projection' holds 8 values, not whole rows of input_channels = 3"),
        ],
    )
    def test_apply_rejects_an_inconsistent_model(self, synth_file, tmp_path, capsys, edit, message):
        code, _, err = run(
            ["--out", str(tmp_path), "csp-fit", "--in", str(synth_file), "--m", "1",
             "--bands", "8-12,18-24"],
            capsys,
        )
        assert code == 0, err
        model = tmp_path / "csp.json"
        doc = json.loads(model.read_text())
        assert (doc["scheme"], doc["num_classes"], doc["input_channels"]) == ("two_class", 2, 4)
        model.write_text(json.dumps({**doc, **edit}))
        code, _, err = run(
            ["--out", str(tmp_path), "csp-apply", "--in", str(synth_file), "--model", str(model)], capsys
        )
        assert code == 1
        assert f"error: {message}" in err
        assert not (tmp_path / "transformed.epb").exists()


class TestTrainEval:
    def test_train_then_eval(self, synth_file, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "--seed", "5", "--format", "text",
             "train", "--train", str(synth_file), *FAST_TRAIN],
            capsys,
        )
        assert code == 0, out
        assert (tmp_path / "model.json").exists()
        assert (tmp_path / "train_report.json").exists()
        code, out, _ = run(
            ["--out", str(tmp_path), "--format", "text",
             "eval", "--in", str(synth_file), "--params", str(tmp_path / "model.json")],
            capsys,
        )
        assert code == 0
        assert "accuracy" in out
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert "confusion" in doc

    def test_ovo_scheme_serializes_and_evaluates(self, synth_file, tmp_path, capsys):
        code, out, err = run(
            ["--out", str(tmp_path), "--seed", "2", "train", "--train", str(synth_file),
             "--scheme", "ovo", *FAST_TRAIN],
            capsys,
        )
        assert code == 0, err
        scheme_path = tmp_path / "model.json"
        assert scheme_path.exists()
        code, out, _ = run(
            ["--out", str(tmp_path), "--format", "text",
             "eval", "--in", str(synth_file), "--params", str(scheme_path)],
            capsys,
        )
        assert code == 0
        assert "accuracy" in out

    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    def test_train_writes_one_model_file(self, kind, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "3", "synth", *SYNTH_ARGS, "--classes", "3"], capsys
        )
        assert code == 0, err
        data = tmp_path / "synthetic.epb"
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "2", "train", "--train", str(data), "--scheme", kind,
             *FAST_TRAIN],
            capsys,
        )
        assert code == 0, err
        assert not (tmp_path / "params.json").exists() and not (tmp_path / "scheme.json").exists()
        doc = json.loads((tmp_path / "model.json").read_text())
        assert (doc["kind"], doc["num_classes"], len(doc["members"])) == (kind, 3, 1 if kind == "single" else 3)
        code, _, err = run(
            ["--out", str(tmp_path), "eval", "--in", str(data), "--params", str(tmp_path / "model.json")],
            capsys,
        )
        assert code == 0, err
        assert sum(map(sum, json.loads((tmp_path / "eval.json").read_text())["confusion"])) == 24

    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    def test_train_rejects_a_file_missing_a_class(self, kind, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("mibci.model.train", lambda *args: calls.append(args))
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "3", "synth", *SYNTH_ARGS, "--classes", "3"], capsys
        )
        assert code == 0, err
        data = load_epochs(tmp_path / "synthetic.epb")
        gapped = tmp_path / "gapped.epb"
        # save_epochs refuses a set with an empty class, and so does the loader
        io_module._save_binary(data.subset(np.flatnonzero(data.labels != 2)), gapped)
        with pytest.raises(EpochFormatError, match=re.escape("classes with no epochs: [2]")):
            load_epochs(gapped)
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "2", "train", "--train", str(gapped), "--scheme", kind,
             *FAST_TRAIN],
            capsys,
        )
        assert code == 1
        assert "classes with no epochs: [2]" in err
        assert calls == []
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("kind, model_classes, file_classes", [("single", 2, 3), ("ovo", 3, 2)])
    def test_eval_rejects_a_class_count_mismatch(self, kind, model_classes, file_classes, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "3", "synth", *SYNTH_ARGS, "--classes", str(file_classes)],
            capsys,
        )
        assert code == 0, err
        data = tmp_path / "synthetic.epb"
        params = write_params_file(tmp_path, kind, model_classes, "2,5,8 / 8,16,16", 2, 32)
        code, _, err = run(["--out", str(tmp_path), "eval", "--in", str(data), "--params", str(params)], capsys)
        assert code == 1
        assert f"error: the model has {model_classes} classes but {data} has {file_classes}" in err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize(
        "member, classes",
        [("ovr", [0]), ("ovr", [5]), ("ovo", [1, 5]), ("ovo", [2, 2])],
    )
    def test_scheme_with_bad_member_classes_is_validation_error(
        self, synth_file, tmp_path, capsys, member, classes
    ):
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "2", "train", "--train", str(synth_file),
             "--scheme", member, *FAST_TRAIN],
            capsys,
        )
        assert code == 0, err
        scheme_path = tmp_path / "model.json"
        doc = json.loads(scheme_path.read_text())
        doc["members"][0]["classes"] = classes
        scheme_path.write_text(json.dumps(doc))
        code, _, err = run(
            ["--out", str(tmp_path), "eval", "--in", str(synth_file), "--params", str(scheme_path)],
            capsys,
        )
        assert code == 1
        assert f"{member} over 2 classes needs" in err

    def test_member_error_on_a_worker_thread_is_validation_error(
        self, synth_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 2)
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "2", "train", "--train", str(synth_file),
             "--scheme", "ovr", *FAST_TRAIN],
            capsys,
        )
        assert code == 0, err
        wide = tmp_path / "wide"
        code, _, err = run(
            ["--out", str(wide), "--seed", "3", "synth", *SYNTH_ARGS, "--channels", "3"], capsys
        )
        assert code == 0, err
        code, _, err = run(
            ["--out", str(tmp_path), "eval", "--in", str(wide / "synthetic.epb"),
             "--params", str(tmp_path / "model.json")],
            capsys,
        )
        assert code == 1
        assert "error: layer 1: input has 3 planes, block expects 2" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_is_runtime_failure(self, synth_file, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "train", "--train", str(synth_file),
             "--structure", "2,5,8 / 8,16,16", "--max-iterations", "3",
             "--batch-size", "8", "--no-batch-norm", "--dropout", "0.0",
             "--learning-rate", "1e200"],
            capsys,
        )
        assert code == 2
        assert "runtime failure" in err


def write_params_file(tmp_path, kind: str, num_classes: int, structure: str, channels: int,
                      samples: int, seed: int = 0):
    """A float32 single, OVO or OVR model file with random weights, biases
    and batchnorm statistics."""
    spec = parse_structure(structure, input_channels=channels, input_length=samples)
    rng = np.random.default_rng(seed)

    def params(k):
        p = init_params(spec, seed=seed + k)
        for block in p.blocks:
            block.bias = rng.normal(0, 0.1, block.bias.shape)
            if block.gamma is not None:
                block.running_mean = rng.normal(0, 0.2, block.gamma.shape)
                block.running_var = rng.uniform(0.5, 2.0, block.gamma.shape)
        return p.astype(np.float32)

    labels = tuple(range(1, num_classes + 1))
    groups = {"single": [labels], "ovo": itertools.combinations(labels, 2), "ovr": [(c,) for c in labels]}[kind]
    members = tuple(SchemeMember(classes=g, spec=spec, params=params(k)) for k, g in enumerate(groups))
    path = tmp_path / "model.json"
    path.write_text(MetaScheme(kind=kind, num_classes=num_classes, members=members).to_json(),
                    encoding="utf-8")
    return path


class TestEvalInference:
    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    def test_eval_json_equals_the_masked_forward(self, kind, tmp_path, capsys, monkeypatch):
        # 150 epochs: two eval blocks, the second a short tail
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "4", "synth", *SYNTH_ARGS,
             "--classes", "3", "--epochs-per-class", "50"],
            capsys,
        )
        assert code == 0, err
        data = tmp_path / "synthetic.epb"
        params = write_params_file(tmp_path, kind, 3, "2,5,8 / 8,16,16", 2, 32, seed=7)
        argv = ["eval", "--in", str(data), "--params", str(params)]
        assert run(["--out", str(tmp_path / "lean"), *argv], capsys)[0] == 0
        monkeypatch.setattr(mdn_module, "forward", masked_eval_forward)
        assert run(["--out", str(tmp_path / "masked"), *argv], capsys)[0] == 0
        lean = (tmp_path / "lean" / "eval.json").read_bytes()
        assert lean == (tmp_path / "masked" / "eval.json").read_bytes()
        assert sum(map(sum, json.loads(lean)["confusion"])) == 150

    def test_scheme_file_is_decoded_once(self, tmp_path, capsys, monkeypatch):
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "4", "synth", "--classes", "4",
             "--epochs-per-class", "3", "--channels", "2", "--samples", "251"],
            capsys,
        )
        assert code == 0, err
        scheme = write_params_file(tmp_path, "ovo", 4, TABLE7_S1, 2, 251)
        assert len(json.loads(scheme.read_text())["members"]) == 6
        loads, dumps = [], []
        real_loads, real_dumps = json.loads, json.dumps
        monkeypatch.setattr(json, "loads", lambda s, *a, **k: loads.append(len(s)) or real_loads(s, *a, **k))
        monkeypatch.setattr(json, "dumps", lambda o, *a, **k: dumps.append(o) or real_dumps(o, *a, **k))
        code, _, err = run(
            ["--out", str(tmp_path), "eval", "--in", str(tmp_path / "synthetic.epb"),
             "--params", str(scheme)],
            capsys,
        )
        assert code == 0, err
        assert loads == [len(scheme.read_text())]
        # the report only, encoded once for eval.json and the console
        assert len(dumps) == 1 and "confusion" in dumps[0]


def tiny_plan_doc(dataset_path: str) -> dict:
    return {
        "dataset": dataset_path,
        "transform": "NTS",
        "augment": "NA",
        "augment_config": {"copies_per_epoch": 2, "noise_sd": 0.0},
        "bands": [[8.0, 12.0], [18.0, 24.0]],
        "m": 1,
        "structure": "2,5,8 / 8,16,16",
        "code_size": 16,
        "learning_rate": 3e-3,
        "batch_size": 8,
        "max_iterations": 3,
        "patience": 3,
        "dropout_p": 0.0,
        "validation_fraction": 0.25,
        "n_runs": 2,
        "master_seed": 4,
    }


class TestExperimentCommands:
    def test_experiment_and_report_rendering(self, synth_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(tiny_plan_doc(str(synth_file))))
        code, out, err = run(
            ["--out", str(tmp_path), "--config", str(plan_path), "--format", "text", "experiment"],
            capsys,
        )
        assert code == 0, err
        assert "mean accuracy" in out and "over 2 runs, 0 failed" in out
        report_path = tmp_path / "experiment.json"
        assert json.loads(report_path.read_text())["n_failed"] == 0

        code, out, _ = run(
            ["--format", "csv", "report", "--in", str(report_path)], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "cell,run,accuracy,kappa,error"
        assert len(out.splitlines()) == 3

        code, out, _ = run(
            ["--format", "text", "report", "--in", str(report_path)], capsys
        )
        assert code == 0
        assert "mean" in out

    def test_text_line_when_no_run_succeeded(self, synth_file, tmp_path, capsys):
        doc = dict(tiny_plan_doc(str(synth_file)), transform="TS", m=3)  # 2m > the 4 filtered channels
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        code, out, err = run(
            ["--out", str(tmp_path), "--config", str(plan_path), "--format", "text", "experiment"], capsys
        )
        assert code == 0, err
        assert out == "TS-NA: no run succeeded, 2 failed\n"
        assert json.loads((tmp_path / "experiment.json").read_text())["mean_accuracy"] is None

    def test_matrix_prints_four_labeled_rows(self, synth_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(tiny_plan_doc(str(synth_file))))
        code, out, err = run(
            ["--out", str(tmp_path), "--config", str(plan_path), "matrix", "--n-runs", "1"],
            capsys,
        )
        assert code == 0, err
        for cell in ("TS-A", "TS-NA", "NTS-A", "NTS-NA"):
            assert any(line.startswith(cell) for line in out.splitlines())
        cells = json.loads((tmp_path / "matrix.json").read_text())
        assert {cell: rep["n_failed"] for cell, rep in cells.items()} == {
            "TS-A": 0, "TS-NA": 0, "NTS-A": 0, "NTS-NA": 0}
        assert (tmp_path / "matrix.txt").exists()
        assert "augmentation effect" in out

    @pytest.mark.parametrize(
        "augmented, plain, line",
        [
            ([0.9, None, 0.8, 0.85], [0.7, 0.6, None, 0.65], "paired t(1) = "),
            ([0.9, 0.8, 0.85, 0.7], [0.7, None, 0.65, 0.6], "paired t(2) = "),
            ([0.9, None, 0.8], [None, 0.6, 0.7], "needs at least two runs that succeeded in both cells"),
        ],
        ids=["two-common", "unequal-counts", "one-common"],
    )
    def test_matrix_pairs_the_runs_that_succeeded_in_both_cells(
        self, augmented, plain, line, synth_file, tmp_path, capsys, monkeypatch
    ):
        cells = {"TS-A": report_of(plain), "TS-NA": report_of(plain),
                 "NTS-A": report_of(augmented), "NTS-NA": report_of(plain)}
        monkeypatch.setattr(cli_module, "run_matrix", lambda plan: MatrixReport(cells=cells))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(tiny_plan_doc(str(synth_file))))
        code, out, err = run(["--out", str(tmp_path), "--config", str(plan_path), "matrix"], capsys)
        assert code == 0, err
        assert (tmp_path / "matrix.json").exists() and (tmp_path / "matrix.txt").exists()
        assert out.splitlines()[-1].startswith("NTS augmentation effect: ")
        assert line in out.splitlines()[-1]


    def test_leaked_test_epoch_is_runtime_failure(self, synth_file, tmp_path, capsys):
        doc = dict(tiny_plan_doc(str(synth_file)), validation_fraction=0.2)
        planted = tmp_path / "planted.epb"
        save_epochs(plant_training_copy(load_epochs(synth_file), ExperimentPlan.from_dict(doc)), planted)
        doc["dataset"] = str(planted)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        code, _, err = run(["--config", str(plan_path), "--out", str(tmp_path), "experiment"], capsys)
        assert code == 2
        assert "runtime failure" in err and "validation or test partition" in err
        assert not (tmp_path / "experiment.json").exists()


class TestWeightsAndStats:
    def test_count_weights_table7(self, capsys):
        code, out, _ = run(["count-weights", "--structure", TABLE7_S1, "--classes", "2"], capsys)
        assert code == 0
        assert out.strip() == "44432"

    def test_count_weights_alexnet(self, capsys):
        code, out, _ = run(["count-weights", "--structure", ALEXNET_CONV], capsys)
        assert code == 0
        assert out.strip() == "1644576"

    def test_count_weights_rejects_a_non_triple_row(self, capsys):
        code, _, err = run(["count-weights", "--structure", "2,7 / 40,16,16"], capsys)
        assert code == 1
        assert "layer 1 is not an in,kernel,out triple" in err

    def test_ttest_on_json_lists(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([2.0, 2.0, 2.0, 3.0]))
        b.write_text(json.dumps([1.0, 1.0, 1.0, 1.0]))
        code, out, _ = run(
            ["--out", str(tmp_path), "--format", "text", "ttest", "--a", str(a), "--b", str(b)],
            capsys,
        )
        assert code == 0
        assert "t(3) = 5.0000" in out

    def test_ttest_pairs_two_reports_by_run(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(report_of([0.9, None, 0.8, 0.85]).to_json())
        b.write_text(report_of([0.7, 0.6, None, 0.65]).to_json())
        code, _, err = run(["--out", str(tmp_path), "ttest", "--a", str(a), "--b", str(b)], capsys)
        assert code == 0, err
        doc = json.loads((tmp_path / "ttest.json").read_text())
        assert doc == paired_ttest([0.9, 0.85], [0.7, 0.65]).to_dict()

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "string", "null"])
    def test_ttest_refuses_an_entry_that_is_not_a_number(self, value, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([0.9, value, 0.8]))
        b.write_text(json.dumps([0.7, 0.75, 0.8]))
        code, _, err = run(["--out", str(tmp_path), "ttest", "--a", str(a), "--b", str(b)], capsys)
        assert code == 1
        assert f"{a}: entry 1 is {json.dumps(value)}, not a number" in err
        assert not (tmp_path / "ttest.json").exists()


class TestExitCodes:
    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        code, _, err = run(["augment", "--in", str(tmp_path / "nope.epb")], capsys)
        assert code == 1

    def test_malformed_file_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.epb"
        bad.write_bytes(b"garbage")
        code, _, err = run(["augment", "--in", str(bad)], capsys)
        assert code == 1
        assert "error" in err

    def test_invalid_utf8_subject_id_is_validation_error(self, synth_file, tmp_path, capsys):
        blob = bytearray(synth_file.read_bytes())
        blob[36] = 0xFF  # first subject-id byte: 28-byte header, then label and id length
        bad = tmp_path / "bad.epb"
        bad.write_bytes(blob)
        params = tmp_path / "model.json"
        params.write_text("{}")
        code, _, err = run(["eval", "--in", str(bad), "--params", str(params)], capsys)
        assert code == 1
        assert f"{bad}: epoch 0 subject id is not UTF-8 at byte 36" in err

    def test_params_without_structure_names_the_field(self, synth_file, tmp_path, capsys):
        params = write_params_file(tmp_path, "single", 2, "2,5,8 / 8,16,16", 2, 32)
        doc = json.loads(params.read_text())
        del doc["members"][0]["network"]["structure"]
        params.write_text(json.dumps(doc))
        code, _, err = run(["eval", "--in", str(synth_file), "--params", str(params)], capsys)
        assert code == 1
        assert "error: scheme document member 1: network document: missing field 'structure'" in err

    def test_bare_network_document_names_the_missing_members(self, synth_file, tmp_path, capsys):
        spec = parse_structure("2,5,8 / 8,16,16", input_channels=2, input_length=32)
        params = tmp_path / "params.json"
        params.write_text(init_params(spec).to_json(spec))
        code, _, err = run(["eval", "--in", str(synth_file), "--params", str(params)], capsys)
        assert code == 1
        assert "error: scheme document: missing field 'members'" in err

    def test_scheme_member_without_network_names_the_field(self, synth_file, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "2", "train", "--train", str(synth_file),
             "--scheme", "ovo", *FAST_TRAIN],
            capsys,
        )
        assert code == 0, err
        scheme_path = tmp_path / "model.json"
        doc = json.loads(scheme_path.read_text())
        del doc["members"][0]["network"]
        scheme_path.write_text(json.dumps(doc))
        code, _, err = run(["eval", "--in", str(synth_file), "--params", str(scheme_path)], capsys)
        assert code == 1
        assert "error: scheme document member 1: missing field 'network'" in err

    def test_trained_model_is_written_in_format_2(self, synth_file, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "2", "train", "--train", str(synth_file),
             "--scheme", "ovo", *FAST_TRAIN],
            capsys,
        )
        assert code == 0, err
        for member in json.loads((tmp_path / "model.json").read_text())["members"]:
            assert member["network"]["format"] == 2
            for entry in member["network"]["blocks"]:
                assert entry and all(isinstance(value, str) for value in entry.values())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda net, e: e.update(bias="@@@@"), "layer 2: bias is not valid base64"),
            (lambda net, e: e.update(weight=e["weight"][:-4]),
             r"layer 2: weight needs 2048 values \(8192 bytes of float32\), got 8190 bytes"),
            (lambda net, e: e.update(bias=[0.0] * 16),
             "network document layer 2: field 'bias' must be a string, got list"),
            (lambda net, e: net.pop("format"),
             "network document layer 1: field 'weight' must be a list, got str"),
            (lambda net, e: net.update(format=7), "network document: field 'format' is 7, expected 1 or 2"),
        ],
        ids=["not-base64", "short-bytes", "list-in-format-2", "string-in-format-1", "unknown-format"],
    )
    def test_malformed_packed_array_is_validation_error(self, synth_file, tmp_path, capsys, edit, message):
        params = write_params_file(tmp_path, "ovr", 2, "2,5,8 / 8,16,16", 2, 32)
        doc = json.loads(params.read_text())
        network = doc["members"][1]["network"]
        edit(network, network["blocks"][1])
        params.write_text(json.dumps(doc))
        code, _, err = run(["eval", "--in", str(synth_file), "--params", str(params)], capsys)
        assert code == 1
        assert re.search(f"^error: scheme document member 2: {message}", err, re.MULTILINE), err
        assert "Traceback" not in err

    def test_unknown_params_dtype_names_the_field(self, synth_file, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "--seed", "5", "train", "--train", str(synth_file), *FAST_TRAIN],
            capsys,
        )
        assert code == 0, err
        params = tmp_path / "model.json"
        doc = json.loads(params.read_text())
        network = doc["members"][0]["network"]
        assert network["dtype"] == "float32"
        network["dtype"] = "int8"
        params.write_text(json.dumps(doc))
        code, _, err = run(["eval", "--in", str(synth_file), "--params", str(params)], capsys)
        assert code == 1
        assert "error: scheme document member 1: network document: field 'dtype' is 'int8'" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("structure", 5, "network document: field 'structure' must be a string, got int"),
            ("blocks", 5, "network document: field 'blocks' must be a list, got int"),
            ("blocks", [1, 2], "network document layer 1 must be a JSON object, got int"),
        ],
    )
    def test_mistyped_params_field_names_it(self, synth_file, tmp_path, capsys, field, value, message):
        params = write_params_file(tmp_path, "single", 2, "2,5,8 / 8,16,16", 2, 32)
        doc = json.loads(params.read_text())
        doc["members"][0]["network"][field] = value
        params.write_text(json.dumps(doc))
        code, _, err = run(["eval", "--in", str(synth_file), "--params", str(params)], capsys)
        assert code == 1
        assert f"error: scheme document member 1: {message}" in err

    @pytest.mark.parametrize("fault", [KeyError("planted"), TypeError("planted")], ids=["KeyError", "TypeError"])
    def test_a_program_fault_in_a_command_is_a_runtime_failure(self, synth_file, capsys, monkeypatch, fault):
        def faulty(*args, **kwargs):
            raise fault

        monkeypatch.setattr(io_module, "_load_binary", faulty)
        code, _, err = run(["augment", "--in", str(synth_file)], capsys)
        assert code == 2
        assert f"runtime failure: {type(fault).__name__}: " in err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "synth" in out

    def test_experiment_without_config(self, capsys):
        assert run(["experiment"], capsys)[0] == 1

    @pytest.mark.parametrize(
        "text, message", [("[1]", "expected a JSON object, got list"), ("{", "Expecting property name")]
    )
    def test_config_that_is_not_an_object_names_the_file(self, tmp_path, capsys, text, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, _, err = run(["--out", str(tmp_path), "--config", str(config), "synth"], capsys)
        assert code == 1
        assert f"{config}: {message}" in err
        assert not (tmp_path / "synthetic.epb").exists()

    @pytest.mark.parametrize(
        "text, message", [("[1]", "expected a JSON object, got list"), ("{", "Expecting property name")]
    )
    def test_report_that_is_not_an_object_names_the_file(self, tmp_path, capsys, text, message):
        stored = tmp_path / "report.json"
        stored.write_text(text)
        code, _, err = run(["--format", "text", "report", "--in", str(stored)], capsys)
        assert code == 1
        assert f"{stored}: {message}" in err

    @pytest.mark.parametrize("option", ["ttest --a", "ttest --b", "eval --params", "csp-apply --model",
                                        "report --in", "--config"])
    def test_truncated_json_input_names_the_file(self, option, synth_file, tmp_path, capsys):
        series = tmp_path / "series.json"
        series.write_text("[0.9, 0.8]")
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"members": [\n')
        args = {
            "ttest --a": ["ttest", "--a", str(truncated), "--b", str(series)],
            "ttest --b": ["ttest", "--a", str(series), "--b", str(truncated)],
            "eval --params": ["eval", "--in", str(synth_file), "--params", str(truncated)],
            "csp-apply --model": ["csp-apply", "--in", str(synth_file), "--model", str(truncated)],
            "report --in": ["report", "--in", str(truncated)],
            "--config": ["--config", str(truncated), "experiment"],
        }[option]
        code, _, err = run(["--out", str(tmp_path / "out"), *args], capsys)
        assert code == 1
        assert f"{truncated}: Expecting value: line 2 column 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value", [("num_classes", "3"), ("samples", 32.5), ("epochs_per_class", True), ("seed", "7")]
    )
    def test_config_value_that_is_not_an_integer_is_named(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, _, err = run(["--out", str(tmp_path), "--config", str(config), "synth"], capsys)
        assert code == 1
        assert f"error: {key} must be an integer, got {value!r}" in err
        assert not (tmp_path / "synthetic.epb").exists()

    def test_report_run_key_that_is_not_a_field_is_named(self, synth_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(dict(tiny_plan_doc(str(synth_file)), n_runs=1, max_iterations=1)))
        code, _, err = run(["--out", str(tmp_path), "--config", str(plan_path), "experiment"], capsys)
        assert code == 0, err
        stored = tmp_path / "experiment.json"
        doc = json.loads(stored.read_text())
        doc["runs"][0]["extra"] = 1
        stored.write_text(json.dumps(doc))
        code, _, err = run(["--format", "text", "report", "--in", str(stored)], capsys)
        assert code == 1
        assert "error: report run 0: RunResult has no field 'extra'" in err

    def test_invalid_plan_value_fails_before_any_run(self, synth_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(dict(tiny_plan_doc(str(synth_file)), learning_rate=-1)))
        code, _, err = run(["--out", str(tmp_path), "--config", str(plan_path), "experiment"], capsys)
        assert code == 1
        assert "error: learning_rate and batch_size must be positive" in err
        assert not (tmp_path / "experiment.json").exists()

    @pytest.mark.parametrize("command", ["experiment", "matrix"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dropout_p", 1.5, "dropout_p must be in [0, 1), got 1.5"),
            ("scheme", "foo", "unknown scheme kind 'foo'"),
            ("structure", "3,5", "layer 1 is not an in,kernel,out triple: '3,5'"),
            ("max_iterations", 2.5, "max_iterations must be an integer, got 2.5"),
            ("n_runs", 2.0, "n_runs must be an integer, got 2.0"),
            ("m", True, "m must be an integer, got True"),
            ("m", 0, "m must be >= 1, got 0"),
            ("max_train_epochs", 0, "max_train_epochs must be >= 1, got 0"),
            ("max_train_epochs", -3, "max_train_epochs must be >= 1, got -3"),
            ("test_fraction", 0.1, "the test partition is empty: class counts [8, 8] at test_fraction 0.1 leave no test epoch"),
        ],
    )
    def test_plan_value_that_fails_every_run_exits_1(self, command, field, value, message, synth_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(dict(tiny_plan_doc(str(synth_file)), **{field: value})))
        code, _, err = run(["--out", str(tmp_path), "--config", str(plan_path), command], capsys)
        assert code == 1
        assert f"error: {message}" in err
        assert not list(tmp_path.glob(f"{command}.*"))

    @pytest.mark.parametrize("command", ["experiment", "matrix"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(augment_config=5), "plan: field 'augment_config' must be a JSON object, got int"),
            (lambda doc: doc.update(copies=1), "plan: ExperimentPlan has no field 'copies'"),
            (lambda doc: doc["augment_config"].update(copies=1), "plan augment_config: AugmentConfig has no field 'copies'"),
        ],
        ids=["augment-config-int", "unknown-key", "unknown-augment-key"],
    )
    def test_malformed_plan_key_exits_1(self, command, edit, message, synth_file, tmp_path, capsys):
        doc = tiny_plan_doc(str(synth_file))
        edit(doc)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        code, _, err = run(["--out", str(tmp_path), "--config", str(plan_path), command], capsys)
        assert code == 1
        assert f"error: {message}" in err
        assert not list(tmp_path.glob(f"{command}.*"))

    def test_eval_of_a_per_block_layout_document(self, tmp_path, capsys):
        data = Path(__file__).parent / "data" / "per_block_layout"
        code, _, err = run(
            ["--out", str(tmp_path), "eval", "--in", str(data / "epochs.epb"),
             "--params", str(data / "ovo_float32.json")],
            capsys,
        )
        assert code == 0, err
        labels = load_epochs(data / "epochs.epb").labels
        predictions = json.loads((data / "predictions.json").read_text())["ovo_float32"]
        want = np.zeros((3, 3), dtype=int)
        np.add.at(want, (labels - 1, np.array(predictions) - 1), 1)
        assert json.loads((tmp_path / "eval.json").read_text())["confusion"] == want.tolist()
