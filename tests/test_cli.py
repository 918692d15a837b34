"""CLI subcommands, output files, and exit codes."""

import json

import pytest

import mibci.mdn as mdn_module
from mibci.cli import main
from mibci.experiment import ExperimentPlan
from mibci.io import load_epochs, save_epochs

from helpers import plant_training_copy

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


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def synth_file(tmp_path, capsys):
    code, _, err = run(["--out", str(tmp_path), "--seed", "3", "synth", *SYNTH_ARGS], capsys)
    assert code == 0, err
    return tmp_path / "synthetic.epb"


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

    def test_augment_grows_set(self, synth_file, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "augment", "--in", str(synth_file), "--copies", "4"], capsys
        )
        assert code == 0
        assert len(load_epochs(tmp_path / "augmented.epb")) == 80
        assert "16 -> 80" in out


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


class TestTrainEval:
    def test_train_then_eval(self, synth_file, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "--seed", "5", "--format", "text",
             "train", "--train", str(synth_file), *FAST_TRAIN],
            capsys,
        )
        assert code == 0, out
        assert (tmp_path / "params.json").exists()
        assert (tmp_path / "train_report.json").exists()
        code, out, _ = run(
            ["--out", str(tmp_path), "--format", "text",
             "eval", "--in", str(synth_file), "--params", str(tmp_path / "params.json")],
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
        scheme_path = tmp_path / "scheme.json"
        assert scheme_path.exists()
        code, out, _ = run(
            ["--out", str(tmp_path), "--format", "text",
             "eval", "--in", str(synth_file), "--params", str(scheme_path)],
            capsys,
        )
        assert code == 0
        assert "accuracy" in out

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
        scheme_path = tmp_path / "scheme.json"
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
        monkeypatch.setattr(mdn_module, "_usable_cpus", lambda: 2)
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
             "--params", str(tmp_path / "scheme.json")],
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
        params = tmp_path / "params.json"
        params.write_text("{}")
        code, _, err = run(["eval", "--in", str(bad), "--params", str(params)], capsys)
        assert code == 1
        assert f"{bad}: epoch 0 subject id is not UTF-8 at byte 36" in err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "synth" in out

    def test_experiment_without_config(self, capsys):
        assert run(["experiment"], capsys)[0] == 1
