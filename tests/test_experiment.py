"""Runner data flow, the study matrix, and report plumbing."""

import numpy as np
import pytest

import mibci.experiment as experiment_module
from mibci.augment import AugmentConfig
from mibci.epochs import EpochSet
from mibci.experiment import (
    MATRIX_CELLS,
    ExperimentPlan,
    ExperimentReport,
    LeakageError,
    compare_augmentation,
    run_experiment,
    run_matrix,
)
from mibci.synthetic import SyntheticSpec, generate_synthetic

from helpers import plant_training_copy

FAST_NET = dict(
    structure="2,5,8 / 8,8,16",
    code_size=16,
    learning_rate=3e-3,
    batch_size=8,
    max_iterations=4,
    patience=4,
    dropout_p=0.0,
)


@pytest.fixture(scope="module")
def tiny_dataset() -> EpochSet:
    spec = SyntheticSpec(
        num_classes=2,
        epochs_per_class=15,
        channels=3,
        samples=16,
        sampling_rate=100.0,
        mu_hz=10.0,
        beta_hz=20.0,
        noise_sd=0.5,
        default_gain=2.0,
        seed=21,
    )
    return generate_synthetic(spec)


def tiny_plan(**overrides) -> ExperimentPlan:
    base = dict(
        transform="NTS",
        augment="NA",
        augment_config=AugmentConfig(copies_per_epoch=2, noise_sd=0.0),
        bands=((8.0, 12.0), (18.0, 24.0)),
        m=1,
        n_runs=2,
        master_seed=11,
        **FAST_NET,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlan:
    def test_ts_requires_m(self):
        with pytest.raises(ValueError, match="m"):
            ExperimentPlan(transform="TS", m=None)

    def test_bad_cells_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(transform="XX")
        with pytest.raises(ValueError):
            ExperimentPlan(augment="maybe")

    def test_json_round_trip(self):
        plan = tiny_plan()
        again = ExperimentPlan.from_json(__import__("json").dumps(plan.to_dict()))
        assert again == plan


class TestRunExperiment:
    def test_deterministic_given_master_seed(self, tiny_dataset):
        plan = tiny_plan(n_runs=1)
        a = run_experiment(plan, tiny_dataset)
        b = run_experiment(plan, tiny_dataset)
        assert a.to_dict() == b.to_dict()

    def test_augmented_train_partition_is_ten_times_post_validation_count(self, tiny_dataset):
        plan = tiny_plan(augment="A", augment_config=AugmentConfig(copies_per_epoch=9), n_runs=1)
        report = run_experiment(plan, tiny_dataset)
        run = report.runs[0]
        assert run.error is None
        # 30 epochs: 6 test, 24 pool, 2 validation, 22 train -> x10
        assert run.split_sizes == {"train": 220, "validation": 2, "test": 6}

    def test_ts_reduces_network_input_to_2m_channels(self, tiny_dataset):
        plan = tiny_plan(transform="TS", m=1, n_runs=1)
        report = run_experiment(plan, tiny_dataset)
        assert report.runs[0].error is None
        # 3 raw channels, 2 bands -> 6 filter-bank channels -> 2m = 2 virtual
        assert report.runs[0].structure.startswith("2,")
        nts = run_experiment(tiny_plan(n_runs=1), tiny_dataset)
        assert nts.runs[0].structure.startswith("3,")

    def test_aggregates_match_runs(self, tiny_dataset):
        report = run_experiment(tiny_plan(), tiny_dataset)
        accs = report.accuracies()
        assert report.mean_accuracy == pytest.approx(float(np.mean(accs)), abs=1e-12)
        assert report.mean_kappa == pytest.approx(
            float(np.mean([r.kappa for r in report.runs])), abs=1e-12
        )

    def test_failed_runs_recorded_not_dropped(self, tiny_dataset):
        plan = tiny_plan(transform="TS", m=5, n_runs=2)  # m too large for 6 channels
        report = run_experiment(plan, tiny_dataset)
        assert report.n_failed == 2
        assert report.mean_accuracy is None
        assert all(r.error is not None for r in report.runs)

    @pytest.mark.parametrize(
        "name, fractions",
        [
            ("validation", dict(test_fraction=0.2, validation_fraction=0.1)),
            ("test", dict(test_fraction=0.1, validation_fraction=0.25)),
        ],
    )
    def test_empty_partition_is_named(self, name, fractions):
        spec = SyntheticSpec(num_classes=2, epochs_per_class=8, channels=3, samples=16,
                             sampling_rate=100.0, seed=22)
        report = run_experiment(tiny_plan(n_runs=1, **fractions), generate_synthetic(spec))
        assert report.n_failed == 1
        error = report.runs[0].error
        assert f"ValueError: run 0: the {name} partition is empty" in error
        assert f"class counts [8, 8] at {name}_fraction {fractions[name + '_fraction']}" in error

    def test_train_truncation(self, tiny_dataset):
        plan = tiny_plan(max_train_epochs=8, n_runs=1)
        report = run_experiment(plan, tiny_dataset)
        assert report.runs[0].split_sizes["train"] == 8

    def test_ovr_scheme_runs(self):
        spec = SyntheticSpec(
            num_classes=3, epochs_per_class=15, channels=2, samples=16,
            sampling_rate=100.0, mu_hz=10.0, beta_hz=20.0, noise_sd=0.5, seed=5,
        )
        dataset = generate_synthetic(spec)
        plan = tiny_plan(scheme="ovr", n_runs=1, max_iterations=2)
        report = run_experiment(plan, dataset)
        run = report.runs[0]
        assert run.error is None
        assert len(run.train_summaries) == 3  # one member network per class

    def test_report_json_round_trip(self, tiny_dataset):
        report = run_experiment(tiny_plan(n_runs=1), tiny_dataset)
        again = ExperimentReport.from_json(report.to_json())
        assert again.to_dict() == report.to_dict()

    def test_csp_leak_is_caught(self, tiny_dataset, monkeypatch):
        real_fit = experiment_module.fit_csp

        def leaky_fit(train, m, scheme, bank):
            polluted = train.subset([*range(len(train)), 0])
            return real_fit(polluted, m=m, scheme=scheme, bank=bank)

        monkeypatch.setattr(experiment_module, "fit_csp", leaky_fit)
        with pytest.raises(LeakageError, match="run 0: CSP was fitted on epochs outside the training partition"):
            run_experiment(tiny_plan(transform="TS", m=1, n_runs=1), tiny_dataset)

    @pytest.mark.parametrize("partition", ["test", "validation"])
    @pytest.mark.parametrize("transform", ["NTS", "TS"])
    def test_held_out_epoch_in_training_aborts(self, tiny_dataset, partition, transform):
        plan = tiny_plan(transform=transform, n_runs=1)
        planted = plant_training_copy(tiny_dataset, plan, partition)
        with pytest.raises(LeakageError, match="run 0: 1 training epoch"):
            run_experiment(plan, planted)

    def test_augment_leak_is_caught(self, tiny_dataset, monkeypatch):
        real_augment = experiment_module.augment_set

        def leaky_augment(dataset, cfg):
            polluted = EpochSet.from_epochs(
                [*dataset, next(iter(tiny_dataset))], num_classes=dataset.num_classes
            )
            return real_augment(polluted, cfg)

        monkeypatch.setattr(experiment_module, "augment_set", leaky_augment)
        with pytest.raises(LeakageError, match="run 0: augmentation consumed epochs outside the training partition"):
            run_experiment(tiny_plan(augment="A", n_runs=1), tiny_dataset)


@pytest.fixture(scope="module")
def matrix_report(tiny_dataset):
    return run_matrix(tiny_plan(), tiny_dataset)


class TestMatrix:
    def test_all_four_cells_present(self, matrix_report):
        assert set(matrix_report.cells) == set(MATRIX_CELLS)

    def test_cells_share_test_indices_per_run(self, matrix_report):
        for run_idx in range(2):
            index_sets = {
                cell: tuple(matrix_report.cells[cell].runs[run_idx].test_indices)
                for cell in MATRIX_CELLS
            }
            assert len(set(index_sets.values())) == 1

    def test_table_layout(self, matrix_report):
        table = matrix_report.table()
        lines = table.splitlines()
        assert len(lines) == 5
        for cell, line in zip(MATRIX_CELLS, lines[1:]):
            assert line.startswith(cell)
        assert "Mean Accuracy (Kappa)" in lines[0]

    def test_matrix_requires_ts_config(self, tiny_dataset):
        with pytest.raises(ValueError, match="m"):
            run_matrix(tiny_plan(m=None), tiny_dataset)


class TestCompareAugmentation:
    def test_identical_reports_give_p_one(self, tiny_dataset):
        report = run_experiment(tiny_plan(), tiny_dataset)
        result, summary = compare_augmentation(report, report)
        assert result.p == 1.0
        assert "p = " in summary

    def test_swapping_negates_t(self, tiny_dataset):
        a = run_experiment(tiny_plan(), tiny_dataset)
        b = run_experiment(tiny_plan(master_seed=12), tiny_dataset)
        fwd, _ = compare_augmentation(a, b)
        rev, _ = compare_augmentation(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.p == pytest.approx(rev.p, rel=1e-12)

    def test_report_lists_pair_their_means(self, tiny_dataset):
        a = run_experiment(tiny_plan(), tiny_dataset)
        b = run_experiment(tiny_plan(master_seed=12), tiny_dataset)
        result, _ = compare_augmentation([a, a, b], [b, b, a])
        assert result.df == 2

    def test_count_mismatch(self, tiny_dataset):
        a = run_experiment(tiny_plan(n_runs=1), tiny_dataset)
        b = run_experiment(tiny_plan(n_runs=2), tiny_dataset)
        with pytest.raises(ValueError, match="equal counts"):
            compare_augmentation(a, b)
