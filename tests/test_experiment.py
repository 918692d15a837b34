"""Runner data flow, the study matrix, and report plumbing."""

import json
import re
import tracemalloc
import weakref
from contextlib import closing

import numpy as np
import pytest

import mibci.base as base_module
import mibci.csp as csp_module
import mibci.experiment as experiment_module
from mibci.augment import AugmentConfig
from mibci.epochs import EpochSet
from mibci.experiment import (
    MATRIX_CELLS,
    ExperimentPlan,
    ExperimentReport,
    LeakageError,
    compare_augmentation,
    paired_accuracies,
    run_experiment,
    run_matrix,
)
from mibci.base import ROUND_EPOCHS
from mibci.model import WalshCnnClassifier, default_structure
from mibci.stats import paired_ttest
from mibci.synthetic import SyntheticSpec, generate_synthetic

from helpers import plant_training_copy, report_of

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

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_1_fails_at_plan_load(self, m):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            ExperimentPlan.from_dict(dict(tiny_plan(transform="TS").to_dict(), m=m))

    @pytest.mark.parametrize("limit", [0, -3])
    def test_max_train_epochs_below_1_fails_at_plan_load(self, limit):
        with pytest.raises(ValueError, match=rf"max_train_epochs must be >= 1, got {limit}"):
            ExperimentPlan.from_dict(dict(tiny_plan().to_dict(), max_train_epochs=limit))

    def test_bad_cells_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(transform="XX")
        with pytest.raises(ValueError):
            ExperimentPlan(augment="maybe")

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("learning_rate", -1, "learning_rate and batch_size must be positive"),
            ("batch_size", 0, "learning_rate and batch_size must be positive"),
            ("test_fraction", 1.5, r"test_fraction must be in \(0, 1\)"),
            ("bands", [[30, 10]], r"invalid band \(30.0, 10.0\)"),
            ("code_size", 3, "size must be a power of two in \\[2, 1024\\], got 3"),
            ("dropout_p", 1.5, r"dropout_p must be in \[0, 1\), got 1.5"),
            ("scheme", "foo", "unknown scheme kind 'foo'"),
            ("structure", "3,5", "layer 1 is not an in,kernel,out triple: '3,5'"),
        ],
    )
    def test_invalid_value_fails_at_plan_load(self, name, value, message):
        doc = dict(tiny_plan().to_dict(), **{name: value})
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_dict(doc)

    def test_json_round_trip(self):
        plan = tiny_plan()
        again = ExperimentPlan.from_json(__import__("json").dumps(plan.to_dict()))
        assert again == plan

    def test_augment_config_that_is_not_an_object_is_refused(self):
        with pytest.raises(ValueError, match="plan: field 'augment_config' must be a JSON object, got int"):
            ExperimentPlan.from_dict({"augment": "A", "augment_config": 5})

    def test_unknown_plan_key_is_refused(self):
        doc = dict(tiny_plan().to_dict(), learning_rat=0.1)
        with pytest.raises(ValueError, match="plan: ExperimentPlan has no field 'learning_rat'"):
            ExperimentPlan.from_dict(doc)

    def test_unknown_augment_config_key_is_refused(self):
        doc = tiny_plan().to_dict()
        doc["augment_config"]["copies"] = 1
        with pytest.raises(ValueError, match="plan augment_config: AugmentConfig has no field 'copies'"):
            ExperimentPlan.from_dict(doc)


class TestIntegerFields:
    @pytest.mark.parametrize(
        "field", ["m", "n_runs", "max_train_epochs", "batch_size", "max_iterations", "patience"]
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_plan_refuses_a_value_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            tiny_plan(transform="TS", **{field: value})

    def test_plan_document_refuses_a_float_before_any_run(self):
        doc = dict(tiny_plan().to_dict(), max_iterations=2.5)
        with pytest.raises(ValueError, match=re.escape("max_iterations must be an integer, got 2.5")):
            ExperimentPlan.from_dict(doc)

    def test_numpy_integers_are_integers(self):
        plan = tiny_plan(n_runs=np.int64(1), max_train_epochs=np.int32(8), max_iterations=np.int64(2))
        assert plan.n_runs == 1

    def test_report_names_a_run_key_that_is_not_a_field(self, tiny_dataset):
        doc = run_experiment(tiny_plan(n_runs=2, max_iterations=1), tiny_dataset).to_dict()
        doc["runs"][1]["extra"] = 1
        with pytest.raises(ValueError, match=re.escape("report run 1: RunResult has no field 'extra'")):
            ExperimentReport.from_dict(doc)


class TestRunExperiment:
    def test_deterministic_given_master_seed(self, tiny_dataset):
        plan = tiny_plan(n_runs=1)
        a = run_experiment(plan, tiny_dataset)
        b = run_experiment(plan, tiny_dataset)
        assert a.to_dict() == b.to_dict()

    def test_float32_training_runs_repeat_exactly(self, tiny_dataset):
        plan = tiny_plan(augment="A", dropout_p=0.2, n_runs=2)
        a = run_experiment(plan, tiny_dataset)
        b = run_experiment(plan, tiny_dataset)
        assert a.n_failed == 0
        assert [r.to_dict() for r in a.runs] == [r.to_dict() for r in b.runs]

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

    def test_plan_without_structure_records_the_classifier_default(self, tiny_dataset):
        for transform, channels in (("NTS", 3), ("TS", 2)):
            run = run_experiment(tiny_plan(transform=transform, structure=None, n_runs=1), tiny_dataset).runs[0]
            assert run.error is None
            assert run.structure == default_structure(channels, 16, 16)

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
        """The split's sizes do not depend on the run, so the plan fails
        before any run, not in each."""
        spec = SyntheticSpec(num_classes=2, epochs_per_class=8, channels=3, samples=16,
                             sampling_rate=100.0, seed=22)
        message = (f"the {name} partition is empty: class counts [8, 8] at {name}_fraction "
                   f"{fractions[name + '_fraction']} leave no {name} epoch")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            run_experiment(tiny_plan(n_runs=2, **fractions), generate_synthetic(spec))

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

    def test_report_from_dict_equals_from_json(self, tiny_dataset):
        doc = run_experiment(tiny_plan(n_runs=2), tiny_dataset).to_dict()
        assert ExperimentReport.from_dict(doc) == ExperimentReport.from_json(json.dumps(doc))

    def test_csp_leak_is_caught(self, tiny_dataset, monkeypatch):
        real_fit = experiment_module._fit_raw

        def leaky_fit(dataset, m, rows, **kwargs):
            return real_fit(dataset, m, rows=[*rows, rows[0]], **kwargs)

        monkeypatch.setattr(experiment_module, "_fit_raw", leaky_fit)
        with pytest.raises(LeakageError, match="run 0: CSP was fitted on epochs outside the training partition"):
            run_experiment(tiny_plan(transform="TS", m=1, n_runs=1), tiny_dataset)

    def test_ts_fit_keeps_no_round_and_one_pass_projects_every_partition(self, tiny_dataset, monkeypatch):
        """The fit takes every training round and projects none. Then one
        pass over the rows [train | validation | test] takes and projects
        round by round, its rounds straddling the partitions; one filtered
        round is alive at each projection. One usable CPU keeps the events
        in one thread; the threaded rounds are the same bits (test_csp)."""
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 1)
        events, filtered = [], []
        real_rounds, real_project = csp_module._filter_rounds, csp_module.CspModel.project

        def rounds(*args):
            with closing(real_rounds(*args)) as inner:
                for r in inner:
                    events.append(("filter", len(r)))
                    filtered.append(weakref.ref(r))
                    yield r

        def projecting(self, X):
            events.append(("project", len(X), sum(ref() is not None for ref in filtered)))
            return real_project(self, X)

        monkeypatch.setattr(csp_module, "_filter_rounds", rounds)
        monkeypatch.setattr(csp_module.CspModel, "project", projecting)
        report = run_experiment(tiny_plan(transform="TS", m=1, n_runs=1), tiny_dataset)
        sizes = report.runs[0].split_sizes

        def chunks(n):
            return [min(ROUND_EPOCHS, n - start) for start in range(0, n, ROUND_EPOCHS)]

        train = chunks(sizes["train"])
        assert len(train) > 1 and sizes["train"] % ROUND_EPOCHS
        expected = [("filter", b) for b in train]
        for b in chunks(sum(sizes.values())):
            expected += [("filter", b), ("project", b, 1)]
        assert events == expected

    @pytest.mark.parametrize("augment, dtype", [("NA", np.float32), ("A", np.float64)])
    def test_ts_partitions_are_float32_unless_augmented(self, tiny_dataset, augment, dtype, monkeypatch):
        """Without augmentation every reader of a TS partition rounds it to
        float32, so the apply pass stores it so; augmentation draws its
        variants from the float64 training partition."""
        stored, fitted = [], []
        real_apply, real_augment = experiment_module._apply_raw, experiment_module.augment_set
        real_fit = WalshCnnClassifier.fit

        def applying(*args):
            out = real_apply(*args)
            stored.append(out.dtype)
            return out

        def augmenting(dataset, cfg, **kwargs):
            fitted.append(("augment", dataset.to_array().dtype))
            return real_augment(dataset, cfg, **kwargs)

        def fitting(self, X, y, X_val=None, y_val=None):
            fitted.append(("fit", X.dtype, X_val.dtype))
            return real_fit(self, X, y, X_val, y_val)

        monkeypatch.setattr(experiment_module, "_apply_raw", applying)
        monkeypatch.setattr(experiment_module, "augment_set", augmenting)
        monkeypatch.setattr(WalshCnnClassifier, "fit", fitting)
        report = run_experiment(tiny_plan(transform="TS", augment=augment, n_runs=1), tiny_dataset)
        assert report.n_failed == 0, report.runs[0].error
        assert stored == [dtype]
        if augment == "NA":
            assert fitted == [("fit", np.float32, np.float32)]
        else:
            assert fitted == [("augment", np.float64), ("fit", np.float32, np.float64)]

    def test_float32_ts_partitions_change_no_result(self, tiny_dataset, monkeypatch):
        plan = tiny_plan(transform="TS", n_runs=2)
        rounded = run_experiment(plan, tiny_dataset)
        real_apply = experiment_module._apply_raw
        monkeypatch.setattr(experiment_module, "_apply_raw", lambda *args: real_apply(*args[:4]))
        wide = run_experiment(plan, tiny_dataset)
        assert [r.to_dict() for r in rounded.runs] == [r.to_dict() for r in wide.runs]

    def test_ts_run_holds_no_filtered_partition(self):
        """A TS run holds no filtered partition and no filtered block: the
        fit keeps no round and the one apply pass projects each round as it
        arrives, into float32 partitions that training reads without a copy.
        With the filtered training partition held from the fit to its
        projection the traced peak was 1.52 times that partition; with
        float64 partitions, which training copied to float32, 0.83 times; it
        is 0.74 times now, set by training."""
        dataset = generate_synthetic(SyntheticSpec(num_classes=4, epochs_per_class=30, channels=24,
                                                   samples=200, seed=3))
        plan = ExperimentPlan(transform="TS", m=1, structure="8,5,8 / 8,100,16", code_size=16,
                              max_iterations=1, batch_size=16, dropout_p=0.0, n_runs=1)
        run_experiment(plan, dataset)  # first use loads scipy and fills its caches
        tracemalloc.start()
        try:
            report = run_experiment(plan, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        run = report.runs[0]
        assert run.error is None, run.error
        filtered_bytes = run.split_sizes["train"] * 24 * 5 * 200 * 8
        assert peak <= 0.78 * filtered_bytes, (peak, filtered_bytes)

    def test_nts_a_run_holds_its_augmented_set_once_in_float32(self):
        """The augmented training set is stored in float32, as training reads
        it: no float64 copy of it, no float32 copy made by training and no
        copy of its original rows for the leakage check. With those three the
        traced peak was 5.15 times the float32 set; it is 2.95 times now."""
        dataset = generate_synthetic(SyntheticSpec(num_classes=2, epochs_per_class=60, channels=4, samples=250,
                                                   noise_sd=2.0, default_gain=2.0, seed=5))
        plan = ExperimentPlan(augment="A", structure="4,5,12 / 12,5,12 / 12,5,12 / 12,5,12 / 12,16,16",
                              code_size=16, batch_size=64, max_iterations=1, patience=1, dropout_p=0.0,
                              n_runs=1, master_seed=3)
        run_experiment(plan, dataset)
        tracemalloc.start()
        try:
            report = run_experiment(plan, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        run = report.runs[0]
        assert run.error is None, run.error
        set_bytes = run.split_sizes["train"] * 4 * 250 * np.dtype(np.float32).itemsize
        assert peak <= 3.25 * set_bytes, (peak, set_bytes)

    @pytest.mark.parametrize("partition", ["test", "validation"])
    @pytest.mark.parametrize("transform", ["NTS", "TS"])
    def test_held_out_epoch_in_training_aborts(self, tiny_dataset, partition, transform):
        plan = tiny_plan(transform=transform, n_runs=1)
        planted = plant_training_copy(tiny_dataset, plan, partition)
        with pytest.raises(LeakageError, match="run 0: 1 training epoch"):
            run_experiment(plan, planted)

    def test_augment_leak_is_caught(self, tiny_dataset, monkeypatch):
        real_augment = experiment_module.augment_set

        def leaky_augment(dataset, cfg, **kwargs):
            both = (dataset, tiny_dataset.subset([0]))
            polluted = EpochSet(
                np.concatenate([s.data for s in both]), np.concatenate([s.labels for s in both]),
                dataset.sampling_rate, dataset.num_classes,
                np.concatenate([s.subject_ids for s in both]), np.concatenate([s.origins for s in both]),
            )
            return real_augment(polluted, cfg, **kwargs)

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
        # a report of 2 runs and one of 3 pair their 2 common runs
        a = run_experiment(tiny_plan(n_runs=2), tiny_dataset)
        b = run_experiment(tiny_plan(n_runs=3), tiny_dataset)
        result, _ = compare_augmentation(a, b)
        assert result == paired_ttest(a.accuracies(), b.accuracies()[:2])
        assert result.df == 1

    def test_runs_pair_by_run_index(self):
        # only runs 0 and 3 succeeded in both; by position A's run 2 met NA's run 1
        a = report_of([0.9, None, 0.8, 0.85])
        na = report_of([0.7, 0.6, None, 0.65])
        assert paired_accuracies(a, na) == ([0.9, 0.85], [0.7, 0.65])
        result, summary = compare_augmentation(a, na)
        assert result == paired_ttest([0.9, 0.85], [0.7, 0.65])
        assert "t(1)" in summary
