"""The end-to-end estimator facade."""

import threading
from dataclasses import replace

import numpy as np
import pytest

import mibci.base as base_module
import mibci.model as model_module
import mibci.training as training_module
from mibci.base import NotFittedError
from mibci.epochs import derive_seed
from mibci.mdn import MetaScheme
from mibci.model import WalshCnnClassifier, default_structure
from mibci.network import parse_structure
from mibci.synthetic import SyntheticSpec, generate_synthetic
from mibci.training import TrainConfig, TrainingDivergedError, train
from mibci.walsh import WalshCodebook


def separable_arrays(num_classes=2, per_class=12, channels=2, samples=32, seed=0):
    spec = SyntheticSpec(
        num_classes=num_classes,
        epochs_per_class=per_class,
        channels=channels,
        samples=samples,
        sampling_rate=64.0,
        mu_hz=10.0,
        beta_hz=20.0,
        noise_sd=0.3,
        default_gain=2.0,
        seed=seed,
    )
    dataset = generate_synthetic(spec)
    return dataset.to_array(), dataset.labels


FAST = dict(
    structure="2,5,8 / 8,16,16",
    learning_rate=3e-3,
    batch_size=8,
    max_iterations=12,
    patience=12,
    dropout_p=0.0,
)


class TestDefaultStructure:
    @pytest.mark.parametrize("channels,length", [(2, 32), (4, 250), (68, 251), (3, 1000), (2, 10)])
    def test_parses_and_lands_on_code_size(self, channels, length):
        text = default_structure(channels, length, output_dim=16)
        spec = parse_structure(text, input_channels=channels, input_length=length, output_dim=16)
        assert spec.flatten_length(length) * spec.blocks[-1].out_planes == 16


class TestSingleScheme:
    def test_fit_predict_score(self):
        X, y = separable_arrays()
        clf = WalshCnnClassifier(seed=1, **FAST)
        clf.fit(X, y)
        preds = clf.predict(X)
        assert preds.shape == (len(y),)
        assert set(np.unique(preds)) <= {1, 2}
        assert clf.score(X, y) >= 0.9
        assert clf.features(X).shape == (len(y), 16)
        assert clf.decision_distances(X).shape == (len(y), 2)

    def test_float32_input_reaches_training_and_prediction_uncopied(self, monkeypatch):
        """A float32 array is the one training and the forward read: no
        float64 copy is made of it, and no float32 copy after that. Other
        input still becomes float64, and both predict alike."""
        X, y = separable_arrays()
        X32, V32 = X.astype(np.float32), X[:6].astype(np.float32)
        seen = {}

        def recording(module, name, pick):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.setdefault(name, []).append(pick(args, out))
                return out
            monkeypatch.setattr(module, name, wrapper)

        recording(training_module, "_as_arrays", lambda args, out: out[0])
        recording(model_module, "scheme_predict", lambda args, out: args[0])
        recording(model_module, "forward", lambda args, out: args[2])
        clf = WalshCnnClassifier(seed=1, **FAST).fit(X32, y, V32, y[:6])
        predicted = clf.predict(X32)
        clf.features(X32)
        assert all(a is b for a, b in zip(seen["_as_arrays"], (X32, V32), strict=True))
        assert seen["scheme_predict"][0] is X32
        assert seen["forward"][0] is X32
        assert np.array_equal(WalshCnnClassifier(seed=1, **FAST).fit(X, y, X[:6], y[:6]).predict(X.tolist()),
                              predicted)

    def test_estimator_accepts_a_single_epoch(self):
        X, y = separable_arrays()
        clf = WalshCnnClassifier(seed=1, **{**FAST, "max_iterations": 2}).fit(X, y)
        assert np.array_equal(clf.predict(X[3]), clf.predict(X[3:4]))
        assert np.array_equal(clf.features(X[3]), clf.features(X[3:4]))
        assert np.array_equal(clf.decision_distances(X[3]), clf.decision_distances(X[3:4]))
        assert clf.decision_distances(X[3]).shape == (1, 2)

    def test_explicit_validation_set(self):
        X, y = separable_arrays()
        clf = WalshCnnClassifier(seed=0, **FAST)
        clf.fit(X[:16], y[:16], X[16:], y[16:])
        assert len(clf.train_reports_) == 1
        assert clf.train_reports_[0].stopped_at >= 1

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            WalshCnnClassifier().predict(np.zeros((1, 2, 32)))

    def test_get_set_params(self):
        clf = WalshCnnClassifier(code_size=32, seed=5)
        params = clf.get_params()
        assert params["code_size"] == 32
        clf.set_params(code_size=16, patience=3)
        assert clf.code_size == 16
        with pytest.raises(ValueError, match="invalid parameter"):
            clf.set_params(bogus=1)

    def test_validation_carve_is_seeded(self):
        X, y = separable_arrays()
        a = WalshCnnClassifier(seed=3, **FAST).fit(X, y)
        b = WalshCnnClassifier(seed=3, **FAST).fit(X, y)
        assert a.train_reports_[0].to_dict() == b.train_reports_[0].to_dict()


class _Carved(Exception):
    """Raised by a stand-in ``train`` to hand back the data fit carved."""


class TestValidationCarve:
    """Golden indices of fit's validation carve. Each epoch's samples hold
    its own index, so the data a stand-in ``train`` receives names the
    carve; the tuples were recorded from the estimator's own splitter
    before it was merged into the shared per-class draw."""

    @pytest.mark.parametrize(
        "y, fraction, seed, validation",
        [
            # 3 x 8 at 0.1: floor(0.8) = 0, so one epoch per class
            (np.repeat([1, 2, 3], 8), 0.1, 3, (6, 11, 23)),
            # 2 x 25 at 0.1: floor(2.5) = 2 per class
            (np.repeat([1, 2], 25), 0.1, 5, (8, 23, 39, 45)),
            # class 2 has one epoch, which stays in training
            (np.repeat([1, 2, 3], [7, 1, 7]), 0.2, 11, (0, 11)),
            # single scheme over labels {1, 3}: class 2 is missing
            (np.tile([1, 3], 9), 0.25, 13, (7, 12, 14, 17)),
        ],
        ids=["3x8-at-least-one", "2x25-floor", "single-epoch-class", "missing-class"],
    )
    def test_carve_matches_golden_indices(self, y, fraction, seed, validation, monkeypatch):
        def capture(spec, train_data, val_data, codebook, cfg):
            raise _Carved(train_data[0][:, 0, 0], val_data[0][:, 0, 0])

        monkeypatch.setattr(model_module, "train", capture)
        X = np.repeat(np.arange(len(y), dtype=float)[:, None, None], 16, axis=2)
        with pytest.raises(_Carved) as carved:
            WalshCnnClassifier(seed=seed, validation_fraction=fraction).fit(X, y)
        train_idx, val_idx = (tuple(int(i) for i in part) for part in carved.value.args)
        assert val_idx == validation
        assert train_idx == tuple(sorted(set(range(len(y))) - set(validation)))

    @pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5])
    def test_fraction_outside_unit_interval_refused_before_the_carve(self, fraction, monkeypatch):
        def capture(spec, train_data, val_data, codebook, cfg):
            raise _Carved(train_data[0][:, 0, 0], val_data[0][:, 0, 0])

        monkeypatch.setattr(model_module, "train", capture)
        y = np.repeat([1, 2], 8)
        X = np.repeat(np.arange(len(y), dtype=float)[:, None, None], 16, axis=2)
        with pytest.raises(ValueError, match=rf"validation_fraction must be in \[0, 1\), got {fraction}"):
            WalshCnnClassifier(seed=3, validation_fraction=fraction).fit(X, y)


class TestDecompositions:
    def test_ovo_member_count_and_prediction_range(self):
        X, y = separable_arrays(num_classes=3, per_class=8)
        clf = WalshCnnClassifier(scheme="ovo", seed=2, **{**FAST, "structure": "2,5,8 / 8,16,16", "max_iterations": 6})
        clf.fit(X, y)
        assert len(clf.scheme_.members) == 3
        assert len(clf.train_reports_) == 3
        preds = clf.predict(X)
        assert set(np.unique(preds)) <= {1, 2, 3}

    def test_ovr_member_count(self):
        X, y = separable_arrays(num_classes=3, per_class=8)
        clf = WalshCnnClassifier(scheme="ovr", seed=2, **{**FAST, "max_iterations": 6})
        clf.fit(X, y)
        assert len(clf.scheme_.members) == 3
        preds = clf.predict(X)
        assert preds.shape == (len(y),)

    @pytest.mark.parametrize("scheme", ["single", "ovo", "ovr"])
    def test_scheme_codebook_is_the_one_fit_trained_against(self, scheme, monkeypatch):
        seen = []

        def recording_train(spec, train_data, val_data, codebook, cfg):
            seen.append(codebook)
            return train(spec, train_data, val_data, codebook, cfg)

        monkeypatch.setattr(model_module, "train", recording_train)
        X, y = separable_arrays(num_classes=3, per_class=8)
        clf = WalshCnnClassifier(scheme=scheme, seed=1, **{**FAST, "max_iterations": 2}).fit(X, y)
        assert len(seen) == len(clf.scheme_.members)
        reloaded = MetaScheme.from_json(clf.scheme_.to_json())
        for codebook in (clf.scheme_.codebook, reloaded.codebook):
            assert codebook.num_classes == (3 if scheme == "single" else 2)
            for trained in seen:
                assert codebook == trained
                assert np.array_equal(codebook.targets, trained.targets)

    @pytest.mark.parametrize("scheme", ["ovo", "ovr"])
    def test_missing_class_rejected_before_any_training(self, scheme, monkeypatch):
        calls = []

        def recording_train(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(model_module, "train", recording_train)
        X, y = separable_arrays(num_classes=3, per_class=8)
        keep = y != 2
        with pytest.raises(ValueError, match=r"class\(es\) \[2\] have none"):
            WalshCnnClassifier(scheme=scheme, seed=1, **FAST).fit(X[keep], y[keep])
        assert calls == []

    def test_single_scheme_still_fits_with_a_missing_class(self):
        X, y = separable_arrays(num_classes=3, per_class=8)
        keep = y != 2
        clf = WalshCnnClassifier(seed=1, **{**FAST, "max_iterations": 2}).fit(X[keep], y[keep])
        assert clf.scheme_.num_classes == 3
        assert set(np.unique(clf.predict(X))) <= {1, 2, 3}

    def test_unknown_scheme(self):
        X, y = separable_arrays(per_class=4)
        with pytest.raises(ValueError, match="scheme"):
            WalshCnnClassifier(scheme="ovx", **FAST).fit(X, y)

    @pytest.mark.parametrize("scheme", ["single", "ovo"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("longer", "training data has 24 epochs but 26 labels"),
            ("shorter", "training data has 24 epochs but 22 labels"),
            ("validation", "validation data has 9 epochs but 8 labels"),
        ],
    )
    def test_misaligned_labels_rejected_before_any_step(self, scheme, case, message, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("backward ran on misaligned data")

        monkeypatch.setattr(training_module, "backward", no_step)
        X, y = separable_arrays(num_classes=3, per_class=8)
        X_val, y_val = separable_arrays(num_classes=3, per_class=3, seed=1)
        clf = WalshCnnClassifier(scheme=scheme, seed=1, **FAST)
        with pytest.raises(ValueError, match=message):
            if case == "longer":
                clf.fit(X, np.concatenate([y, [1, 2]]))
            elif case == "shorter":
                clf.fit(X, y[:-2])
            else:
                clf.fit(X, y, X_val, y_val[:-1])


    @pytest.mark.parametrize(
        "channels, samples, message",
        [
            (3, 64, "layer 1: input has 3 planes, block expects 2"),
            (2, 80, "remaining length of 9 samples flatten to 144 values, not output_dim 16"),
        ],
        ids=["channels", "length"],
    )
    def test_validation_set_that_does_not_fit_is_refused_before_any_step(
        self, channels, samples, message, monkeypatch
    ):
        def no_step(*args, **kwargs):
            raise AssertionError("backward ran before the validation set was checked")

        monkeypatch.setattr(training_module, "backward", no_step)
        X, y = separable_arrays(per_class=20, samples=64)
        X_val, y_val = separable_arrays(per_class=3, channels=channels, samples=samples, seed=1)
        clf = WalshCnnClassifier(structure="2,5,8 / 8,32,16", max_iterations=3, dropout_p=0.0)
        with pytest.raises(ValueError, match=message):
            clf.fit(X, y, X_val, y_val)

class TestConcurrentMembers:
    """Every scheme's members train through one member map, a thread pool
    when there are several; the result must not depend on it."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 4)

    @pytest.mark.parametrize("scheme", ["single", "ovo", "ovr"])
    def test_fit_matches_per_member_train(self, scheme):
        X, y = separable_arrays(num_classes=3, per_class=8)
        X_val, y_val = separable_arrays(num_classes=3, per_class=3, seed=1)
        settings = {**FAST, "dropout_p": 0.3, "max_iterations": 4, "patience": 4}
        clf = WalshCnnClassifier(scheme=scheme, seed=2, **settings).fit(X, y, X_val, y_val)

        problems = {"single": [(1, 2, 3)], "ovo": [(1, 2), (1, 3), (2, 3)], "ovr": [(1,), (2,), (3,)]}[scheme]
        assert [m.classes for m in clf.scheme_.members] == problems
        assert len(clf.train_reports_) == len(problems)
        codebook = WalshCodebook(3 if scheme == "single" else 2, 16)

        def binary(labels, classes):
            if len(classes) == 3:
                return np.ones(len(labels), bool), labels
            keep = np.isin(labels, classes) if len(classes) == 2 else np.ones(len(labels), bool)
            return keep, np.where(labels == classes[0], 1, 2)[keep]

        for k, classes in enumerate(problems):
            keep, y_bin = binary(y, classes)
            keep_val, yv_bin = binary(y_val, classes)
            cfg = TrainConfig(
                learning_rate=settings["learning_rate"], batch_size=settings["batch_size"],
                max_iterations=4, patience=4, seed=2 if scheme == "single" else derive_seed(2, "member", k),
            )
            params, report = train(clf.spec_, (X[keep], y_bin), (X_val[keep_val], yv_bin), codebook, cfg)
            assert clf.train_reports_[k].to_dict() == report.to_dict()
            for got, want in zip(clf.scheme_.members[k].params.blocks, params.blocks):
                for name in ("weight", "bias", "gamma", "beta", "running_mean", "running_var"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert (a is None and b is None) or np.array_equal(a, b), (k, name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_diverging_member_fails_the_fit(self, monkeypatch):
        bad_seed = derive_seed(2, "member", 1)

        def train_member_1_at_huge_rate(spec, train_data, val_data, codebook, cfg):
            if cfg.seed == bad_seed:
                cfg = replace(cfg, learning_rate=1e200)
            return train(spec, train_data, val_data, codebook, cfg)

        monkeypatch.setattr(model_module, "train", train_member_1_at_huge_rate)
        X, y = separable_arrays(num_classes=3, per_class=8)
        clf = WalshCnnClassifier(scheme="ovo", seed=2, **{**FAST, "batch_norm": False, "max_iterations": 3})
        threads = threading.active_count()
        with pytest.raises(TrainingDivergedError, match="non-finite loss"):
            clf.fit(X, y)
        assert not hasattr(clf, "scheme_")
        assert threading.active_count() == threads

    @pytest.mark.parametrize("scheme, members", [("single", 1), ("ovo", 3), ("ovr", 3)])
    def test_each_fit_maps_its_members_once(self, scheme, members, monkeypatch):
        calls = []

        def recording_pipeline(fn, items):
            calls.append(len(items))
            return base_module._pipeline(fn, items)

        monkeypatch.setattr(model_module, "_pipeline", recording_pipeline)
        X, y = separable_arrays(num_classes=3, per_class=8)
        WalshCnnClassifier(scheme=scheme, seed=1, **{**FAST, "max_iterations": 2}).fit(X, y)
        assert calls == [members]

    def test_single_scheme_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(base_module, "ThreadPoolExecutor", no_pool)
        X, y = separable_arrays()
        clf = WalshCnnClassifier(seed=1, **FAST).fit(X, y)
        assert clf.predict(X).shape == (len(y),)
