"""The end-to-end estimator facade."""

from dataclasses import replace

import numpy as np
import pytest

import mibci.mdn as mdn_module
import mibci.model as model_module
from mibci.base import NotFittedError
from mibci.epochs import derive_seed
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

    def test_unknown_scheme(self):
        X, y = separable_arrays(per_class=4)
        with pytest.raises(ValueError, match="scheme"):
            WalshCnnClassifier(scheme="ovx", **FAST).fit(X, y)


class TestConcurrentMembers:
    """OVO/OVR members train on a thread pool; the result must not depend on it."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(mdn_module, "_usable_cpus", lambda: 4)

    @pytest.mark.parametrize("scheme", ["ovo", "ovr"])
    def test_fit_matches_per_member_train(self, scheme):
        X, y = separable_arrays(num_classes=3, per_class=8)
        X_val, y_val = separable_arrays(num_classes=3, per_class=3, seed=1)
        settings = {**FAST, "dropout_p": 0.3, "max_iterations": 4, "patience": 4}
        clf = WalshCnnClassifier(scheme=scheme, seed=2, **settings).fit(X, y, X_val, y_val)

        problems = [(1, 2), (1, 3), (2, 3)] if scheme == "ovo" else [(1,), (2,), (3,)]
        assert [m.classes for m in clf.scheme_.members] == problems
        assert len(clf.train_reports_) == len(problems)
        codebook = WalshCodebook.for_classes(2, 16)

        def binary(labels, classes):
            keep = np.isin(labels, classes) if len(classes) == 2 else np.ones(len(labels), bool)
            return keep, np.where(labels == classes[0], 1, 2)[keep]

        for k, classes in enumerate(problems):
            keep, y_bin = binary(y, classes)
            keep_val, yv_bin = binary(y_val, classes)
            cfg = TrainConfig(
                learning_rate=settings["learning_rate"], batch_size=settings["batch_size"],
                max_iterations=4, patience=4, seed=derive_seed(2, "member", k),
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
        with pytest.raises(TrainingDivergedError, match="non-finite loss"):
            clf.fit(X, y)
        assert not hasattr(clf, "scheme_")

    def test_single_scheme_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(mdn_module, "ThreadPoolExecutor", no_pool)
        X, y = separable_arrays()
        clf = WalshCnnClassifier(seed=1, **FAST).fit(X, y)
        assert clf.predict(X).shape == (len(y),)
