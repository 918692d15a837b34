"""Spatial-filter fitting against planted-covariance oracles."""

import numpy as np
import pytest

from mibci.csp import CspModel, CspTransformer, apply_csp_set, fit_csp
from mibci.bandpass import FilterBankSpec, apply_filter_bank_set
from mibci.epochs import EpochSet

from helpers import make_epoch


def planted_dataset(dim=6, n_ep=40, samples=100, ratio=10.0, seed=1):
    """Class 1 has variance `ratio` along one random direction, class 2 is white."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    a1 = np.eye(dim) + (np.sqrt(ratio) - 1) * np.outer(u, u)
    x1 = np.stack([a1 @ rng.normal(size=(dim, samples)) for _ in range(n_ep)])
    x2 = np.stack([rng.normal(size=(dim, samples)) for _ in range(n_ep)])
    X = np.concatenate([x1, x2])
    y = [1] * n_ep + [2] * n_ep
    return EpochSet(X, y, sampling_rate=100.0), x1, x2


def class_mean_covs(x1, x2):
    def mean_cov(xs):
        covs = [x @ x.T for x in xs]
        return np.mean([c / np.trace(c) for c in covs], axis=0)

    return mean_cov(x1), mean_cov(x2)


class TestFitTwoClass:
    def test_top_component_beats_every_raw_channel(self):
        dataset, x1, x2 = planted_dataset()
        model = fit_csp(dataset, m=1)
        w = model.projection[0]
        v1 = np.mean([w @ (x @ x.T) @ w for x in x1])
        v2 = np.mean([w @ (x @ x.T) @ w for x in x2])
        csp_ratio = v1 / v2
        # brute force over coordinate axes as the oracle
        channel_ratios = [
            np.mean(x1[:, c, :] ** 2) / np.mean(x2[:, c, :] ** 2) for c in range(x1.shape[1])
        ]
        assert csp_ratio >= max(channel_ratios)

    def test_whitening_identity(self):
        dataset, x1, x2 = planted_dataset()
        model = fit_csp(dataset, m=2)
        c1, c2 = class_mean_covs(x1, x2)
        w_full = model.full_filters[0]
        identity = w_full @ (c1 + c2) @ w_full.T
        assert np.abs(identity - np.eye(len(identity))).max() <= 1e-8

    def test_selected_filter_variances_sum_to_one(self):
        dataset, x1, x2 = planted_dataset()
        model = fit_csp(dataset, m=2)
        c1, c2 = class_mean_covs(x1, x2)
        for row in model.projection:
            assert abs(row @ c1 @ row + row @ c2 @ row - 1.0) <= 1e-6

    def test_identical_class_statistics_gives_half_eigenvalues(self):
        rng = np.random.default_rng(3)
        x = np.stack([rng.normal(size=(4, 50)) for _ in range(10)])
        dataset = EpochSet(
            np.concatenate([x, x]), [1] * 10 + [2] * 10, sampling_rate=100.0
        )
        model = fit_csp(dataset, m=1)
        assert np.abs(model.eigenvalues[0] - 0.5).max() <= 1e-6

    def test_eigenvalues_sorted_descending(self):
        dataset, _, _ = planted_dataset()
        model = fit_csp(dataset, m=2)
        evals = model.eigenvalues[0]
        assert np.all(np.diff(evals) <= 1e-12)

    def test_selection_stable_under_epoch_permutation(self):
        dataset, _, _ = planted_dataset()
        perm = np.random.default_rng(9).permutation(len(dataset))
        shuffled = dataset.subset([int(i) for i in perm])
        a = fit_csp(dataset, m=2)
        b = fit_csp(shuffled, m=2)
        assert np.allclose(a.projection, b.projection, atol=1e-9)

    def test_fingerprint_recorded(self):
        dataset, _, _ = planted_dataset(n_ep=5)
        model = fit_csp(dataset, m=1)
        assert model.fitted_on == dataset.fingerprint

    def test_two_class_scheme_requires_two_classes(self):
        rng = np.random.default_rng(8)
        X = np.stack([rng.normal(size=(4, 30)) for _ in range(9)])
        dataset = EpochSet(X, [1, 1, 1, 2, 2, 2, 3, 3, 3], sampling_rate=100.0)
        with pytest.raises(ValueError, match="exactly two"):
            fit_csp(dataset, m=1, scheme="two_class")

    def test_m_out_of_range(self):
        dataset, _, _ = planted_dataset(dim=4, n_ep=4)
        with pytest.raises(ValueError, match="m="):
            fit_csp(dataset, m=3)

    def test_singular_composite_gets_ridge_warning(self):
        rng = np.random.default_rng(5)
        base = np.stack([rng.normal(size=(2, 40)) for _ in range(8)])
        X = np.concatenate([base, base], axis=1)  # duplicated channels: rank-deficient
        dataset = EpochSet(X, [1] * 4 + [2] * 4, sampling_rate=100.0)
        with pytest.warns(RuntimeWarning, match="ridge"):
            model = fit_csp(dataset, m=1)
        assert np.isfinite(model.projection).all()


class TestOneVsRest:
    def test_row_count_is_2m_per_class(self):
        rng = np.random.default_rng(2)
        X = np.stack([rng.normal(size=(6, 60)) for _ in range(30)])
        y = [1] * 10 + [2] * 10 + [3] * 10
        dataset = EpochSet(X, y, sampling_rate=100.0)
        model = fit_csp(dataset, m=2, scheme="one_vs_rest")
        assert model.projection.shape == (2 * 2 * 3, 6)
        assert len(model.eigenvalues) == 3


class TestApply:
    def test_virtual_channel_count(self):
        dataset, _, _ = planted_dataset(dim=15, n_ep=10)
        model = fit_csp(dataset, m=1)
        out = next(iter(apply_csp_set(dataset, model)))
        assert out.data.shape == (2, dataset.n_samples)

    def test_identity_rows_select_raw_channels(self):
        dataset, _, _ = planted_dataset(dim=4, n_ep=3)
        rows = np.zeros((2, 4))
        rows[0, 1] = 1.0
        rows[1, 3] = 1.0
        model = CspModel(
            m=1,
            scheme="two_class",
            projection=rows,
            bank=FilterBankSpec(),
            num_classes=2,
            input_channels=4,
            fitted_on="fixture",
        )
        ep = next(iter(dataset))
        out = next(iter(apply_csp_set(dataset, model)))
        assert np.array_equal(out.data[0], ep.data[1])
        assert np.array_equal(out.data[1], ep.data[3])

    def test_linearity(self):
        dataset, _, _ = planted_dataset(dim=4, n_ep=3)
        model = fit_csp(dataset, m=1)
        scaled = dataset.with_data(3.5 * dataset.to_array())
        assert np.allclose(
            apply_csp_set(scaled, model).to_array(), 3.5 * apply_csp_set(dataset, model).to_array()
        )

    def test_channel_mismatch_rejected(self):
        dataset, _, _ = planted_dataset(dim=4, n_ep=3)
        model = fit_csp(dataset, m=1)
        with pytest.raises(ValueError, match="channels"):
            apply_csp_set(EpochSet.from_epochs((make_epoch(np.zeros((3, 10)), rate=100.0),), num_classes=2), model)

    def test_set_apply_keeps_length(self):
        dataset, _, _ = planted_dataset(dim=4, n_ep=3, samples=33)
        model = fit_csp(dataset, m=2)
        out = apply_csp_set(dataset, model)
        assert out.n_samples == 33
        assert out.n_channels == 4


class TestSerialization:
    def test_json_round_trip(self):
        dataset, _, _ = planted_dataset(dim=4, n_ep=4)
        model = fit_csp(dataset, m=1)
        restored = CspModel.from_json(model.to_json())
        assert np.allclose(restored.projection, model.projection)
        assert restored.m == model.m
        assert restored.scheme == model.scheme
        assert restored.bank == model.bank
        assert restored.fitted_on == model.fitted_on


class TestTransformer:
    def test_fit_transform_shapes_and_params(self):
        rng = np.random.default_rng(0)
        n, e, length = 12, 3, 128
        X = rng.normal(size=(n, e, length))
        y = np.array([1] * 6 + [2] * 6)
        tr = CspTransformer(m=1, sampling_rate=250.0)
        out = tr.fit_transform(X, y)
        assert out.shape == (n, 2, length)
        params = tr.get_params()
        assert params["m"] == 1
        tr.set_params(m=2)
        assert tr.m == 2

    def test_transform_equals_the_set_pipeline(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 3, 128))
        y = np.array([1] * 6 + [2] * 6)
        tr = CspTransformer(m=1, sampling_rate=250.0).fit(X, y)
        dataset = EpochSet(X, y, sampling_rate=250.0)
        expected = apply_csp_set(apply_filter_bank_set(dataset, tr.model_.bank), tr.model_)
        assert np.array_equal(tr.transform(X), expected.to_array())

    def test_transform_before_fit_raises(self):
        from mibci.base import NotFittedError

        with pytest.raises(NotFittedError):
            CspTransformer().transform(np.zeros((1, 2, 64)))
