"""Spatial-filter fitting against planted-covariance oracles."""

import json
import re
import threading
import tracemalloc
import weakref
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mibci.bandpass as bandpass_module
import mibci.csp as csp_module
import mibci.base as base_module
import mibci.network as network_module
from mibci.base import BLOCK_EPOCHS, ROUND_EPOCHS, _blocks
from mibci.csp import (
    CspModel,
    CspTransformer,
    _apply_raw,
    _csp_pair,
    _fit_raw,
    _normalized_covariances,
    apply_csp_set,
    fit_csp,
)
from mibci.bandpass import FilterBankSpec, _filter_bank, apply_filter_bank_set
from mibci.epochs import EpochSet
from mibci.network import forward, init_params, parse_structure


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


class TestCovariances:
    def test_symmetric_trace_normalized_and_equal_to_the_per_epoch_product(self):
        X = np.random.default_rng(3).normal(size=(7, 11, 50)) * np.arange(1, 12)[None, :, None]
        covs = _normalized_covariances(X)
        assert np.array_equal(covs, covs.transpose(0, 2, 1))
        assert np.allclose(np.trace(covs, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-14)
        expected = np.stack([x @ x.T / np.trace(x @ x.T) for x in X])
        assert np.max(np.abs(covs - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_normalizes_in_place(self):
        """The covariances are divided by their traces in place: the only
        large allocation is the one (n, C, C) result."""
        X = np.random.default_rng(5).normal(size=(200, 110, 20))
        result_bytes = 200 * 110 * 110 * 8
        tracemalloc.start()
        try:
            covs = _normalized_covariances(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert covs.nbytes == result_bytes
        assert peak <= 1.1 * result_bytes

    def test_zero_power_epoch_rejected(self):
        X = np.random.default_rng(4).normal(size=(3, 2, 10))
        X[1] = 0
        with pytest.raises(ValueError, match="zero total power"):
            _normalized_covariances(X)


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

    def test_filters_map_the_composite_to_identity(self):
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
    @pytest.mark.parametrize("classes, scheme", [(2, "two_class"), (3, "one_vs_rest")])
    def test_auto_scheme_follows_the_class_count(self, classes, scheme):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10 * classes, 6, 60))
        dataset = EpochSet(X, np.repeat(np.arange(1, classes + 1), 10), sampling_rate=100.0)
        model = fit_csp(dataset, m=2)
        assert model.scheme == scheme
        assert np.array_equal(model.projection, fit_csp(dataset, m=2, scheme=scheme).projection)

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
        out = apply_csp_set(dataset, model).data[0]
        assert out.shape == (2, dataset.n_samples)

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
        ep = dataset.data[0]
        out = apply_csp_set(dataset, model).data[0]
        assert np.array_equal(out[0], ep[1])
        assert np.array_equal(out[1], ep[3])

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
            apply_csp_set(EpochSet(np.zeros((1, 3, 10)), [1], 100.0, num_classes=2), model)

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"input_channels": 0}, "field 'input_channels' must be >= 1, got 0"),
            ({"input_channels": -4}, "field 'input_channels' must be >= 1, got -4"),
            ({"input_channels": 3}, "field 'projection' holds 8 values, not whole rows of input_channels = 3"),
            ({"projection": [0.5] * 7}, "field 'projection' holds 7 values, not whole rows of input_channels = 4"),
        ],
    )
    def test_document_shape_fields_checked_before_the_reshape(self, edit, message):
        dataset, _, _ = planted_dataset(dim=4, n_ep=4)
        doc = json.loads(fit_csp(dataset, m=1).to_json())
        with pytest.raises(ValueError, match=re.escape(f"csp document: {message}")):
            CspModel.from_json(json.dumps({**doc, **edit}))


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

    def test_channel_mismatch_rejected_before_filtering(self, monkeypatch):
        rng = np.random.default_rng(5)
        tr = CspTransformer(m=1, sampling_rate=250.0).fit(rng.normal(size=(12, 3, 128)), [1] * 6 + [2] * 6)

        def no_filtering(*args):
            raise AssertionError("a mismatched input reached the filter bank")

        monkeypatch.setattr(bandpass_module, "_filter_bank", no_filtering)
        with pytest.raises(ValueError, match="epochs have 4 channels x 5 bands = 20 filtered channels, model expects 15"):
            tr.transform(rng.normal(size=(2, 4, 128)))

    def test_transform_before_fit_raises(self):
        from mibci.base import NotFittedError

        with pytest.raises(NotFittedError):
            CspTransformer().transform(np.zeros((1, 2, 64)))


SMALL_BANK = FilterBankSpec(bands=((8.0, 12.0), (18.0, 24.0)))


def small_bank(X):
    """``X`` through SMALL_BANK at 100 Hz, as one array."""
    return _filter_bank(X, SMALL_BANK, SMALL_BANK.sections(100.0))


def watching(real_rounds, see):
    """``real_rounds`` (``_filter_rounds``) with ``see`` called on each round as it is yielded."""

    def rounds(*args, **kwargs):
        with closing(real_rounds(*args, **kwargs)) as inner:
            for r in inner:
                see(r)
                yield r

    return rounds


def reference_fit(filtered, labels, num_classes, m, scheme):
    """The whole-array formula the streamed fit replaced: one covariance
    stack for the set and a boolean-index mean per class and per rest."""
    covs = _normalized_covariances(filtered)
    means = [covs[labels == c].mean(axis=0) for c in range(1, num_classes + 1)]
    rests = [covs[labels != c].mean(axis=0) for c in range(1, num_classes + 1)]
    pairs = [(means[0], means[1])] if scheme == "two_class" else list(zip(means, rests))
    return np.vstack([_csp_pair(own, rest, m)[0] for own, rest in pairs]), means, rests


@st.composite
def labelled_epochs(draw):
    """Raw epochs spanning one to four blocks, every class at least twice, labels in shuffled order."""
    num_classes = draw(st.sampled_from([2, 4]))
    scheme = draw(st.sampled_from(["two_class", "one_vs_rest"] if num_classes == 2 else ["one_vs_rest"]))
    n = draw(st.integers(2 * num_classes, 3 * BLOCK_EPOCHS + 1))
    extra = n - 2 * num_classes
    rest = draw(st.lists(st.integers(1, num_classes), min_size=extra, max_size=extra))
    labels = np.array(draw(st.permutations([*range(1, num_classes + 1)] * 2 + rest)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, draw(st.integers(1, 3)), 48)) * rng.uniform(0.1, 10.0, size=(n, 1, 1))
    return X, labels, num_classes, scheme


class TestStreamedFit:
    @settings(max_examples=40, deadline=None)
    @given(labelled_epochs())
    def test_equals_the_whole_array_formula_bit_for_bit(self, case):
        X, labels, num_classes, scheme = case
        filtered = small_bank(X)
        projection, means, rests = reference_fit(filtered, labels, num_classes, 1, scheme)
        counts = np.bincount(labels - 1, minlength=num_classes)
        got_means, got_rests = csp_module._class_means(_blocks(filtered), labels, counts)
        assert np.array_equal(got_means, np.stack(means))
        assert np.array_equal(got_rests, np.stack(rests))

        raw = EpochSet(X, labels, 100.0, num_classes=num_classes)
        streamed = _fit_raw(raw, 1, scheme, SMALL_BANK)
        assert np.array_equal(streamed.projection, projection)
        assert streamed.fitted_on == raw.fingerprint
        on_filtered = fit_csp(raw.with_data(filtered), m=1, scheme=scheme, bank=SMALL_BANK)
        assert np.array_equal(on_filtered.projection, projection)

    def test_rows_fit_equals_the_fit_of_their_subset(self):
        X, labels = np.random.default_rng(8).normal(size=(80, 2, 48)), np.tile([1, 2, 3], 27)[:80]
        raw = EpochSet(X, labels, 100.0)
        rows = np.random.default_rng(9).permutation(80)[:70]
        model = _fit_raw(raw, 1, "auto", SMALL_BANK, rows=rows)
        subset = raw.subset(rows)
        assert np.array_equal(model.projection, _fit_raw(subset, 1, "auto", SMALL_BANK).projection)
        assert model.fitted_on == subset.fingerprint

    def test_fit_rounds_are_the_filtered_rows_and_apply_projects_them_like_the_whole(self, monkeypatch):
        """The fit filters ``rows`` in rounds and keeps none; filtering the
        same rows again through ``_apply_raw`` projects them like the whole."""
        X, labels = np.random.default_rng(10).normal(size=(75, 2, 48)), np.tile([1, 2], 38)[:75]
        raw = EpochSet(X, labels, 100.0)
        rows = np.arange(75)[::-1]
        seen = []
        monkeypatch.setattr(csp_module, "_filter_rounds",
                            watching(csp_module._filter_rounds, lambda r: seen.append(r.copy())))
        model = _fit_raw(raw, 1, "auto", SMALL_BANK, rows=rows)
        assert [len(r) for r in seen] == [ROUND_EPOCHS] * (75 // ROUND_EPOCHS) + [75 % ROUND_EPOCHS]
        whole = small_bank(X[rows])
        assert np.array_equal(np.concatenate(seen), whole)
        assert np.array_equal(_apply_raw(model, X, 100.0, rows), model.project(whole))

    def test_block_wise_apply_equals_projecting_the_whole_filtered_set(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(3 * BLOCK_EPOCHS + 1, 2, 48))
        model = _fit_raw(EpochSet(X, np.tile([1, 2], len(X))[: len(X)], 100.0), 1, "auto", SMALL_BANK)
        whole = model.project(small_bank(X))
        assert np.array_equal(_apply_raw(model, X, 100.0), whole)
        rows = rng.permutation(len(X))[:50]
        expected = model.project(small_bank(X[rows]))
        assert np.array_equal(_apply_raw(model, X, 100.0, rows), expected)
        assert np.array_equal(CspTransformer(m=1, bands=SMALL_BANK.bands, sampling_rate=100.0).fit(
            X, np.tile([1, 2], len(X))[: len(X)]).transform(X), whole)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("block", [6, BLOCK_EPOCHS])
    def test_one_apply_over_every_partition_equals_one_apply_per_partition(self, block, dtype, monkeypatch):
        """One pass over the rows ``[train | validation | test]``, whose blocks
        straddle the partitions, gives each partition's projection bit for
        bit, as a TS run needs."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(80, 2, 48)).astype(dtype)
        order = rng.permutation(80)
        partitions = order[:43], order[43:50], order[50:]
        model = _fit_raw(EpochSet(X, np.tile([1, 2], 40), 100.0), 1, "auto", SMALL_BANK, rows=partitions[0])
        monkeypatch.setattr(base_module, "BLOCK_EPOCHS", block)
        assert 43 % block and 50 % block  # a block holds rows of two partitions at both edges
        one = _apply_raw(model, X, 100.0, np.concatenate(partitions))
        separate = [_apply_raw(model, X, 100.0, rows) for rows in partitions]
        assert np.array_equal(one, np.concatenate(separate))
        assert np.array_equal(one, model.project(small_bank(X[order])))

    def test_fit_keeps_no_filtered_round(self, monkeypatch):
        alive = []
        monkeypatch.setattr(csp_module, "_filter_rounds",
                            watching(csp_module._filter_rounds, lambda r: alive.append(weakref.ref(r))))
        X = np.random.default_rng(12).normal(size=(2 * BLOCK_EPOCHS + 3, 2, 48))
        _fit_raw(EpochSet(X, np.tile([1, 2], len(X))[: len(X)], 100.0), 1, "auto", SMALL_BANK)
        assert len(alive) == -(-len(X) // ROUND_EPOCHS) and all(ref() is None for ref in alive)


class TestPipeline:
    """The front end's rounds are filtered on one thread per usable CPU;
    the covariances, ``eigh`` and the projection stay on the calling thread
    in epoch order, so every CPU count gives the same bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fit_and_apply_are_the_same_bits_at_every_cpu_count(self, dtype, monkeypatch):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(81, 3, 48)).astype(dtype)
        raw = EpochSet(X, np.tile([1, 2, 3], 27), 100.0)
        order = rng.permutation(81)
        partitions = order[:45], order[45:51], order[51:]
        assert all(len(p) % ROUND_EPOCHS for p in partitions[:2])  # rounds straddle both partition edges
        reference = None
        for cpus in (1, 2, 3):
            monkeypatch.setattr(base_module, "_usable_cpus", lambda: cpus)
            model = _fit_raw(raw, 1, "one_vs_rest", SMALL_BANK, rows=partitions[0])
            got = (model.projection, _apply_raw(model, X, 100.0, np.concatenate(partitions)),
                   _apply_raw(model, X, 100.0, np.concatenate(partitions), np.float32))
            reference = reference or got
            assert all(np.array_equal(a, b) for a, b in zip(got, reference))
        projection, one_pass, rounded = reference
        whole = small_bank(X[order])
        assert np.array_equal(one_pass, projection @ whole)
        assert rounded.dtype == np.float32 and np.array_equal(rounded, one_pass.astype(np.float32))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_an_error_in_a_middle_round_ends_the_pool(self, cpus, monkeypatch):
        """A zero-power epoch in the fourth round raises the fit's error on
        the calling thread; a round that fails on a worker raises its own.
        Either way no pool thread is left when the call returns."""
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: cpus)
        X = np.random.default_rng(16).normal(size=(10 * ROUND_EPOCHS, 2, 48))
        X[3 * ROUND_EPOCHS + 1] = 0
        raw = EpochSet(X, np.tile([1, 2], 5 * ROUND_EPOCHS), 100.0)
        before = threading.active_count()
        with pytest.raises(ValueError, match="an epoch with zero total power has no spatial covariance"):
            _fit_raw(raw, 1, "auto", SMALL_BANK)
        assert threading.active_count() == before

        real_bank, filtered, lock = bandpass_module._filter_bank, [], threading.Lock()

        def failing(X, *args):
            with lock:
                filtered.append(len(X))
                started = len(filtered)
            if started == 4:
                raise FloatingPointError("round 4 failed")
            return real_bank(X, *args)

        monkeypatch.setattr(bandpass_module, "_filter_bank", failing)
        model = _fit_raw(raw, 1, "auto", SMALL_BANK, rows=np.arange(ROUND_EPOCHS, 2 * ROUND_EPOCHS))
        filtered.clear()
        with pytest.raises(FloatingPointError, match="round 4 failed"):
            _apply_raw(model, X, 100.0)
        assert threading.active_count() == before
        assert len(filtered) <= 4 + cpus


class TestOneBlockSize:
    def test_the_forward_splits_at_the_block_size_and_the_front_end_at_the_round_size(self, monkeypatch):
        """Setting ``base.BLOCK_EPOCHS`` alone re-blocks the eval forward; the
        filter bank's three passes (``apply_filter_bank_set``, a TS fit and a
        TS apply) keep their rounds of ``ROUND_EPOCHS``."""
        monkeypatch.setattr(base_module, "BLOCK_EPOCHS", 5)
        seen = {"forward": [], "bank": []}
        real_conv, real_bank = network_module.layers.conv1d_forward, bandpass_module._filter_bank

        def recording_conv(x, *args):
            seen["forward"].append(len(x))
            return real_conv(x, *args)

        def recording_bank(X, *args):
            seen["bank"].append(len(X))
            return real_bank(X, *args)

        monkeypatch.setattr(network_module.layers, "conv1d_forward", recording_conv)
        monkeypatch.setattr(bandpass_module, "_filter_bank", recording_bank)
        X = np.random.default_rng(13).normal(size=(12, 2, 48))
        raw = EpochSet(X, np.tile([1, 2], 6), 100.0)
        spec = parse_structure("2,5,8 / 8,24,16", input_length=48, output_dim=16)

        forward(spec, init_params(spec), X)
        apply_filter_bank_set(raw, SMALL_BANK)
        model = _fit_raw(raw, 1, "auto", SMALL_BANK)
        _apply_raw(model, X, 100.0)
        assert ROUND_EPOCHS == 4
        assert seen["forward"] == [5, 5, 5, 5, 2, 2]  # two conv layers per block
        assert seen["bank"] == [4, 4, 4] * 3
