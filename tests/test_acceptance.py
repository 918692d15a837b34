"""The acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mibci.augment import AugmentConfig, augment_set, zero_mean
from mibci.csp import fit_csp
from mibci.epochs import EpochSet
from mibci.experiment import ExperimentPlan, run_experiment
from mibci.mdn import MetaScheme, SchemeMember, mdn_classify, scheme_predict
from mibci.metrics import divergence, kappa_balanced
from mibci.network import (
    ConvBlockSpec,
    NetworkSpec,
    backward,
    count_weights,
    forward,
    init_params,
    parse_structure,
)
from mibci.stats import paired_ttest
from mibci.synthetic import SyntheticSpec, generate_synthetic
from mibci.walsh import WalshCodebook, build_walsh, hamming

from helpers import make_set, max_relative_gradient_error, numeric_gradients, student_t_tail_quadrature
from test_stats import NTS_A, NTS_NA
from test_walsh import W8


@pytest.mark.criterion(1, "Walsh fidelity: printed matrix, Hamming M/2, caption targets")
def test_criterion_1_walsh_fidelity():
    start = time.perf_counter()
    assert np.array_equal(build_walsh(8), W8)
    for size in (2, 4, 8, 16, 32, 64):
        matrix = build_walsh(size)
        for rows in (matrix, matrix.T):
            for i in range(size):
                for j in range(i + 1, size):
                    assert hamming(rows[i], rows[j]) == size // 2
    targets = WalshCodebook(2, 16).targets
    assert np.array_equal(targets[0], np.array([1, 0] * 8, dtype=float))
    assert np.array_equal(targets[1], np.array([1, 1, 0, 0] * 4, dtype=float))
    assert time.perf_counter() - start < 1.0


@pytest.mark.criterion(2, "weight-count arithmetic reproduces the printed sums exactly")
def test_criterion_2_weight_counts():
    spec = parse_structure(
        "2,7,40 / 40,7,40 / 40,7,40 / 40,7,40 / 40,16,16", input_channels=2,
        input_length=251, output_dim=16,
    )
    assert count_weights(spec, num_classes=2) == 44_432
    conv = [(3, 11 * 11, 96), (96, 5 * 5, 256), (256, 3 * 3, 192), (192, 3 * 3, 192), (192, 3 * 3, 128)]
    assert count_weights(conv) == 1_644_576
    fc = [(13 * 13 * 128, 1, 2048), (2048, 1, 2048), (2048, 1, 2)]
    assert count_weights(fc) == 48_500_736


# mean accuracy (fraction) / printed kappa / class count for every table
# that prints the pairing at three-decimal kappa resolution
KAPPA_PAIRS = [
    (0.963, 0.926, 2),  # two-class, no transform
    (0.965, 0.953, 4),  # four-class, no transform
    (0.886, 0.772, 2),  # two-class, second database
    (0.985, 0.970, 2), (0.953, 0.906, 2), (0.963, 0.926, 2), (0.734, 0.468, 2),
    (0.958, 0.944, 4), (0.451, 0.268, 4), (0.965, 0.953, 4), (0.557, 0.410, 4),
    (0.851, 0.702, 2), (0.706, 0.413, 2), (0.886, 0.772, 2), (0.685, 0.370, 2),
    (0.791, 0.721, 4), (0.453, 0.270, 4), (0.793, 0.724, 4), (0.491, 0.322, 4),
]


@pytest.mark.criterion(3, "balanced kappa reproduces every printed accuracy/kappa pair within 0.002")
def test_criterion_3_kappa_pairing():
    for accuracy, printed_kappa, num_classes in KAPPA_PAIRS:
        assert abs(kappa_balanced(accuracy, num_classes) - printed_kappa) <= 0.002


@pytest.mark.criterion(4, "paired t-test: 26-subject fixture and quadrature agreement")
def test_criterion_4_paired_ttest():
    result = paired_ttest(NTS_A, NTS_NA)
    assert result.p < 1e-10
    assert 2.33e-13 <= result.p <= 2.33e-11  # one order of magnitude of 2.33e-12
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        a = rng.normal(size=n)
        b = rng.normal(loc=0.3 * rng.normal(), size=n)
        r = paired_ttest(a, b)
        assert r.p == pytest.approx(student_t_tail_quadrature(r.t, r.df), abs=1e-10)


def _randomized_params(spec: NetworkSpec, rng: np.random.Generator):
    params = init_params(spec, seed=int(rng.integers(0, 2**31)))
    for block, bp in zip(spec.blocks, params.blocks):
        bp.bias[:] = 0.1 * rng.normal(size=block.out_planes)
        if block.batch_norm:
            bp.gamma[:] = rng.uniform(0.5, 1.5, block.out_planes)
            bp.beta[:] = rng.normal(size=block.out_planes)
            bp.running_mean[:] = 0.1 * rng.normal(size=block.out_planes)
            bp.running_var[:] = rng.uniform(0.5, 1.5, block.out_planes)
    return params


@pytest.mark.criterion(5, "analytic gradients match central finite differences to 1e-4")
def test_criterion_5_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    layer_kinds = [
        (ConvBlockSpec(2, 3, 4, "same", False, False, 0.0), 3, 12),
        (ConvBlockSpec(2, 4, 3, "valid", False, False, 0.0), 8, 15),
        (ConvBlockSpec(2, 3, 2, "same", True, False, 0.0), 7, 8),
        (ConvBlockSpec(2, 3, 3, "same", False, True, 0.0), 4, 12),
    ]
    for block, length, output_dim in layer_kinds:
        spec = NetworkSpec(blocks=(block,), output_dim=output_dim)
        params = _randomized_params(spec, rng)
        x = rng.normal(size=(5, block.in_planes, length))
        targets = rng.normal(size=(5, output_dim))
        analytic, _ = backward(spec, params, x, targets, mode="eval")
        numeric = numeric_gradients(spec, params, x, targets, mode="eval")
        assert max_relative_gradient_error(analytic, numeric) <= 1e-4

    composite = NetworkSpec(
        blocks=(
            ConvBlockSpec(2, 3, 3, "same", True, True, 0.0),
            ConvBlockSpec(3, 3, 4, "same", True, False, 0.0),
            ConvBlockSpec(4, 3, 4, "valid", False, False, 0.0),
        ),
        output_dim=4,
    )
    params = _randomized_params(composite, rng)
    x = rng.normal(size=(4, 2, 10))
    targets = rng.normal(size=(4, 4))
    analytic, _ = backward(composite, params, x, targets, mode="eval")
    numeric = numeric_gradients(composite, params, x, targets, mode="eval")
    assert max_relative_gradient_error(analytic, numeric) <= 1e-4
    assert time.perf_counter() - start < 30.0


@pytest.mark.criterion(6, "augmentation properties on a 10,000-epoch expansion")
def test_criterion_6_augmentation_properties():
    start = time.perf_counter()
    dataset = make_set(n_per_class=500, channels=3, samples=128, num_classes=2, seed=17)
    assert len(dataset) == 1000

    silent = AugmentConfig(noise_sd=0.0, copies_per_epoch=9, seed=303)
    grown = augment_set(dataset, silent)
    assert len(grown) == 10 * len(dataset)

    spectra_src = np.abs(np.fft.rfft(np.stack([zero_mean(x) for x in dataset.to_array()]), axis=2))
    out_arr = grown.to_array()
    for i in range(len(dataset)):
        base = spectra_src[i]
        scale_floor = 1e-9 * base.max()
        for copy in range(1, 10):
            variant = out_arr[10 * i + copy]
            assert np.abs(variant.mean(axis=1)).max() <= 1e-9  # pre-noise channel means
            got = np.abs(np.fft.rfft(variant, axis=1))
            # one nonnegative scalar relates the spectra: the drawn amplification
            significant = base > scale_floor
            ratios = got[significant] / base[significant]
            factor = np.median(ratios)
            assert 0.2 <= factor <= 5.0
            assert np.all(np.abs(got - factor * base) <= np.maximum(1e-9 * factor * base, scale_floor))

    noisy = AugmentConfig(copies_per_epoch=9, seed=404)
    assert augment_set(dataset, noisy).fingerprint == augment_set(dataset, noisy).fingerprint
    assert time.perf_counter() - start < 60.0


E2E_STRUCTURE = "4,5,12 / 12,5,12 / 12,5,12 / 12,5,12 / 12,16,16"
E2E_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def synthetic_e2e_runs():
    """Five-seed end-to-end runs shared by criteria 7 and 9."""
    spec = SyntheticSpec(
        num_classes=2,
        epochs_per_class=100,
        channels=4,
        samples=250,
        sampling_rate=250.0,
        noise_sd=2.0,
        default_gain=2.0,
        seed=123,
    )
    dataset = generate_synthetic(spec)
    base = ExperimentPlan(
        transform="NTS",
        augment="A",
        structure=E2E_STRUCTURE,
        code_size=16,
        scheme="single",
        learning_rate=2e-3,
        batch_size=64,
        max_iterations=60,  # well inside the 200-iteration budget
        patience=8,
        batch_norm=True,
        dropout_p=0.0,
        n_runs=1,
    )
    start = time.perf_counter()
    full_runs = []
    truncated = []
    for seed in E2E_SEEDS:
        report = run_experiment(replace(base, master_seed=seed), dataset)
        assert report.runs[0].error is None, report.runs[0].error
        full_runs.append(report.runs[0])

        trunc = replace(base, master_seed=seed, max_train_epochs=20)
        run_a = run_experiment(trunc, dataset).runs[0]
        run_na = run_experiment(replace(trunc, augment="NA"), dataset).runs[0]
        assert run_a.error is None and run_na.error is None
        truncated.append((run_a.accuracy, run_na.accuracy))
    elapsed = time.perf_counter() - start
    return {"full": full_runs, "truncated": truncated, "elapsed": elapsed}


@pytest.mark.criterion(7, "end-to-end synthetic: 95% augmented accuracy, reduced-data ordering")
def test_criterion_7_end_to_end_synthetic(synthetic_e2e_runs):
    full = synthetic_e2e_runs["full"]
    mean_accuracy = float(np.mean([run.accuracy for run in full]))
    assert mean_accuracy >= 0.95
    for run in full:
        assert run.train_summaries[0]["stopped_at"] <= 200

    wins = sum(1 for acc_a, acc_na in synthetic_e2e_runs["truncated"] if acc_a >= acc_na)
    assert wins >= 4
    assert synthetic_e2e_runs["elapsed"] <= 600.0


@pytest.mark.criterion(8, "CSP: planted ratio, whitening identity, eigenvalues, fingerprints")
def test_criterion_8_csp_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    dim, n_ep, samples = 6, 40, 100
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    mixing = np.eye(dim) + (np.sqrt(10) - 1) * np.outer(direction, direction)
    x1 = np.stack([mixing @ rng.normal(size=(dim, samples)) for _ in range(n_ep)])
    x2 = np.stack([rng.normal(size=(dim, samples)) for _ in range(n_ep)])
    dataset = EpochSet(
        np.concatenate([x1, x2]), [1] * n_ep + [2] * n_ep, sampling_rate=100.0
    )
    model = fit_csp(dataset, m=1)

    w = model.projection[0]
    ratio = np.mean([w @ (x @ x.T) @ w for x in x1]) / np.mean([w @ (x @ x.T) @ w for x in x2])
    channel_ratios = [np.mean(x1[:, c, :] ** 2) / np.mean(x2[:, c, :] ** 2) for c in range(dim)]
    assert ratio >= max(channel_ratios)

    def mean_trace_normalized(xs):
        covs = [x @ x.T for x in xs]
        return np.mean([c / np.trace(c) for c in covs], axis=0)

    c1 = mean_trace_normalized(x1)
    c2 = mean_trace_normalized(x2)
    w_full = model.full_filters[0]
    assert np.abs(w_full @ (c1 + c2) @ w_full.T - np.eye(dim)).max() <= 1e-8

    same = EpochSet(np.concatenate([x1, x1]), [1] * n_ep + [2] * n_ep, 100.0)
    equal_stats = fit_csp(same, m=1)
    assert np.abs(equal_stats.eigenvalues[0] - 0.5).max() <= 1e-6

    assert model.fitted_on == dataset.fingerprint
    polluted = dataset.subset([*range(len(dataset)), 0])
    assert fit_csp(polluted, m=1).fitted_on != dataset.fingerprint
    assert time.perf_counter() - start < 30.0


@pytest.mark.criterion(9, "divergence: null case, map invariance, growth during training")
def test_criterion_9_divergence_behavior(synthetic_e2e_runs):
    rng = np.random.default_rng(8)
    centered = rng.normal(size=(25, 6))
    centered -= centered.mean(axis=0)
    features = np.vstack([centered, 2.0 * centered])
    labels = np.array([1] * 25 + [2] * 25)
    assert abs(divergence(features, labels)) <= 1e-9

    separated = rng.normal(size=(60, 5)) + np.repeat([[0.0], [2.0]], 30, axis=0)
    labels = np.array([1] * 30 + [2] * 30)
    base = divergence(separated, labels)
    for _ in range(5):
        linear_map = rng.normal(size=(5, 5)) + 3.0 * np.eye(5)
        mapped = divergence(separated @ linear_map.T, labels)
        assert mapped == pytest.approx(base, rel=1e-6)

    grew = 0
    for run in synthetic_e2e_runs["full"]:
        summary = run.train_summaries[0]
        if summary["final_divergence"] > summary["initial_divergence"]:
            grew += 1
    assert grew >= 4


@pytest.mark.criterion(10, "MDN equals brute force on 10,000 vectors; OVO(2) equals single net")
def test_criterion_10_mdn_equivalence():
    codebook = WalshCodebook(4, 16)
    rng = np.random.default_rng(555)
    smooth = rng.uniform(0.0, 1.0, size=(8000, 16))
    binary = rng.integers(0, 2, size=(2000, 16)).astype(float)  # engineered distance ties
    outputs = np.vstack([smooth, binary])
    assert outputs.shape[0] == 10_000
    predicted = mdn_classify(outputs, codebook)
    targets = codebook.targets
    for i in range(outputs.shape[0]):
        best_label, best_distance = 0, np.inf
        for k in range(4):
            dist = float(((outputs[i] - targets[k]) ** 2).sum())
            if dist < best_distance:  # strict: ties keep the smallest class index
                best_label, best_distance = k + 1, dist
        assert predicted[i] == best_label

    spec = parse_structure("3,5,8 / 8,16,16", input_length=32, output_dim=16, dropout_p=0.0)
    params = init_params(spec, seed=777)
    two_class = WalshCodebook(2, 16)
    scheme = MetaScheme(
        kind="ovo",
        num_classes=2,
        members=(SchemeMember(classes=(1, 2), spec=spec, params=params),),
    )
    fixtures = rng.normal(size=(1000, 3, 32))
    single = mdn_classify(forward(spec, params, fixtures), two_class)
    for i in range(1000):
        assert scheme_predict(fixtures[i : i + 1], scheme, two_class)[0] == single[i]
