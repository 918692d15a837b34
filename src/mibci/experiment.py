"""The study runner: transform x augmentation cells, N-run aggregation.

One experiment cell repeats, for each run: stratified split, optional
filter-bank + CSP transform fitted on the training partition only, optional
augmentation of the training partition only, network training, and
evaluation on the untouched test partition. Before any fitting, the
training epochs' fingerprints must be disjoint from the validation and test
epochs'; an overlap raises :class:`LeakageError` and aborts the experiment.
The CSP and augmentation boundaries then check that they consumed exactly
the training partition and raise :class:`LeakageError` when they did not. A
matrix executes all four transform/augmentation cells with one master seed,
which makes the splits identical across cells.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .augment import AugmentConfig, augment_set
from .bandpass import FilterBankSpec
from .base import DocumentError, _check_fields, _field, _known_keys
from .csp import _apply_raw, _fit_raw
from .epochs import EpochSet, SplitSpec, derive_seed, split_dataset
from .io import load_epochs
from .metrics import classwise_metrics, confusion
from .model import WalshCnnClassifier
from .network import ConvBlockSpec, _parse_triples, render_structure
from .stats import TTestResult, paired_ttest
from .training import TRAIN_DTYPE, TrainConfig
from .walsh import WalshCodebook

__all__ = [
    "LeakageError",
    "ExperimentPlan",
    "RunResult",
    "ExperimentReport",
    "MatrixReport",
    "run_experiment",
    "run_matrix",
    "compare_augmentation",
    "paired_accuracies",
    "MATRIX_CELLS",
]

MATRIX_CELLS = ("TS-A", "TS-NA", "NTS-A", "NTS-NA")


class LeakageError(RuntimeError):
    """Epochs outside the training partition reached training, CSP or augmentation."""


@dataclass(frozen=True)
class ExperimentPlan:
    """One cell of the transform x augmentation study design.

    ``m`` is required when ``transform == "TS"``; the structure's first
    in-plane count is adapted to whatever channel count reaches the network
    (raw channels for NTS, spatial-filter outputs for TS).
    ``max_train_epochs`` optionally truncates the training partition (after
    the split, before augmentation) for reduced-data comparisons.
    """

    dataset: str | Path | None = None
    subject_id: str = ""
    transform: str = "NTS"
    augment: str = "NA"
    augment_config: AugmentConfig = field(default_factory=AugmentConfig)
    bands: tuple[tuple[float, float], ...] = FilterBankSpec.bands
    filter_order: int = FilterBankSpec.order
    m: int | None = None
    structure: str | None = None
    code_size: int = WalshCodebook.size
    scheme: str = "single"
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    max_iterations: int = TrainConfig.max_iterations
    patience: int = TrainConfig.patience
    batch_norm: bool = ConvBlockSpec.batch_norm
    dropout_p: float = ConvBlockSpec.dropout_p
    test_fraction: float = SplitSpec.test_fraction
    validation_fraction: float = SplitSpec.validation_fraction
    max_train_epochs: int | None = None
    n_runs: int = 30
    master_seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.transform not in ("NTS", "TS"):
            raise ValueError("transform must be 'NTS' or 'TS'")
        if self.augment not in ("A", "NA"):
            raise ValueError("augment must be 'A' or 'NA'")
        if self.transform == "TS" and self.m is None:
            raise ValueError("a TS plan requires the spatial-filter parameter m")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.max_train_epochs is not None and self.max_train_epochs < 1:
            raise ValueError(f"max_train_epochs must be >= 1, got {self.max_train_epochs}")
        # the config types own these checks, so a bad value fails here, not in every run
        self.split_spec()
        self.filter_bank()
        self.classifier()._validate_params()
        object.__setattr__(self, "bands", tuple(tuple(b) for b in self.bands))

    def split_spec(self, seed: int = 0) -> SplitSpec:
        return SplitSpec(test_fraction=self.test_fraction, validation_fraction=self.validation_fraction, seed=seed)

    def filter_bank(self) -> FilterBankSpec:
        return FilterBankSpec(bands=self.bands, order=self.filter_order)

    def classifier(self, channels: int | None = None, seed: int = 0) -> WalshCnnClassifier:
        """The estimator of this plan's network and training knobs; ``channels``
        sets the structure's first in-plane count to the channels reaching it."""
        params = {name: getattr(self, name) for name in WalshCnnClassifier._param_names() if hasattr(self, name)}
        if self.structure is not None and channels is not None:
            params["structure"] = _adapt_structure(self.structure, channels)
        return WalshCnnClassifier(**params, seed=seed)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["bands"] = [list(b) for b in self.bands]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentPlan":
        """Inverse of :meth:`to_dict`. A key that is not a plan field, a
        ``dataset`` that is not a string, an ``augment_config`` that is not a
        JSON object, or a key of it that is not an :class:`AugmentConfig`
        field raises ``DocumentError`` naming it; the config types check the
        other fields."""
        doc = dict(_known_keys(doc, cls, "plan"))
        _field(doc, "dataset", (str, None), "plan", default=None)
        if "augment_config" in doc:
            sub = _known_keys(_field(doc, "augment_config", dict, "plan"), AugmentConfig, "plan augment_config")
            doc["augment_config"] = AugmentConfig(**sub)
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        return cls.from_dict(json.loads(text))


@dataclass
class RunResult:
    """Metrics and provenance of one run; ``error`` is set when it failed."""

    run: int
    seed: int
    accuracy: float | None = None
    kappa: float | None = None
    classwise: dict | None = None
    train_summaries: list[dict] = field(default_factory=list)
    split_sizes: dict | None = None
    test_indices: list[int] | None = None
    structure: str | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        _check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentReport:
    """Per-run results plus aggregates recomputable from them."""

    plan: dict
    runs: list[RunResult]
    mean_accuracy: float | None
    sd_accuracy: float | None
    mean_kappa: float | None
    sd_kappa: float | None
    n_failed: int
    provenance: dict

    def __post_init__(self) -> None:
        _check_fields(self)
        for run in self.runs:
            if run.error is None and None in (run.accuracy, run.kappa):
                raise DocumentError(f"run {run.run} has no error, so its accuracy and kappa must be numbers")
        if (self.mean_accuracy is None) != (self.mean_kappa is None):
            raise DocumentError("mean_accuracy and mean_kappa must both be numbers or both be null")

    def accuracies(self) -> list[float]:
        return [r.accuracy for r in self.runs if r.error is None]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        """Inverse of :meth:`to_dict`; a missing field, a key that is not a
        field, or a field of the wrong kind, in the report or in a run,
        raises ``DocumentError`` naming it."""
        runs = _field(doc, "runs", list, "report")
        runs = [RunResult(**_known_keys(r, RunResult, f"report run {i}")) for i, r in enumerate(runs)]
        return cls(**{**_known_keys(doc, cls, "report"), "runs": runs})

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))


def _load_dataset(plan: ExperimentPlan, dataset: EpochSet | None) -> EpochSet:
    if dataset is not None:
        return dataset
    if plan.dataset is None:
        raise ValueError("plan has no dataset path and no dataset was passed in")
    return load_epochs(Path(plan.dataset), format="binary")


def _truncate_stratified(labels: np.ndarray, num_classes: int, limit: int) -> np.ndarray:
    """Positions of at most ``limit`` of ``labels``, balanced over classes, order-stable."""
    per_class = max(1, limit // num_classes)
    firsts = [np.flatnonzero(labels == c)[:per_class] for c in range(1, num_classes + 1)]
    return np.sort(np.concatenate(firsts))[:limit]


def _adapt_structure(structure: str, channels: int) -> str:
    """The structure in ``a,k,b / ...`` form with its first in-plane count set to ``channels``."""
    triples = _parse_triples(structure)
    triples[0] = (channels, *triples[0][1:])
    return " / ".join(",".join(map(str, t)) for t in triples)


def _execute_run(plan: ExperimentPlan, dataset: EpochSet, run: int) -> RunResult:
    seed = derive_seed(plan.master_seed, run)
    result = RunResult(run=run, seed=seed)

    split = split_dataset(dataset, plan.split_spec(derive_seed(plan.master_seed, run, "split")))
    train_rows, val_rows, test_rows = (
        np.asarray(rows, dtype=np.intp)
        for rows in (split.train_indices, split.validation_indices, split.test_indices)
    )
    if plan.max_train_epochs is not None:
        train_rows = train_rows[
            _truncate_stratified(dataset.labels[train_rows], dataset.num_classes, plan.max_train_epochs)
        ]
    result.test_indices = list(split.test_indices)
    leaked = dataset.epoch_fingerprints(train_rows) & dataset.epoch_fingerprints([*val_rows, *test_rows])
    if leaked:
        raise LeakageError(
            f"run {run}: {len(leaked)} training epoch(s) also appear in the validation or test partition"
        )

    if plan.transform == "TS":
        # The fit filters the training rows one round at a time and keeps no
        # round. Then one pass filters and projects the rows of every
        # partition, round by round, in the order [train | validation | test];
        # each epoch is projected on its own, so a round that straddles two
        # partitions gives the same bits. No raw or filtered copy of a
        # partition is made; each partition takes over its slice. Without
        # augmentation every reader rounds the partitions to TRAIN_DTYPE, so
        # they are stored in it; augmentation draws from the float64 ones.
        model = _fit_raw(dataset, plan.m, bank=plan.filter_bank(), rows=train_rows)
        if model.fitted_on != dataset.fingerprint_of(train_rows):
            raise LeakageError(f"run {run}: CSP was fitted on epochs outside the training partition")
        partitions = (train_rows, val_rows, test_rows)
        projected = _apply_raw(model, dataset.to_array(), dataset.sampling_rate, np.concatenate(partitions),
                               TRAIN_DTYPE if plan.augment == "NA" else np.float64)
        train_set, val_set, test_set = (
            dataset.subset(rows, part)
            for rows, part in zip(partitions, np.split(projected, np.cumsum([len(train_rows), len(val_rows)])))
        )
    else:
        train_set, val_set, test_set = (dataset.subset(rows) for rows in (train_rows, val_rows, test_rows))

    if plan.augment == "A":
        # the set is stored as training reads it, so its original rows must be
        # the training rows rounded to TRAIN_DTYPE, in order; the rounded copy
        # is freed once hashed, before the set is grown
        rounded = np.asarray(train_set.to_array(), dtype=TRAIN_DTYPE)
        allowed = train_set.subset(np.arange(len(train_set)), rounded).fingerprint
        del rounded
        cfg = replace(plan.augment_config, seed=derive_seed(plan.master_seed, run, "augment"))
        train_set = augment_set(train_set, cfg, dtype=TRAIN_DTYPE)
        if train_set.fingerprint_of(range(0, len(train_set), 1 + cfg.copies_per_epoch)) != allowed:
            raise LeakageError(f"run {run}: augmentation consumed epochs outside the training partition")

    clf = plan.classifier(train_set.n_channels, derive_seed(plan.master_seed, run, "train"))
    clf.fit(train_set.to_array(), train_set.labels, val_set.to_array(), val_set.labels)
    result.structure = render_structure(clf.spec_)

    predictions = clf.predict(test_set.to_array())
    cm = confusion(predictions, test_set.labels, dataset.num_classes)
    report = classwise_metrics(cm)
    result.accuracy = report.accuracy
    result.kappa = report.kappa
    result.classwise = report.to_dict()
    result.train_summaries = [r.to_dict() for r in clf.train_reports_]
    result.split_sizes = {
        "train": len(train_set),
        "validation": len(val_set),
        "test": len(test_set),
    }
    return result


def run_experiment(plan: ExperimentPlan, dataset: EpochSet | None = None) -> ExperimentReport:
    """Execute every run of a plan and aggregate the successful ones.

    A failing run is recorded with its error and the remaining runs
    proceed; aggregates cover successful runs only and state the count.
    A :class:`LeakageError` is not a run failure: it aborts the experiment.
    A plan that leaves a holdout partition empty raises ``ValueError``
    before any run: the split's sizes depend only on the class counts and
    the fractions, so one split stands for every run's.
    """
    data = _load_dataset(plan, dataset)
    split = split_dataset(data, plan.split_spec())
    for name, indices, fraction in (
        ("validation", split.validation_indices, plan.validation_fraction),
        ("test", split.test_indices, plan.test_fraction),
    ):
        if not indices:
            raise ValueError(
                f"the {name} partition is empty: class counts "
                f"{data.class_counts().tolist()} at {name}_fraction {fraction} leave no "
                f"{name} epoch; raise the fraction or add epochs"
            )
    runs: list[RunResult] = []
    for r in range(plan.n_runs):
        try:
            runs.append(_execute_run(plan, data, r))
        except LeakageError:
            raise
        except Exception:
            runs.append(
                RunResult(
                    run=r,
                    seed=derive_seed(plan.master_seed, r),
                    error=traceback.format_exc(limit=3),
                )
            )
    ok = [r for r in runs if r.error is None]
    accs = np.array([r.accuracy for r in ok]) if ok else None
    kappas = np.array([r.kappa for r in ok]) if ok else None
    return ExperimentReport(
        plan=plan.to_dict(),
        runs=runs,
        mean_accuracy=float(accs.mean()) if ok else None,
        sd_accuracy=float(accs.std(ddof=1)) if len(ok) > 1 else (0.0 if ok else None),
        mean_kappa=float(kappas.mean()) if ok else None,
        sd_kappa=float(kappas.std(ddof=1)) if len(ok) > 1 else (0.0 if ok else None),
        n_failed=len(runs) - len(ok),
        provenance={
            "master_seed": plan.master_seed,
            "seed_rule": "per-run streams from SeedSequence([master_seed, run, stage])",
            "version": __version__,
        },
    )


@dataclass
class MatrixReport:
    """The four transform x augmentation cells under one master seed."""

    cells: dict[str, ExperimentReport]

    def table(self) -> str:
        """Aligned-text comparison in the results-table layout."""
        lines = []
        n_runs = max(len(rep.runs) for rep in self.cells.values())
        header = ["cell".ljust(8)] + [f"run{r}".rjust(8) for r in range(n_runs)]
        header.append("  Mean Accuracy (Kappa)")
        lines.append(" ".join(header))
        for cell in MATRIX_CELLS:
            rep = self.cells[cell]
            row = [cell.ljust(8)]
            for run in rep.runs:
                row.append(("fail" if run.error else f"{100 * run.accuracy:.1f}").rjust(8))
            if rep.mean_accuracy is None:
                row.append("  n/a")
            else:
                row.append(f"  {100 * rep.mean_accuracy:.1f} ({rep.mean_kappa:.3f})")
            lines.append(" ".join(row))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {cell: rep.to_dict() for cell, rep in self.cells.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run_matrix(plan: ExperimentPlan, dataset: EpochSet | None = None) -> MatrixReport:
    """Run all four {TS, NTS} x {A, NA} cells with a shared master seed.

    The split seed depends only on (master seed, run), so every cell sees
    identical train/validation/test partitions run for run.
    """
    if plan.m is None:
        raise ValueError("a matrix run needs the TS configuration (parameter m)")
    data = _load_dataset(plan, dataset)
    cells = {}
    for cell in MATRIX_CELLS:
        transform, augment = cell.split("-")
        cell_plan = replace(plan, transform=transform, augment=augment)
        cells[cell] = run_experiment(cell_plan, data)
    return MatrixReport(cells=cells)


def paired_accuracies(report_a: ExperimentReport, report_b: ExperimentReport) -> tuple[list[float], list[float]]:
    """The accuracies of the runs that succeeded in both reports, paired by
    :attr:`RunResult.run` in ``report_a``'s order. Cells of a matrix share
    their splits run for run, so this is the paired design."""
    b = {r.run: r.accuracy for r in report_b.runs if r.error is None}
    common = [r for r in report_a.runs if r.error is None and r.run in b]
    return [r.accuracy for r in common], [b[r.run] for r in common]


def compare_augmentation(
    report_a: "ExperimentReport | list[ExperimentReport]",
    report_na: "ExperimentReport | list[ExperimentReport]",
) -> tuple[TTestResult, str]:
    """Paired t-test of augmented vs non-augmented accuracies.

    Two single reports pair the runs that succeeded in both
    (:func:`paired_accuracies`); two lists of reports (e.g. one per subject)
    pair their per-report means by position.
    """
    if isinstance(report_a, ExperimentReport) != isinstance(report_na, ExperimentReport):
        raise ValueError("compare matching shapes: two reports or two report lists")
    if isinstance(report_a, ExperimentReport):
        a, b = paired_accuracies(report_a, report_na)
    else:
        a = [r.mean_accuracy for r in report_a]
        b = [r.mean_accuracy for r in report_na]
    result = paired_ttest(a, b)
    direction = "higher" if result.t > 0 else ("lower" if result.t < 0 else "equal")
    summary = (
        f"augmented mean accuracy {np.mean(a):.4f} vs non-augmented {np.mean(b):.4f} "
        f"({direction}); paired t({result.df}) = {result.t:.3f}, two-tailed p = {result.p:.3e}"
    )
    return result, summary
