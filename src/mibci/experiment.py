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
from .bandpass import DEFAULT_BANDS, FilterBankSpec, apply_filter_bank_set
from .csp import apply_csp_set, fit_csp
from .epochs import EpochSet, SplitSpec, derive_seed, split_dataset
from .io import load_epochs
from .metrics import classwise_metrics, confusion
from .model import WalshCnnClassifier, default_structure
from .network import _parse_triples
from .stats import TTestResult, paired_ttest

__all__ = [
    "LeakageError",
    "ExperimentPlan",
    "RunResult",
    "ExperimentReport",
    "MatrixReport",
    "run_experiment",
    "run_matrix",
    "compare_augmentation",
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

    dataset: str | None = None
    subject_id: str = ""
    transform: str = "NTS"
    augment: str = "NA"
    augment_config: AugmentConfig = field(default_factory=AugmentConfig)
    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS
    filter_order: int = 4
    m: int | None = None
    structure: str | None = None
    code_size: int = 16
    scheme: str = "single"
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_iterations: int = 500
    patience: int = 20
    batch_norm: bool = True
    dropout_p: float = 0.5
    test_fraction: float = 0.2
    validation_fraction: float = 0.1
    max_train_epochs: int | None = None
    n_runs: int = 30
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.transform not in ("NTS", "TS"):
            raise ValueError("transform must be 'NTS' or 'TS'")
        if self.augment not in ("A", "NA"):
            raise ValueError("augment must be 'A' or 'NA'")
        if self.transform == "TS" and self.m is None:
            raise ValueError("a TS plan requires the spatial-filter parameter m")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        object.__setattr__(self, "bands", tuple(tuple(b) for b in self.bands))

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["bands"] = [list(b) for b in self.bands]
        doc["augment_config"] = asdict(self.augment_config)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentPlan":
        doc = dict(doc)
        if "augment_config" in doc and isinstance(doc["augment_config"], dict):
            doc["augment_config"] = AugmentConfig(**doc["augment_config"])
        if "bands" in doc:
            doc["bands"] = tuple(tuple(b) for b in doc["bands"])
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

    def accuracies(self) -> list[float]:
        return [r.accuracy for r in self.runs if r.error is None]

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "runs": [r.to_dict() for r in self.runs],
            "mean_accuracy": self.mean_accuracy,
            "sd_accuracy": self.sd_accuracy,
            "mean_kappa": self.mean_kappa,
            "sd_kappa": self.sd_kappa,
            "n_failed": self.n_failed,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        doc = json.loads(text)
        runs = [RunResult(**r) for r in doc["runs"]]
        return cls(
            plan=doc["plan"],
            runs=runs,
            mean_accuracy=doc["mean_accuracy"],
            sd_accuracy=doc["sd_accuracy"],
            mean_kappa=doc["mean_kappa"],
            sd_kappa=doc["sd_kappa"],
            n_failed=doc["n_failed"],
            provenance=doc["provenance"],
        )


def _load_dataset(plan: ExperimentPlan, dataset: EpochSet | None) -> EpochSet:
    if dataset is not None:
        return dataset
    if plan.dataset is None:
        raise ValueError("plan has no dataset path and no dataset was passed in")
    return load_epochs(Path(plan.dataset), format="binary")


def _truncate_stratified(train: EpochSet, limit: int) -> EpochSet:
    """Keep at most ``limit`` epochs, balanced over classes, order-stable."""
    per_class = max(1, limit // train.num_classes)
    firsts = [np.flatnonzero(train.labels == c)[:per_class] for c in range(1, train.num_classes + 1)]
    return train.subset(np.sort(np.concatenate(firsts))[:limit])


def _adapt_structure(structure: str, channels: int) -> str:
    """The structure in ``a,k,b / ...`` form with its first in-plane count set to ``channels``."""
    triples = _parse_triples(structure)
    triples[0] = (channels, *triples[0][1:])
    return " / ".join(",".join(map(str, t)) for t in triples)


def _execute_run(plan: ExperimentPlan, dataset: EpochSet, run: int) -> RunResult:
    seed = derive_seed(plan.master_seed, run)
    result = RunResult(run=run, seed=seed)

    split = split_dataset(dataset, SplitSpec(
        test_fraction=plan.test_fraction,
        validation_fraction=plan.validation_fraction,
        seed=derive_seed(plan.master_seed, run, "split"),
    ))
    for name, indices, fraction in (
        ("validation", split.validation_indices, plan.validation_fraction),
        ("test", split.test_indices, plan.test_fraction),
    ):
        if not indices:
            raise ValueError(
                f"run {run}: the {name} partition is empty: class counts "
                f"{dataset.class_counts().tolist()} at {name}_fraction {fraction} leave no "
                f"{name} epoch; raise the fraction or add epochs"
            )
    train_set = dataset.subset(split.train_indices)
    val_set = dataset.subset(split.validation_indices)
    test_set = dataset.subset(split.test_indices)
    if plan.max_train_epochs is not None:
        train_set = _truncate_stratified(train_set, plan.max_train_epochs)
    result.test_indices = list(split.test_indices)
    leaked = train_set.epoch_fingerprints() & (
        val_set.epoch_fingerprints() | test_set.epoch_fingerprints()
    )
    if leaked:
        raise LeakageError(
            f"run {run}: {len(leaked)} training epoch(s) also appear in the validation or test partition"
        )

    if plan.transform == "TS":
        bank = FilterBankSpec(bands=plan.bands, order=plan.filter_order)
        train_set = apply_filter_bank_set(train_set, bank)
        val_set = apply_filter_bank_set(val_set, bank)
        test_set = apply_filter_bank_set(test_set, bank)
        scheme = "two_class" if dataset.num_classes == 2 else "one_vs_rest"
        model = fit_csp(train_set, m=plan.m, scheme=scheme, bank=bank)
        if model.fitted_on != train_set.fingerprint:
            raise LeakageError(f"run {run}: CSP was fitted on epochs outside the training partition")
        train_set = apply_csp_set(train_set, model)
        val_set = apply_csp_set(val_set, model)
        test_set = apply_csp_set(test_set, model)

    if plan.augment == "A":
        allowed_fps = train_set.epoch_fingerprints()
        cfg = replace(plan.augment_config, seed=derive_seed(plan.master_seed, run, "augment"))
        train_set = augment_set(train_set, cfg)
        originals = train_set.subset(np.flatnonzero(train_set.origins != "augmented"))
        if originals.epoch_fingerprints() != allowed_fps:
            raise LeakageError(f"run {run}: augmentation consumed epochs outside the training partition")

    structure = plan.structure
    if structure is None:
        structure = default_structure(train_set.n_channels, train_set.n_samples, plan.code_size)
    else:
        structure = _adapt_structure(structure, train_set.n_channels)
    result.structure = structure

    clf = WalshCnnClassifier(
        structure=structure,
        code_size=plan.code_size,
        scheme=plan.scheme,
        learning_rate=plan.learning_rate,
        batch_size=plan.batch_size,
        max_iterations=plan.max_iterations,
        patience=plan.patience,
        batch_norm=plan.batch_norm,
        dropout_p=plan.dropout_p,
        seed=derive_seed(plan.master_seed, run, "train"),
    )
    clf.fit(train_set.to_array(), train_set.labels, val_set.to_array(), val_set.labels)

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
    """
    data = _load_dataset(plan, dataset)
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


def compare_augmentation(
    report_a: "ExperimentReport | list[ExperimentReport]",
    report_na: "ExperimentReport | list[ExperimentReport]",
) -> tuple[TTestResult, str]:
    """Paired t-test of augmented vs non-augmented accuracies.

    Two single reports pair their per-run accuracies; two lists of reports
    (e.g. one per subject) pair their per-report means.
    """
    if isinstance(report_a, ExperimentReport) != isinstance(report_na, ExperimentReport):
        raise ValueError("compare matching shapes: two reports or two report lists")
    if isinstance(report_a, ExperimentReport):
        a = report_a.accuracies()
        b = report_na.accuracies()
    else:
        a = [r.mean_accuracy for r in report_a]
        b = [r.mean_accuracy for r in report_na]
    if len(a) != len(b):
        raise ValueError(f"paired comparison needs equal counts, got {len(a)} vs {len(b)}")
    result = paired_ttest(a, b)
    direction = "higher" if result.t > 0 else ("lower" if result.t < 0 else "equal")
    summary = (
        f"augmented mean accuracy {np.mean(a):.4f} vs non-augmented {np.mean(b):.4f} "
        f"({direction}); paired t({result.df}) = {result.t:.3f}, two-tailed p = {result.p:.3e}"
    )
    return result, summary
