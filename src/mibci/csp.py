"""Common spatial patterns fitted on filter-bank output.

Two-class fitting follows the classical recipe: per-epoch spatial
covariances are trace-normalized and averaged per class into C1 and C2, and
the filters are the generalized eigenvectors of C1 w = lambda (C1 + C2) w,
scaled so that W (C1 + C2) W^T = I. The rows of the full filter matrix are
sorted by descending eigenvalue and the m top plus m bottom filters form the
projection, so the first output channels maximize class-1 variance while the
last maximize class-2 variance. Multi-class models compose one two-class fit
per class against the pooled rest and stack the projections.

Raw epochs pass through the filter bank in rounds of
:data:`base.ROUND_EPOCHS` epochs (:func:`bandpass._filter_rounds`): worker
threads filter up to one round per usable CPU ahead (at most
:data:`base.PIPELINE_WORKERS`), and the calling thread takes each round in
order and either adds it into per-class covariance sums (the fit) or
projects it straight into the output (apply), then frees it.
So no covariance stack and no filtered copy of a set, nor of a block, is
ever made: a set that is both fitted on and projected is filtered twice,
once by each pass. The covariances, ``eigh`` and the projection all run on
the calling thread in epoch order, so the thread count changes no bit.
"""

from __future__ import annotations

import json
import warnings
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .bandpass import FilterBankSpec, _filter_rounds
from .base import EstimatorMixin, NotFittedError, _blocks, _field, _items, as_epoch_array, as_labels
from .epochs import EpochSet

__all__ = ["CspModel", "fit_csp", "apply_csp_set", "CspTransformer"]

_RIDGE_EPS = 1e-6


@dataclass(frozen=True)
class CspModel:
    """Fitted spatial filters plus the metadata needed to audit and apply them.

    ``projection`` has ``2m`` rows for a two-class fit and ``2m * C`` rows for
    a one-vs-rest fit, with ``input_channels`` columns (channels x bands of
    the filtered input). ``eigenvalues`` holds the generalized eigenvalue
    spectrum of each binary subproblem and ``full_filters`` the corresponding
    unselected filter matrices; both are diagnostics and are not serialized.
    ``fitted_on`` is the fingerprint of the exact training set seen by fit:
    the raw epochs when the fit filters them itself, else the filtered set.
    """

    m: int
    scheme: str
    projection: np.ndarray
    bank: FilterBankSpec
    num_classes: int
    input_channels: int
    fitted_on: str
    eigenvalues: tuple[np.ndarray, ...] = field(repr=False, default=())
    full_filters: tuple[np.ndarray, ...] = field(repr=False, default=())

    def __post_init__(self) -> None:
        if self.scheme not in ("two_class", "one_vs_rest"):
            raise ValueError(f"unknown scheme {self.scheme!r} (expected 'two_class' or 'one_vs_rest')")
        if self.m < 1:
            raise ValueError(f"m={self.m} must be >= 1")
        if self.scheme == "two_class" and self.num_classes != 2:
            raise ValueError(f"a two_class model needs exactly two classes, got {self.num_classes}")
        proj = np.asarray(self.projection, dtype=np.float64)
        expected = 2 * self.m if self.scheme == "two_class" else 2 * self.m * self.num_classes
        if proj.shape != (expected, self.input_channels):
            raise ValueError(
                f"projection shape {proj.shape} inconsistent with scheme={self.scheme}, "
                f"m={self.m}, C={self.num_classes}, input_channels={self.input_channels}"
            )
        if not np.isfinite(proj).all():
            raise ValueError("projection contains non-finite values")
        proj.setflags(write=False)
        object.__setattr__(self, "projection", proj)

    @property
    def n_outputs(self) -> int:
        return self.projection.shape[0]

    def check_raw_channels(self, n_channels: int) -> None:
        """Reject unfiltered epochs whose channels times the bank's bands are
        not ``input_channels``, before a filter pass is spent on them."""
        filtered = n_channels * self.bank.n_bands
        if filtered != self.input_channels:
            raise ValueError(
                f"epochs have {n_channels} channels x {self.bank.n_bands} bands = {filtered} "
                f"filtered channels, model expects {self.input_channels}"
            )

    def project(self, X: np.ndarray) -> np.ndarray:
        """Project ``(n, input_channels, samples)`` band-filtered epochs onto the filters."""
        if X.shape[1] != self.input_channels:
            raise ValueError(
                f"epochs have {X.shape[1]} channels, model expects {self.input_channels}"
            )
        return self.projection @ X

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "scheme": self.scheme,
            "bands": [list(b) for b in self.bank.bands],
            "filter_order": self.bank.order,
            "num_classes": self.num_classes,
            "input_channels": self.input_channels,
            "projection": self.projection.ravel().tolist(),
            "fingerprint": self.fitted_on,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CspModel":
        """Inverse of :meth:`to_json`; a missing field or one of the wrong kind
        raises ``DocumentError`` naming it."""
        doc, where = json.loads(text), "csp document"
        input_channels = _field(doc, "input_channels", int, where)
        projection = _items(_field(doc, "projection", list, where), float, f"{where}: projection")
        if input_channels < 1:
            raise ValueError(f"{where}: field 'input_channels' must be >= 1, got {input_channels}")
        if len(projection) % input_channels:
            raise ValueError(f"{where}: field 'projection' holds {len(projection)} values, "
                             f"not whole rows of input_channels = {input_channels}")
        return cls(
            m=_field(doc, "m", int, where),
            scheme=_field(doc, "scheme", str, where),
            projection=np.array(projection, dtype=np.float64).reshape(-1, input_channels),
            bank=FilterBankSpec(bands=_field(doc, "bands", list, where), order=_field(doc, "filter_order", int, where)),
            num_classes=_field(doc, "num_classes", int, where),
            input_channels=input_channels,
            fitted_on=_field(doc, "fingerprint", str, where),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CspModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _normalized_covariances(X: np.ndarray) -> np.ndarray:
    """Per-epoch spatial covariance X X^T divided by its trace."""
    covs = X @ X.transpose(0, 2, 1)
    traces = np.trace(covs, axis1=1, axis2=2)
    if (traces <= 0).any():
        raise ValueError("an epoch with zero total power has no spatial covariance")
    covs /= traces[:, None, None]
    return covs


def _csp_pair(c1: np.ndarray, c2: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filters separating two average covariances: the generalized
    eigenvectors of c1 w = lambda (c1 + c2) w.

    Returns (selected 2m rows, eigenvalues sorted descending, full filter
    matrix). Eigenvalue ties break toward the lower original index and each
    filter's sign is fixed so its largest-magnitude coefficient is positive,
    keeping results independent of eigensolver sign conventions.
    """
    dim = c1.shape[0]
    if not 1 <= m <= dim // 2:
        raise ValueError(f"m={m} out of range for {dim} input channels (need 2m <= {dim})")
    composite = c1 + c2
    spectrum = np.linalg.eigvalsh(composite)
    if spectrum[-1] <= 0:
        raise np.linalg.LinAlgError("composite covariance is not positive semidefinite")
    if spectrum[0] <= spectrum[-1] * 1e-12:
        warnings.warn(
            "singular composite covariance; applying ridge regularization",
            RuntimeWarning,
            stacklevel=2,
        )
        composite = composite + _RIDGE_EPS * np.trace(composite) / dim * np.eye(dim)
    from scipy import linalg

    evals, evecs = linalg.eigh(c1, composite)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    full = evecs[:, order].T
    signs = np.sign(full[np.arange(dim), np.argmax(np.abs(full), axis=1)])
    signs[signs == 0] = 1.0
    full = full * signs[:, None]
    selected = np.vstack([full[:m], full[dim - m :]])
    return selected, evals, full


def _class_means(blocks: Iterable[np.ndarray], labels: np.ndarray,
                 counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per class, the mean trace-normalized covariance of its epochs and of
    all the other classes' epochs (the one-vs-rest "rest").

    ``blocks`` hold the epochs in order and ``labels`` their classes. Each
    epoch's covariance is added into its class's sum and every other
    class's rest sum, from zero and in index order, which is the order of
    ``covs[labels == c].mean(axis=0)``: both give the same bits, without a
    covariance stack or a boolean-index copy. A block and its covariances
    are freed before the next block is taken.
    """
    others = ~np.eye(len(counts), dtype=bool)
    sums = rests = None
    start = 0
    for covs in map(_normalized_covariances, blocks):
        if sums is None:
            sums = np.zeros((len(counts), *covs.shape[1:]))
            rests = np.zeros_like(sums)
        for cov, label in zip(covs, labels[start : start + len(covs)]):
            sums[label - 1] += cov
            rests[others[label - 1]] += cov
        start += len(covs)
        del covs, cov  # freed before the next block is taken
    return sums / counts[:, None, None], rests / (len(labels) - counts)[:, None, None]


def _fit(blocks: Iterable[np.ndarray], labels: np.ndarray, num_classes: int, m: int, scheme: str,
         bank: FilterBankSpec | None, fitted_on: str) -> CspModel:
    """The filters of the band-filtered epochs in ``blocks``, whose classes are ``labels``."""
    counts = np.bincount(labels - 1, minlength=num_classes)
    if (counts < 2).any():
        raise ValueError("every class needs >= 2 epochs to estimate covariances")
    if scheme == "auto":
        scheme = "two_class" if num_classes == 2 else "one_vs_rest"
    if scheme == "two_class" and num_classes != 2:
        raise ValueError("two_class CSP needs exactly two classes")
    if scheme not in ("two_class", "one_vs_rest"):
        raise ValueError(f"unknown scheme {scheme!r}")
    means, rests = _class_means(blocks, labels, counts)
    pairs = [(means[0], means[1])] if scheme == "two_class" else list(zip(means, rests))
    selected, eigenvalues, full_filters = zip(*(_csp_pair(own, rest, m) for own, rest in pairs))
    return CspModel(
        m=m,
        scheme=scheme,
        projection=np.vstack(selected),
        bank=bank if bank is not None else FilterBankSpec(),
        num_classes=num_classes,
        input_channels=means.shape[1],
        fitted_on=fitted_on,
        eigenvalues=eigenvalues,
        full_filters=full_filters,
    )


def fit_csp(train: EpochSet, m: int, scheme: str = "auto", bank: FilterBankSpec | None = None) -> CspModel:
    """Fit spatial filters on (already band-filtered) training epochs only.

    Parameters
    ----------
    train : EpochSet
        Filter-bank output epochs; every class needs at least two epochs.
    m : int
        Filters kept per side; the projection has 2m rows per binary problem.
    scheme : {'auto', 'two_class', 'one_vs_rest'}
        Two-class CSP requires exactly two classes; one-vs-rest fits one
        binary problem per class against the pooled rest. ``'auto'`` picks
        two-class for two classes and one-vs-rest otherwise; the model
        records the resolved scheme.
    bank : FilterBankSpec, optional
        Recorded on the model so apply-time pipelines can reproduce the
        filtering stage; defaults to the standard five-band bank.

    Returns
    -------
    CspModel
        Carries the projection and the fingerprint of ``train``.
    """
    train.require_all_classes()
    blocks = _blocks(train.to_array(), dtype=np.float64)
    return _fit(blocks, train.labels, train.num_classes, m, scheme, bank, train.fingerprint)


def _fit_raw(dataset: EpochSet, m: int, scheme: str = "auto", bank: FilterBankSpec = FilterBankSpec(),
             rows=None) -> CspModel:
    """Filter bank + spatial filters fitted on the raw epochs ``dataset[rows]``
    (every epoch when ``rows`` is None), filtered one round at a time.

    Each filtered round is freed once its covariances are summed, so the fit
    keeps none: a caller that also wants the training epochs projected
    filters them again through :func:`_apply_raw`. The model's
    ``fitted_on`` is the fingerprint of the raw epochs fitted on.
    """
    rows = np.arange(len(dataset)) if rows is None else np.asarray(rows, dtype=np.intp)
    with closing(_filter_rounds(dataset.to_array(), bank, dataset.sampling_rate, rows)) as rounds:
        return _fit(rounds, dataset.labels[rows], dataset.num_classes, m, scheme, bank,
                    dataset.fingerprint_of(rows))


def _apply_raw(model: CspModel, data: np.ndarray, sampling_rate: float,
               rows: np.ndarray | None = None, dtype=np.float64) -> np.ndarray:
    """Filter raw epochs ``data[rows]`` (every row when ``rows`` is None) one
    round at a time and project each round into the ``dtype`` output as it
    arrives. Channels are checked before a filter pass is spent.

    Every epoch is filtered and projected on its own, so an epoch's output
    does not depend on which rows share its round: projecting ``[a | b]``
    gives ``a``'s and ``b``'s projections, bit for bit. A float32 output
    holds the float64 projection rounded once.
    """
    model.check_raw_channels(data.shape[1])
    out = np.empty((len(data) if rows is None else len(rows), model.n_outputs, data.shape[2]), dtype=dtype)
    start = 0
    with closing(_filter_rounds(data, model.bank, sampling_rate, rows)) as rounds:
        for filtered in rounds:
            out[start : start + len(filtered)] = model.project(filtered)
            start += len(filtered)
    return out


def apply_csp_set(dataset: EpochSet, model: CspModel) -> EpochSet:
    """Project every epoch of a set; the sample count is unchanged."""
    return dataset.with_data(model.project(dataset.to_array()))


class CspTransformer(EstimatorMixin):
    """Filter bank + CSP with the sklearn fit/transform contract on arrays.

    ``fit(X, y)`` takes raw ``(n, channels, samples)`` epochs with 1-based
    labels, band-filters them, and fits the spatial filters on that data
    only. ``transform(X)`` returns ``(n, n_filters, samples)`` virtual
    channels.
    """

    def __init__(
        self,
        m: int = 2,
        bands: tuple[tuple[float, float], ...] = FilterBankSpec.bands,
        order: int = FilterBankSpec.order,
        scheme: str = "auto",
        sampling_rate: float = 250.0,
    ):
        self.m = m
        self.bands = bands
        self.order = order
        self.scheme = scheme
        self.sampling_rate = sampling_rate

    def fit(self, X, y):
        X = as_epoch_array(X)
        y = as_labels(y)
        bank = FilterBankSpec(bands=self.bands, order=self.order)
        self.model_ = _fit_raw(EpochSet(X, y, self.sampling_rate), self.m, self.scheme, bank)
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "model_"):
            raise NotFittedError("CspTransformer must be fitted before transform")
        return _apply_raw(self.model_, as_epoch_array(X), self.sampling_rate)

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)
