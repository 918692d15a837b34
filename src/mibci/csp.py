"""Common spatial patterns fitted on filter-bank output.

Two-class fitting follows the classical recipe: per-epoch spatial
covariances are trace-normalized, averaged per class into C1 and C2, the
composite C1 + C2 is whitened, and the whitened C1 is eigendecomposed. The
rows of the full filter matrix are sorted by descending eigenvalue and the
m top plus m bottom filters form the projection, so the first output
channels maximize class-1 variance while the last maximize class-2
variance. Multi-class models compose one two-class fit per class against
the pooled rest and stack the projections.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bandpass import DEFAULT_BANDS, FilterBankSpec, _filter_bank, apply_filter_bank_set
from .base import EstimatorMixin, NotFittedError, as_epoch_array, as_labels
from .epochs import EpochSet

__all__ = ["CspModel", "fit_csp", "apply_csp_set", "CspTransformer"]

_RIDGE_EPS = 1e-6


@dataclass(frozen=True)
class CspModel:
    """Fitted spatial filters plus the metadata needed to audit and apply them.

    ``projection`` has ``2m`` rows for a two-class fit and ``2m * C`` rows for
    a one-vs-rest fit, with ``input_channels`` columns (channels x bands of
    the filtered input). ``eigenvalues`` holds the whitened eigenvalue
    spectrum of each binary subproblem and ``full_filters`` the corresponding
    unselected filter matrices; both are diagnostics and are not serialized.
    ``fitted_on`` is the fingerprint of the exact training set seen by fit.
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
        doc = json.loads(text)
        rows = 2 * doc["m"] * (1 if doc["scheme"] == "two_class" else doc["num_classes"])
        projection = np.array(doc["projection"], dtype=np.float64).reshape(rows, doc["input_channels"])
        return cls(
            m=doc["m"],
            scheme=doc["scheme"],
            projection=projection,
            bank=FilterBankSpec(bands=tuple(tuple(b) for b in doc["bands"]), order=doc["filter_order"]),
            num_classes=doc["num_classes"],
            input_channels=doc["input_channels"],
            fitted_on=doc["fingerprint"],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CspModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _normalized_covariances(X: np.ndarray) -> np.ndarray:
    """Per-epoch spatial covariance X X^T divided by its trace."""
    covs = np.einsum("nct,ndt->ncd", X, X)
    traces = np.trace(covs, axis1=1, axis2=2)
    if (traces <= 0).any():
        raise ValueError("an epoch with zero total power has no spatial covariance")
    return covs / traces[:, None, None]


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _whiten(composite: np.ndarray) -> np.ndarray:
    """Whitening transform W with W composite W^T = I, ridge-regularized if needed."""
    dim = composite.shape[0]
    evals, evecs = np.linalg.eigh(_symmetrize(composite))
    if evals[-1] <= 0:
        raise np.linalg.LinAlgError("composite covariance is not positive semidefinite")
    if evals[0] <= evals[-1] * 1e-12:
        warnings.warn(
            "singular composite covariance; applying ridge regularization",
            RuntimeWarning,
            stacklevel=3,
        )
        ridge = _RIDGE_EPS * np.trace(composite) / dim
        evals, evecs = np.linalg.eigh(_symmetrize(composite + ridge * np.eye(dim)))
        if evals[0] <= evals[-1] * 1e-12:
            raise np.linalg.LinAlgError("composite covariance singular even after ridge")
    return (evecs / np.sqrt(evals)).T


def _csp_pair(c1: np.ndarray, c2: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filters separating two average covariances.

    Returns (selected 2m rows, eigenvalues sorted descending, full filter
    matrix). Eigenvalue ties break toward the lower original index and each
    filter's sign is fixed so its largest-magnitude coefficient is positive,
    keeping results independent of eigensolver sign conventions.
    """
    dim = c1.shape[0]
    if not 1 <= m <= dim // 2:
        raise ValueError(f"m={m} out of range for {dim} input channels (need 2m <= {dim})")
    white = _whiten(c1 + c2)
    s1 = _symmetrize(white @ c1 @ white.T)
    evals, evecs = np.linalg.eigh(s1)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    full = evecs[:, order].T @ white
    signs = np.sign(full[np.arange(dim), np.argmax(np.abs(full), axis=1)])
    signs[signs == 0] = 1.0
    full = full * signs[:, None]
    selected = np.vstack([full[:m], full[dim - m :]])
    return selected, evals, full


def fit_csp(train: EpochSet, m: int, scheme: str = "two_class", bank: FilterBankSpec | None = None) -> CspModel:
    """Fit spatial filters on (already band-filtered) training epochs only.

    Parameters
    ----------
    train : EpochSet
        Filter-bank output epochs; every class needs at least two epochs.
    m : int
        Filters kept per side; the projection has 2m rows per binary problem.
    scheme : {'two_class', 'one_vs_rest'}
        Two-class CSP requires exactly two classes; one-vs-rest fits one
        binary problem per class against the pooled rest.
    bank : FilterBankSpec, optional
        Recorded on the model so apply-time pipelines can reproduce the
        filtering stage; defaults to the standard five-band bank.

    Returns
    -------
    CspModel
        Carries the projection and the fingerprint of ``train``.
    """
    train.require_all_classes()
    counts = train.class_counts()
    if (counts < 2).any():
        raise ValueError("every class needs >= 2 epochs to estimate covariances")
    X = train.to_array()
    y = train.labels
    dim = X.shape[1]
    covs = _normalized_covariances(X)
    class_means = [covs[y == c].mean(axis=0) for c in range(1, train.num_classes + 1)]

    if scheme == "two_class":
        if train.num_classes != 2:
            raise ValueError("two_class CSP needs exactly two classes")
        projection, evals, full = _csp_pair(class_means[0], class_means[1], m)
        eigenvalues = (evals,)
        full_filters = (full,)
    elif scheme == "one_vs_rest":
        rows, eigenvalues_l, full_l = [], [], []
        for c in range(1, train.num_classes + 1):
            own = class_means[c - 1]
            rest = covs[y != c].mean(axis=0)
            sel, evals, full = _csp_pair(own, rest, m)
            rows.append(sel)
            eigenvalues_l.append(evals)
            full_l.append(full)
        projection = np.vstack(rows)
        eigenvalues = tuple(eigenvalues_l)
        full_filters = tuple(full_l)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    return CspModel(
        m=m,
        scheme=scheme,
        projection=projection,
        bank=bank if bank is not None else FilterBankSpec(),
        num_classes=train.num_classes,
        input_channels=dim,
        fitted_on=train.fingerprint,
        eigenvalues=eigenvalues,
        full_filters=full_filters,
    )


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
        bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS,
        order: int = 4,
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
        dataset = EpochSet(X, y, self.sampling_rate)
        bank = FilterBankSpec(bands=self.bands, order=self.order)
        filtered = apply_filter_bank_set(dataset, bank)
        scheme = self.scheme
        if scheme == "auto":
            scheme = "two_class" if dataset.num_classes == 2 else "one_vs_rest"
        self.model_ = fit_csp(filtered, m=self.m, scheme=scheme, bank=bank)
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "model_"):
            raise NotFittedError("CspTransformer must be fitted before transform")
        X = as_epoch_array(X)
        return self.model_.project(_filter_bank(X, self.model_.bank, self.sampling_rate))

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)
