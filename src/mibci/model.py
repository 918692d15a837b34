"""The end-to-end classifier estimator: CNN features, fixed code targets.

``WalshCnnClassifier`` follows the sklearn fit/predict contract over
``(n, channels, samples)`` arrays with 1-based labels. Fitting trains the
convolutional feature extractor to regress each epoch onto its class's
Walsh code row; prediction runs the frozen minimum-distance rule over the
extractor output. Multi-class problems can alternatively be decomposed into
one-versus-one or one-versus-rest member networks.
"""

from __future__ import annotations

import numpy as np

from .base import EstimatorMixin, NotFittedError, as_epoch_array, as_labels
from .epochs import derive_seed
from .mdn import (
    MdnClassifier,
    MetaScheme,
    SchemeMember,
    _map_members,
    mdn_distances,
    scheme_predict,
)
from .network import NetworkSpec, forward, parse_structure
from .training import TrainConfig, train
from .walsh import WalshCodebook

__all__ = ["WalshCnnClassifier", "default_structure"]


def default_structure(channels: int, length: int, output_dim: int = 16, planes: int = 40, kernel: int = 9) -> str:
    """A table-style structure string sized to the input.

    Same-padded pooled blocks halve the length until it reaches the code
    size, then one valid block spans the rest so the flatten equals
    ``output_dim``.
    """
    triples = []
    in_p = channels
    while length > output_dim:
        k = min(kernel, length)
        triples.append(f"{in_p},{k},{planes}")
        in_p = planes
        length = -(-length // 2)
    triples.append(f"{in_p},{length},{output_dim}")
    return " / ".join(triples)


def _stratified_validation_split(y: np.ndarray, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for c in np.unique(y):
        idx = np.nonzero(y == c)[0]
        idx = idx[rng.permutation(len(idx))]
        n_val = int(np.floor(len(idx) * fraction))
        if n_val == 0 and len(idx) > 1:
            n_val = 1
        val_idx.extend(idx[:n_val])
        train_idx.extend(idx[n_val:])
    return np.sort(np.array(train_idx, dtype=int)), np.sort(np.array(val_idx, dtype=int))


class WalshCnnClassifier(EstimatorMixin):
    """CNN feature extractor regressed onto Walsh code rows, MDN decision.

    Parameters
    ----------
    structure : str, optional
        Table-style layer triples; None picks :func:`default_structure`.
    code_size : int
        Dimension of the Walsh code matrix (the flatten size of the net).
    scheme : {'single', 'ovo', 'ovr'}
        Single multi-class network or a pairwise / per-class decomposition.
    validation_fraction : float
        Carved per class from the training data when no explicit validation
        set is passed to fit.
    batch_norm, dropout_p
        Defaults for the hidden blocks of parsed structures.
    Remaining parameters mirror :class:`~mibci.training.TrainConfig`.
    """

    def __init__(
        self,
        structure: str | None = None,
        code_size: int = 16,
        scheme: str = "single",
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        max_iterations: int = 500,
        patience: int = 20,
        batch_norm: bool = True,
        dropout_p: float = 0.5,
        validation_fraction: float = 0.1,
        seed: int = 0,
    ):
        self.structure = structure
        self.code_size = code_size
        self.scheme = scheme
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_iterations = max_iterations
        self.patience = patience
        self.batch_norm = batch_norm
        self.dropout_p = dropout_p
        self.validation_fraction = validation_fraction
        self.seed = seed

    def _train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_iterations=self.max_iterations,
            patience=self.patience,
            seed=seed,
        )

    def _parse(self, channels: int, length: int) -> NetworkSpec:
        structure = self.structure
        if structure is None:
            structure = default_structure(channels, length, self.code_size)
        return parse_structure(
            structure,
            input_channels=channels,
            input_length=length,
            output_dim=self.code_size,
            batch_norm=self.batch_norm,
            dropout_p=self.dropout_p,
        )

    def fit(self, X, y, X_val=None, y_val=None):
        """Train on epochs X with labels y; carve validation data if not given."""
        X = as_epoch_array(X)
        y = as_labels(y)
        if X_val is None:
            tr, va = _stratified_validation_split(y, self.validation_fraction, derive_seed(self.seed, "val-split"))
            if len(va) == 0:
                raise ValueError("not enough data to carve a validation set; pass X_val explicitly")
            X, X_val, y, y_val = X[tr], X[va], y[tr], y[va]
        else:
            X_val = as_epoch_array(X_val)
            y_val = as_labels(y_val)

        self.classes_ = [int(c) for c in np.unique(np.concatenate([y, y_val]))]
        num_classes = max(self.classes_)
        self.num_classes_ = num_classes
        spec = self._parse(X.shape[1], X.shape[2])
        self.spec_ = spec
        self.train_reports_ = []

        if self.scheme == "single":
            self.codebook_ = WalshCodebook.for_classes(num_classes, self.code_size)
            params, report = train(spec, (X, y), (X_val, y_val), self.codebook_, self._train_config(self.seed))
            self.params_ = params
            self.scheme_ = MetaScheme(
                kind="single",
                num_classes=num_classes,
                members=(SchemeMember(classes=tuple(range(1, num_classes + 1)), spec=spec, params=params),),
            )
            self.train_reports_.append(report)
            return self

        self.codebook_ = WalshCodebook.for_classes(2, self.code_size)
        if self.scheme == "ovo":
            problems = [
                (a, b)
                for i, a in enumerate(self.classes_)
                for b in self.classes_[i + 1 :]
            ]
        elif self.scheme == "ovr":
            problems = [(c,) for c in self.classes_]
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")

        def fit_member(k: int):
            classes = problems[k]
            y_bin = self._binarize(y, classes)
            yv_bin = self._binarize(y_val, classes)
            keep = y_bin > 0
            keep_val = yv_bin > 0
            return train(
                spec,
                (X[keep], y_bin[keep]),
                (X_val[keep_val], yv_bin[keep_val]),
                self.codebook_,
                self._train_config(derive_seed(self.seed, "member", k)),
            )

        fitted = _map_members(fit_member, range(len(problems)))
        members = [
            SchemeMember(classes=classes, spec=spec, params=params)
            for classes, (params, _) in zip(problems, fitted)
        ]
        self.train_reports_.extend(report for _, report in fitted)
        self.scheme_ = MetaScheme(kind=self.scheme, num_classes=num_classes, members=tuple(members))
        return self

    @staticmethod
    def _binarize(y: np.ndarray, classes: tuple[int, ...]) -> np.ndarray:
        """Map original labels onto binary labels 1/2; 0 marks excluded epochs."""
        out = np.zeros_like(y)
        if len(classes) == 2:
            out[y == classes[0]] = 1
            out[y == classes[1]] = 2
        else:
            out[y == classes[0]] = 1
            out[y != classes[0]] = 2
        return out

    def _require_fitted(self) -> None:
        if not hasattr(self, "scheme_"):
            raise NotFittedError("WalshCnnClassifier must be fitted before prediction")

    def features(self, X) -> np.ndarray:
        """Extractor output vectors (single scheme only)."""
        self._require_fitted()
        if self.scheme_.kind != "single":
            raise ValueError("features() is defined for the single-network scheme")
        X = as_epoch_array(X)
        return np.atleast_2d(forward(self.spec_, self.params_, X, mode="eval"))

    def decision_distances(self, X) -> np.ndarray:
        """Per-class code distances (single scheme only)."""
        return mdn_distances(self.features(X), MdnClassifier(self.codebook_))

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X = as_epoch_array(X)
        return scheme_predict(X, self.scheme_, MdnClassifier(self.codebook_))

    def score(self, X, y) -> float:
        y = as_labels(y)
        return float(np.mean(self.predict(X) == y))
