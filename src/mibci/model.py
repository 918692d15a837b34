"""The end-to-end classifier estimator: CNN features, fixed code targets.

``WalshCnnClassifier`` follows the sklearn fit/predict contract over
``(n, channels, samples)`` arrays with 1-based labels. Fitting trains the
convolutional feature extractor to regress each epoch onto its class's
Walsh code row; prediction runs the frozen minimum-distance rule over the
extractor output. Multi-class problems can alternatively be decomposed into
one-versus-one or one-versus-rest member networks.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .base import EstimatorMixin, NotFittedError, _pipeline, _require_aligned, as_epoch_array, as_labels
from .epochs import SplitSpec, _stratified_draw, derive_seed
from .mdn import MetaScheme, SchemeMember, decomposition, mdn_distances, scheme_predict
from .network import ConvBlockSpec, NetworkSpec, forward, parse_structure
from .training import TrainConfig, train
from .walsh import WalshCodebook, build_walsh

__all__ = ["WalshCnnClassifier", "default_structure"]


def default_structure(channels: int, length: int, output_dim: int = WalshCodebook.size) -> str:
    """A table-style structure string sized to the input.

    Same-padded pooled blocks of 40 planes with 9-sample kernels halve the
    length until it reaches the code size, then one valid block spans the
    rest so the flatten equals ``output_dim``.
    """
    triples = []
    in_p = channels
    while length > output_dim:
        triples.append(f"{in_p},{min(9, length)},40")
        in_p = 40
        length = -(-length // 2)
    triples.append(f"{in_p},{length},{output_dim}")
    return " / ".join(triples)


def _member_problem(X: np.ndarray, y: np.ndarray, classes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The epochs a member separating ``classes`` trains on, relabelled so
    that ``classes[k]`` is k+1; a one-class (OVR) member labels every other
    epoch 2, the rest. ``X`` itself comes back when every epoch is kept."""
    relabelled = np.zeros_like(y)
    for k, c in enumerate(classes):
        relabelled[y == c] = k + 1
    if len(classes) == 1:
        relabelled[relabelled == 0] = 2
    keep = relabelled > 0
    if keep.all():
        return X, relabelled
    return X[keep], relabelled[keep]


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
        When fit gets no validation set, each class gives
        ``floor(n_c * validation_fraction)`` of its epochs to validation, but
        at least one when it has two or more. The draw is the per-class one
        of :func:`~mibci.epochs.split_dataset`, seeded with
        ``derive_seed(seed, "val-split")``.
    batch_norm, dropout_p
        Defaults for the hidden blocks of parsed structures.
    Remaining parameters mirror :class:`~mibci.training.TrainConfig`.
    """

    def __init__(
        self,
        structure: str | None = None,
        code_size: int = WalshCodebook.size,
        scheme: str = "single",
        learning_rate: float = TrainConfig.learning_rate,
        batch_size: int = TrainConfig.batch_size,
        max_iterations: int = TrainConfig.max_iterations,
        patience: int = TrainConfig.patience,
        batch_norm: bool = ConvBlockSpec.batch_norm,
        dropout_p: float = ConvBlockSpec.dropout_p,
        validation_fraction: float = SplitSpec.validation_fraction,
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
        knobs = {f.name: getattr(self, f.name) for f in fields(TrainConfig) if f.name != "seed"}
        return TrainConfig(**knobs, seed=seed)

    def _validate_params(self) -> None:
        """Raise ``ValueError`` for a parameter its owner's range rule refuses."""
        self._train_config(self.seed)
        SplitSpec(validation_fraction=self.validation_fraction)
        build_walsh(self.code_size)
        decomposition(self.scheme, 2)
        ConvBlockSpec(1, 1, 1, dropout_p=self.dropout_p)
        if self.structure is not None:
            self._parse(None, None)

    def _parse(self, channels: int | None, length: int | None) -> NetworkSpec:
        structure = self.structure
        if structure is None:
            structure = default_structure(channels, length, self.code_size)
        return parse_structure(
            structure,
            output_dim=self.code_size,
            batch_norm=self.batch_norm,
            dropout_p=self.dropout_p,
        )

    def fit(self, X, y, X_val=None, y_val=None):
        """Train on epochs X with labels y; carve validation data if not given."""
        self._validate_params()
        X = as_epoch_array(X)
        y = as_labels(y)
        _require_aligned(X, y, "training")
        if X_val is None:
            rng = np.random.default_rng(derive_seed(self.seed, "val-split"))
            va, tr = _stratified_draw(y, (self.validation_fraction,), rng, at_least_one=True)
            if len(va) == 0:
                raise ValueError("not enough data to carve a validation set; pass X_val explicitly")
            X, X_val, y, y_val = X[tr], X[va], y[tr], y[va]
        else:
            X_val = as_epoch_array(X_val)
            y_val = as_labels(y_val)
            _require_aligned(X_val, y_val, "validation")

        self.classes_ = [int(c) for c in np.unique(np.concatenate([y, y_val]))]
        num_classes = max(self.classes_)
        self.num_classes_ = num_classes
        spec = self._parse(X.shape[1], X.shape[2])
        self.spec_ = spec
        problems, rows = decomposition(self.scheme, num_classes)
        missing = sorted(set(range(1, num_classes + 1)) - set(self.classes_))
        if missing and self.scheme != "single":
            raise ValueError(
                f"{self.scheme} over classes 1..{num_classes} needs epochs of every class; "
                f"class(es) {missing} have none"
            )
        codebook = WalshCodebook(rows, self.code_size)

        def fit_member(k: int):
            seed = self.seed if self.scheme == "single" else derive_seed(self.seed, "member", k)
            return train(
                spec,
                _member_problem(X, y, problems[k]),
                _member_problem(X_val, y_val, problems[k]),
                codebook,
                self._train_config(seed),
            )

        fitted = list(_pipeline(fit_member, range(len(problems))))
        self.train_reports_ = [report for _, report in fitted]
        members = tuple(
            SchemeMember(classes=classes, spec=spec, params=params)
            for classes, (params, _) in zip(problems, fitted)
        )
        self.scheme_ = MetaScheme(kind=self.scheme, num_classes=num_classes, members=members)
        return self

    def _require_fitted(self) -> None:
        if not hasattr(self, "scheme_"):
            raise NotFittedError("WalshCnnClassifier must be fitted before prediction")

    def features(self, X) -> np.ndarray:
        """Extractor output vectors (single scheme only)."""
        self._require_fitted()
        if self.scheme_.kind != "single":
            raise ValueError("features() is defined for the single-network scheme")
        X = as_epoch_array(X)
        member = self.scheme_.members[0]
        return forward(member.spec, member.params, X)

    def decision_distances(self, X) -> np.ndarray:
        """Per-class code distances (single scheme only)."""
        return mdn_distances(self.features(X), self.scheme_.codebook)

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X = as_epoch_array(X)
        return scheme_predict(X, self.scheme_, self.scheme_.codebook)

    def score(self, X, y) -> float:
        y = as_labels(y)
        return float(np.mean(self.predict(X) == y))
