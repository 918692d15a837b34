"""Estimator plumbing and input validation helpers shared across the package."""

from __future__ import annotations

import inspect

import numpy as np

__all__ = ["EstimatorMixin", "NotFittedError", "as_epoch_array", "as_labels"]

# Epochs per block of the stages that work on each epoch alone: the eval
# forward and the filter bank. It bounds their temporaries by one block,
# not by the partition: for the paper-scale net, a block's conv windows are
# 32 x 126 x 40 x 7 float32, about 4.5 MB.
BLOCK_EPOCHS = 32


class NotFittedError(ValueError):
    """Raised when transform/predict is called before fit."""


class EstimatorMixin:
    """Minimal get_params/set_params so estimators compose with sklearn tooling.

    Parameter names are taken from the ``__init__`` signature, mirroring the
    scikit-learn convention: constructor arguments are stored verbatim as
    attributes and fitted state carries a trailing underscore.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def as_epoch_array(X, dtype=np.float64) -> np.ndarray:
    """Validate and coerce a batch of epochs to a (n, channels, samples) array."""
    X = np.asarray(X, dtype=dtype)
    if X.ndim == 2:
        X = X[np.newaxis]
    if X.ndim != 3:
        raise ValueError(f"expected (n_epochs, n_channels, n_samples) data, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("epoch data contains non-finite values")
    return X


def _integer_labels(y) -> np.ndarray:
    """``y`` as an int64 array; a value that is not a whole number raises ``ValueError``."""
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        y = np.asarray(y, dtype=np.float64)
        if not (np.isfinite(y).all() and np.array_equal(np.rint(y), y)):
            raise ValueError("labels must be integers")
    return y.astype(np.int64)


def _require_aligned(X, y, partition: str) -> None:
    """Raise ``ValueError`` naming both counts unless X and y have one label per epoch."""
    if len(X) != len(y):
        raise ValueError(f"{partition} data has {len(X)} epochs but {len(y)} labels")


def as_labels(y, num_classes: int | None = None) -> np.ndarray:
    """Validate 1-based integer class labels."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {y.shape}")
    y = _integer_labels(y)
    if y.size and y.min() < 1:
        raise ValueError("labels are 1-based; found label < 1")
    if num_classes is not None and y.size and y.max() > num_classes:
        raise ValueError(f"label {y.max()} exceeds num_classes={num_classes}")
    return y


def _is_number(value) -> bool:
    """Whether ``value`` is an int or float (numpy's too), which a bool is not."""
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool)


def _require_integers(owner, *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``owner``'s fields ``names``
    that is not an int (numpy's too), which a bool is not."""
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _require(doc, name: str, where: str):
    """``doc[name]``; a ``ValueError`` naming the field when it is missing."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if name not in doc:
        raise ValueError(f"{where}: missing field {name!r}")
    return doc[name]
