"""Estimator plumbing and input validation helpers shared across the package."""

from __future__ import annotations

import inspect
import json
from dataclasses import MISSING, fields

import numpy as np

__all__ = ["DocumentError", "EstimatorMixin", "NotFittedError", "as_epoch_array", "as_labels"]

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


class DocumentError(ValueError):
    """A document or config field that is missing, unknown, or not of its kind."""


# The one kind rule: each kind's types and its name in messages. An integer
# is an int or numpy integer and a number any int or float (numpy's too);
# neither is a bool. A list may be a tuple, and None stands for JSON null.
_KINDS = {
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.integer, np.floating), "a number"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    list: ((list, tuple), "a list"),
    dict: (dict, "a JSON object"),
    None: (type(None), "null"),
}


def _is_kind(value, kind) -> bool:
    """Whether ``value`` is of ``kind``, one of :data:`_KINDS` or a tuple of them."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return any(isinstance(value, _KINDS[k][0]) and (k is bool or not isinstance(value, bool)) for k in kinds)


def _kind_error(value, kind) -> str:
    """``kind`` in words (the first of a tuple) and what ``value`` is instead."""
    got = "null" if value is None else type(value).__name__
    return f"must be {_KINDS[kind[0] if isinstance(kind, tuple) else kind][1]}, got {got}"


def _object(doc, where: str) -> dict:
    """``doc``; a ``DocumentError`` unless it is a JSON object."""
    if not _is_kind(doc, dict):
        raise DocumentError(f"{where} {_kind_error(doc, dict)}")
    return doc


_REQUIRED = object()


def _field(doc, name: str, kind, where: str, default=_REQUIRED):
    """``doc[name]``, or ``default`` when the field is absent and a default is
    given. A ``doc`` that is not a JSON object, a missing required field, or a
    value not of ``kind`` (see :func:`_is_kind`) raises ``DocumentError``
    naming ``where`` and the field."""
    if name not in _object(doc, where):
        if default is _REQUIRED:
            raise DocumentError(f"{where}: missing field {name!r}")
        return default
    if not _is_kind(doc[name], kind):
        raise DocumentError(f"{where}: field {name!r} {_kind_error(doc[name], kind)}")
    return doc[name]


def _items(values, kind, where: str) -> list:
    """``values``, a list each of whose entries is of ``kind``; else a
    ``DocumentError`` naming ``where`` and the first entry that is not."""
    if not _is_kind(values, list):
        raise DocumentError(f"{where} {_kind_error(values, list)}")
    for k, value in enumerate(values):
        if not _is_kind(value, kind):
            raise DocumentError(f"{where}: entry {k} is {json.dumps(value, default=repr)}, not {_KINDS[kind][1]}")
    return values


def _known_keys(doc, cls, where: str) -> dict:
    """``doc``, a JSON object that holds every field of the dataclass ``cls``
    without a default and no key that is not a field; else a ``DocumentError``
    naming the key."""
    unknown = sorted(set(_object(doc, where)) - {f.name for f in fields(cls)})
    if unknown:
        raise DocumentError(f"{where}: {cls.__name__} has no field {', '.join(map(repr, unknown))}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            _field(doc, f.name, tuple(_KINDS), where)  # present, of any kind
    return doc


_ANNOTATED_KINDS = {k.__name__: k for k in _KINDS if k is not None}


def _check_fields(owner) -> None:
    """Raise ``DocumentError`` naming the first field of the dataclass
    ``owner`` annotated with a kind (``int``, ``float``, ``bool``, ``str``,
    ``dict``, or one of them ``| None``) whose value is not of it. Fields of
    any other annotation are not checked. The annotations are read as
    strings, so the owner's module postpones their evaluation."""
    for f in fields(owner):
        kind = _ANNOTATED_KINDS.get(f.type.removesuffix(" | None"))
        value = getattr(owner, f.name)
        if kind is not None and not _is_kind(value, (kind, None) if f.type.endswith(" | None") else kind):
            raise DocumentError(f"{f.name} must be {_KINDS[kind][1]}, got {value!r}")
