"""Estimator plumbing and input validation helpers shared across the package."""

from __future__ import annotations

import inspect
import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, fields
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = ["DocumentError", "EstimatorMixin", "NotFittedError", "as_epoch_array", "as_labels"]

# Epochs per block of the stages that work on each epoch alone, read only by
# :func:`_blocks`. It bounds their temporaries by one block, not by the
# partition: for the paper-scale net, a block's conv windows are
# 32 x 126 x 40 x 7 float32, about 4.5 MB. The eval forward keeps 32: blocks
# of 4 changed its outputs and cost about 20% more forward time.
BLOCK_EPOCHS = 32

# Epochs per round of the filter bank's :func:`_pipeline`. At the BCI-IV-2a
# shape a round's filtered output is 4 x 110 x 500 float64, 1.8 MB, against
# 14 MB for a block of 32. Measured on a 2-CPU machine, filtering rounds of 4
# ahead of the caller took a CSP fit at that shape from 26.8 to 9.5 MB traced,
# and from 0.35 to 0.27 s.
ROUND_EPOCHS = 4

# Threads of a :func:`_pipeline`, at most; fewer on fewer usable CPUs. Its
# working set grows with them: each holds a round and its filter
# temporaries, and the fit's traced peak at the BCI-IV-2a shape measured
# 9.6, 21.4, 28.5 and 45.1 MB at 2, 6, 8 and 16 threads. Six rounds being
# filtered, one queued and the one the caller holds are 32 epochs, one
# BLOCK_EPOCHS block; and the caller's covariances of a round take a sixth
# of its filtering (0.65 against 4.1 ms on one thread), so a seventh thread
# would mostly wait in the fit. A scheme's members share the cap: OVO over
# five or more classes runs its members on six threads, with the same results.
PIPELINE_WORKERS = 6


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


def _blocks(data: np.ndarray, rows: np.ndarray | None = None, dtype=None,
            size: int | None = None) -> Iterator[np.ndarray]:
    """``data[rows]`` (all of ``data`` when ``rows`` is None) in blocks of
    ``size`` rows (:data:`BLOCK_EPOCHS` when None), each cast to ``dtype``
    once (None keeps it), with no copy of ``data[rows]``. Every per-epoch
    stage takes its blocks from here."""
    size = BLOCK_EPOCHS if size is None else size
    for start in range(0, len(data) if rows is None else len(rows), size):
        block = slice(start, start + size)
        yield np.asarray(data[block] if rows is None else data[rows[block]], dtype=dtype)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pipeline(fn: Callable, items: Iterable) -> Iterator:
    """``fn(item)`` for each of ``items``, yielded in item order: the
    package's one thread pool, for the filter bank's rounds and a scheme's
    members alike.

    A pool starts only for two or more items on two or more usable CPUs;
    else the calls run inline. It has a thread per usable CPU, at most
    :data:`PIPELINE_WORKERS`, and starts one on a submit only when none is
    idle, so two items start at most two. The calls run ahead of the caller
    and one more waits queued, so at most ``PIPELINE_WORKERS + 2`` results
    are alive at once on any CPU count.

    ``items`` is drawn on the calling thread, so what it allocates (a
    round's output buffer) is allocated there, and freed there once the
    caller drops the result: a buffer allocated on a worker thread would
    grow that thread's malloc arena instead. The first call in item order
    that raised re-raises here, and the calls not yet started are cancelled;
    closing the generator does the same, and in both cases the pool's
    threads have ended when it returns.
    """
    workers = min(_usable_cpus(), PIPELINE_WORKERS)
    items = iter(items)
    head = list(islice(items, 2)) if workers > 1 else []
    if len(head) < 2:
        yield from map(fn, chain(head, items))
        return
    pool, pending = ThreadPoolExecutor(max_workers=workers), deque()
    try:
        for item in chain(head, items):
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _epoch_data(X) -> np.ndarray:
    """``X`` as an array of epoch samples: float32 data (the EPB1 sample type
    and the training dtype) stays float32 and is not copied; any other
    becomes float64."""
    X = np.asarray(X)
    return X if X.dtype == np.float32 else X.astype(np.float64, copy=False)


def as_epoch_array(X) -> np.ndarray:
    """Validate and coerce a batch of epochs to a (n, channels, samples)
    array, float32 or float64 as :func:`_epoch_data` keeps it."""
    X = _epoch_data(X)
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
# neither is a bool, and both must convert to a finite float, so NaN and
# ±Infinity (which Python's json reads) and an integer beyond float range are
# refused. A list may be a tuple, and None stands for JSON null.
_KINDS = {
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.integer, np.floating), "a number"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    list: ((list, tuple), "a list"),
    dict: (dict, "a JSON object"),
    None: (type(None), "null"),
}


def _of_type(value, kind) -> bool:
    """Whether ``value`` has one of ``kind``'s types (a bool is only a boolean)."""
    return isinstance(value, _KINDS[kind][0]) and (kind is bool or not isinstance(value, bool))


def _finite(value) -> bool:
    """Whether the number ``value`` converts to a finite float."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _is_kind(value, kind) -> bool:
    """Whether ``value`` is of ``kind``, one of :data:`_KINDS` or a tuple of them."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return any(_of_type(value, k) and (k not in (int, float) or _finite(value)) for k in kinds)


def _kind_error(value, kind) -> str:
    """``kind`` in words (the first of a tuple whose type ``value`` has, else
    the first) and what ``value`` is instead."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    typed = [k for k in kinds if _of_type(value, k)]
    if typed:  # a number of the right type that no finite float holds
        shown = f"an integer of {len(str(abs(value)))} digits" if isinstance(value, int) else repr(float(value))
        return f"must be {_KINDS[typed[0]][1]} that converts to a finite float, got {shown}"
    got = "null" if value is None else type(value).__name__
    return f"must be {_KINDS[kinds[0]][1]}, got {got}"


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
            wrong = (_kind_error(value, kind) if _of_type(value, kind)
                     else f"is {json.dumps(value, default=repr)}, not {_KINDS[kind][1]}")
            raise DocumentError(f"{where}: entry {k} {wrong}")
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
            wrong = _kind_error(value, kind) if _of_type(value, kind) else f"must be {_KINDS[kind][1]}, got {value!r}"
            raise DocumentError(f"{f.name} {wrong}")
