"""In-memory spans around calls into mibci's public functions.

The tracer patches every binding of each target inside the loaded ``mibci``
modules (``mibci.training.backward`` as well as ``mibci.network.backward``,
``mibci.experiment.augment_set`` as well as ``mibci.augment.augment_set``),
records one span per call and puts every original back on exit. Nothing
under ``src/`` is touched: the spans come from the benchmark's own files.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _conv_forward_attrs(args, kwargs, result) -> dict:
    batch, out_planes, out_len = result[0].shape
    _, in_planes, k = args[1].shape
    return {"flop": 2 * batch * out_planes * in_planes * k * out_len}


def _conv_backward_attrs(args, kwargs, result) -> dict:
    # dweight and dx each cost one multiply-add per (b, o, p, k, l) term
    batch, out_planes, out_len = args[0].shape
    _, in_planes, k = args[1][2].shape
    return {"flop": 4 * batch * out_planes * in_planes * k * out_len}


def _load_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0]), "epochs": len(result)}


def _filter_bank_attrs(args, kwargs, result) -> dict:
    return {"epochs": len(args[0])}


def _augment_attrs(args, kwargs, result) -> dict:
    return {"epochs_out": len(result)}


def _train_attrs(args, kwargs, result) -> dict:
    train_data = args[1] if len(args) > 1 else kwargs["train_data"]
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    n = len(train_data[0]) if isinstance(train_data, tuple) else len(train_data)
    report = result[1]
    steps_per_pass = math.ceil(n / min(cfg.batch_size, n))
    return {
        "passes": report.stopped_at,
        "best_pass": report.best_iteration,
        "steps": report.stopped_at * steps_per_pass,
        "epoch_passes": report.stopped_at * n,
    }


# (module, qualified name, span name, attribute extractor)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("mibci.io", "load_epochs", "io.load_epochs", _load_attrs),
    ("mibci.epochs", "split_dataset", "epochs.split_dataset", None),
    ("mibci.epochs", "EpochSet.to_array", "epochs.EpochSet.to_array", None),
    ("mibci.epochs", "EpochSet.subset", "epochs.EpochSet.subset", None),
    ("mibci.epochs", "EpochSet.epoch_fingerprints", "epochs.EpochSet.epoch_fingerprints", None),
    ("mibci.bandpass", "apply_filter_bank_set", "bandpass.apply_filter_bank_set", _filter_bank_attrs),
    ("mibci.csp", "fit_csp", "csp.fit_csp", None),
    ("mibci.csp", "apply_csp_set", "csp.apply_csp_set", None),
    ("mibci.augment", "augment_set", "augment.augment_set", _augment_attrs),
    ("mibci.training", "train", "training.train", _train_attrs),
    ("mibci.network", "backward", "network.backward", None),
    ("mibci.network", "forward", "network.forward", None),
    ("mibci.layers", "conv1d_forward", "layers.conv1d_forward", _conv_forward_attrs),
    ("mibci.layers", "conv1d_backward", "layers.conv1d_backward", _conv_backward_attrs),
    ("mibci.layers", "batchnorm_forward", "layers.batchnorm_forward", None),
    ("mibci.layers", "batchnorm_backward", "layers.batchnorm_backward", None),
    ("mibci.layers", "maxpool_forward", "layers.maxpool_forward", None),
    ("mibci.layers", "maxpool_backward", "layers.maxpool_backward", None),
    ("mibci.layers", "relu_forward", "layers.relu_forward", None),
    ("mibci.layers", "relu_backward", "layers.relu_backward", None),
    ("mibci.layers", "dropout_forward", "layers.dropout_forward", None),
    ("mibci.layers", "dropout_backward", "layers.dropout_backward", None),
    ("mibci.mdn", "scheme_predict", "mdn.scheme_predict", None),
    ("mibci.mdn", "tally_ovo_votes", "mdn.tally_ovo_votes", None),
    ("mibci.metrics", "divergence", "metrics.divergence", None),
    ("mibci.model", "WalshCnnClassifier.fit", "model.WalshCnnClassifier.fit", None),
    ("mibci.model", "WalshCnnClassifier.predict", "model.WalshCnnClassifier.predict", None),
    ("mibci.experiment", "run_experiment", "experiment.run_experiment", None),
    ("mibci.cli", "main", "cli.main", None),
)


@dataclass
class Span:
    """One call: its name, the run it belongs to, its interval and its caller."""

    name: str
    run: int
    start: float
    end: float
    parent: int
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records spans while the targets are patched.

    ``run`` tags the spans of one measured call, so spans of one request share
    an identifier. ``patched`` lists every ``(owner, attribute, original)``
    binding replaced, for checking that exit put each original back.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.run, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.patched = []
        try:
            for module_name, qualname, span_name, attrs_fn in TARGETS:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(span_name, original, attrs_fn))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(span_name, original, attrs_fn)
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "mibci" or name.startswith("mibci.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self.patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()


def span_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed attributes, and
    for ``network.forward`` the calls not nested inside ``network.backward``.

    Self time is a span's duration minus its direct children's; calls run on
    one thread, so children never overlap.
    """
    child_seconds = [0.0] * len(spans)
    in_backward = [False] * len(spans)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            parent = spans[span.parent]
            child_seconds[span.parent] += span.seconds
            in_backward[i] = in_backward[span.parent] or parent.name == "network.backward"
    table: dict[str, dict] = {}
    for i, span in enumerate(spans):
        name = span.name
        if name == "network.forward" and in_backward[i]:
            name = "network.forward.in_backward"
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": {}, "per_call": []})
        row["calls"] += 1
        row["s"] += span.seconds
        row["self_s"] += span.seconds - child_seconds[i]
        row["per_call"].append(span.seconds)
        for key, value in (span.attrs or {}).items():
            row["attrs"][key] = row["attrs"].get(key, 0) + value
    return table
