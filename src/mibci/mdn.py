"""Minimum-distance decisions over fixed code rows, plus OVO/OVR composition.

The classifier holds one code vector per class and assigns the label whose
vector is nearest in squared Euclidean distance; its weights are fixed at
construction and never trained. One-versus-one schemes run C(C-1)/2 member
networks, each a binary problem whose two classes map to code rows 1 and 2;
one-versus-rest runs C members scored by the margin between the rest row
and the class row.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .network import NetworkParams, NetworkSpec, forward
from .walsh import WalshCodebook

__all__ = [
    "MdnClassifier",
    "SchemeMember",
    "MetaScheme",
    "mdn_distances",
    "mdn_classify",
    "tally_ovo_votes",
    "scheme_predict",
]


@dataclass(frozen=True)
class MdnClassifier:
    """Nearest-code-row decision rule; ties go to the smallest class index."""

    codebook: WalshCodebook

    @property
    def num_classes(self) -> int:
        return self.codebook.num_classes


def mdn_distances(output: np.ndarray, clf: MdnClassifier) -> np.ndarray:
    """Squared Euclidean distance from an output vector to every class row.

    Accepts one ``(M,)`` vector or a ``(n, M)`` batch and returns ``(C,)``
    or ``(n, C)`` distances where column k-1 holds the distance to class k.
    """
    output = np.asarray(output, dtype=np.float64)
    targets = clf.codebook.targets
    if output.shape[-1] != targets.shape[1]:
        raise ValueError(
            f"output length {output.shape[-1]} does not match code size {targets.shape[1]}"
        )
    if output.ndim == 1:
        diff = output[None, :] - targets
        return (diff * diff).sum(axis=1)
    diff = output[:, None, :] - targets[None, :, :]
    return (diff * diff).sum(axis=2)


def mdn_classify(output: np.ndarray, clf: MdnClassifier) -> int | np.ndarray:
    """Label of the nearest class row (argmin of :func:`mdn_distances`)."""
    d = mdn_distances(output, clf)
    if d.ndim == 1:
        return int(d.argmin()) + 1
    return d.argmin(axis=1) + 1


@dataclass(frozen=True)
class SchemeMember:
    """One member network and the original class labels it separates.

    For OVO ``classes`` is the pair (a, b) mapped to binary labels (1, 2);
    for OVR it is ``(c,)`` with class c as binary label 1 and the rest as 2.
    """

    classes: tuple[int, ...]
    spec: NetworkSpec
    params: NetworkParams


@dataclass(frozen=True)
class MetaScheme:
    """A bundle of member networks realizing a multi-class decision.

    Over labels 1..C, OVO members hold each pair of distinct labels once,
    OVR members one label each, and the single member every label; any
    other assignment raises ``ValueError``.
    """

    kind: str
    num_classes: int
    members: tuple[SchemeMember, ...]

    def __post_init__(self) -> None:
        c = self.num_classes
        labels = tuple(range(1, c + 1))
        if self.kind == "ovo":
            want, rule = list(itertools.combinations(labels, 2)), "each pair of distinct labels"
        elif self.kind == "ovr":
            want, rule = [(label,) for label in labels], "one label each"
        elif self.kind == "single":
            want, rule = [labels], "every label"
        else:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        got = sorted(tuple(sorted(m.classes)) for m in self.members)
        if got != want:
            raise ValueError(
                f"{self.kind} over {c} classes needs {len(want)} member networks holding "
                f"{rule} in 1..{c}, got {[tuple(m.classes) for m in self.members]}"
            )

    def to_json(self) -> str:
        """Bundle every member's network document with its class subset."""
        doc = {
            "kind": self.kind,
            "num_classes": self.num_classes,
            "members": [
                {"classes": list(m.classes), "network": json.loads(m.params.to_json(m.spec))}
                for m in self.members
            ],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "MetaScheme":
        doc = json.loads(text)
        members = []
        for entry in doc["members"]:
            spec, params = NetworkParams.from_json(json.dumps(entry["network"]))
            members.append(SchemeMember(classes=tuple(entry["classes"]), spec=spec, params=params))
        return cls(kind=doc["kind"], num_classes=doc["num_classes"], members=tuple(members))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_members(fn: Callable, members: Sequence) -> list:
    """``[fn(m) for m in members]``, with the members run concurrently.

    Members share no mutable state, and numpy/BLAS release the GIL, so up
    to one thread per usable CPU runs them at once. With one worker the
    calls run inline and no pool is started. Results come back in member
    order; the first member (in that order) that raised re-raises here.
    """
    workers = min(len(members), _usable_cpus())
    if workers <= 1:
        return [fn(m) for m in members]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, members))


def _member_output(member: SchemeMember, data: np.ndarray) -> np.ndarray:
    return forward(member.spec, member.params, data, mode="eval")


def tally_ovo_votes(ballots: list[tuple[tuple[int, int], np.ndarray]], num_classes: int) -> int:
    """Resolve pairwise votes given (class pair, two distances) per member.

    Majority wins; vote ties break toward the smallest summed winning
    distance over the members that voted for each tied class, then toward
    the smallest class index.
    """
    votes = np.zeros(num_classes + 1)
    win_distance = np.zeros(num_classes + 1)
    for classes, d in ballots:
        local = int(np.argmin(d))
        winner = classes[local]
        votes[winner] += 1
        win_distance[winner] += d[local]
    best = votes.max()
    tied = [c for c in range(1, num_classes + 1) if votes[c] == best]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda c: (win_distance[c], c))


def scheme_predict(data: np.ndarray, scheme: MetaScheme, clf: MdnClassifier) -> np.ndarray:
    """Batch labels under any scheme kind.

    ``clf`` must match the decision space of the member networks: the
    full C-class rule for a single network, the shared two-class rule for
    OVO/OVR members.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        data = data[None]
    if scheme.kind == "single":
        member = scheme.members[0]
        out = np.atleast_2d(_member_output(member, data))
        return np.asarray(mdn_classify(out, clf))

    distances = _map_members(
        lambda member: mdn_distances(np.atleast_2d(_member_output(member, data)), clf),
        scheme.members,
    )
    member_distances = [(member.classes, d) for member, d in zip(scheme.members, distances)]
    n = data.shape[0]
    if scheme.kind == "ovo":
        predictions = np.empty(n, dtype=np.int64)
        for i in range(n):
            ballots = [(classes, d[i]) for classes, d in member_distances]
            predictions[i] = tally_ovo_votes(ballots, scheme.num_classes)
        return predictions
    scores = np.full((n, scheme.num_classes), -np.inf)
    for classes, d in member_distances:
        scores[:, classes[0] - 1] = d[:, 1] - d[:, 0]
    return scores.argmax(axis=1) + 1
