"""Minimum-distance decisions over fixed code rows, plus OVO/OVR composition.

A :class:`~mibci.walsh.WalshCodebook` is the whole decision rule: each
output vector of a batch gets the label whose code row is nearest in squared
Euclidean distance, and the rows are fixed, never trained. One-versus-one schemes run C(C-1)/2 member
networks, each a binary problem whose two classes map to code rows 1 and 2;
one-versus-rest runs C members scored by the margin between the rest row
and the class row.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .base import _field, _items, _pipeline
from .network import NetworkParams, NetworkSpec, forward
from .walsh import WalshCodebook

__all__ = [
    "SchemeMember",
    "MetaScheme",
    "decomposition",
    "mdn_distances",
    "mdn_classify",
    "tally_ovo_votes",
    "scheme_predict",
]


def mdn_distances(outputs: np.ndarray, codebook: WalshCodebook) -> np.ndarray:
    """Squared Euclidean distance from each output vector to every class row.

    Takes an ``(n, M)`` batch and returns ``(n, C)`` distances, where column
    k-1 holds the distance to class k.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = codebook.targets
    if outputs.ndim != 2:
        raise ValueError(f"expected (n, {targets.shape[1]}) outputs, got shape {outputs.shape}")
    if outputs.shape[1] != targets.shape[1]:
        raise ValueError(
            f"output length {outputs.shape[1]} does not match code size {targets.shape[1]}"
        )
    diff = outputs[:, None, :] - targets[None, :, :]
    return (diff * diff).sum(axis=2)


def mdn_classify(outputs: np.ndarray, codebook: WalshCodebook) -> np.ndarray:
    """``(n,)`` labels of the nearest class rows; ties go to the smallest class."""
    return mdn_distances(outputs, codebook).argmin(axis=1) + 1


_MEMBER_RULES = {"single": "every label", "ovo": "each pair of distinct labels", "ovr": "one label each"}


def decomposition(kind: str, num_classes: int) -> tuple[list[tuple[int, ...]], int]:
    """The member class subsets of a scheme kind over labels 1..C, and the
    number of code rows every member regresses onto.

    A single network is one member holding every label, on C rows; OVO
    members hold each pair of distinct labels and OVR members one label
    each, all on two rows. Any other kind raises ``ValueError``.
    """
    labels = tuple(range(1, num_classes + 1))
    if kind == "single":
        return [labels], num_classes
    if kind == "ovo":
        return list(itertools.combinations(labels, 2)), 2
    if kind == "ovr":
        return [(label,) for label in labels], 2
    raise ValueError(f"unknown scheme kind {kind!r}")


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

    Over labels 1..C the members hold the class subsets that
    :func:`decomposition` lists for ``kind``, each once; any other
    assignment raises ``ValueError``.
    """

    kind: str
    num_classes: int
    members: tuple[SchemeMember, ...]

    def __post_init__(self) -> None:
        c = self.num_classes
        want, _ = decomposition(self.kind, c)
        got = sorted(tuple(sorted(m.classes)) for m in self.members)
        if got != want:
            raise ValueError(
                f"{self.kind} over {c} classes needs {len(want)} member networks holding "
                f"{_MEMBER_RULES[self.kind]} in 1..{c}, got {[tuple(m.classes) for m in self.members]}"
            )

    @property
    def codebook(self) -> WalshCodebook:
        """The code rows the members regress onto (see :func:`decomposition`)."""
        _, rows = decomposition(self.kind, self.num_classes)
        return WalshCodebook(rows, self.members[0].spec.output_dim)

    def to_doc(self) -> dict:
        """Bundle every member's network document with its class subset."""
        return {
            "kind": self.kind,
            "num_classes": self.num_classes,
            "members": [
                {"classes": list(m.classes), "network": m.params.to_doc(m.spec)}
                for m in self.members
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "MetaScheme":
        """Inverse of :meth:`to_doc`; a missing field or one of the wrong
        kind raises ``DocumentError`` naming it."""
        where = "scheme document"
        members = []
        for i, entry in enumerate(_field(doc, "members", list, where)):
            at = f"{where} member {i + 1}"
            network = _field(entry, "network", dict, at)
            try:
                spec, params = NetworkParams.from_doc(network)
            except ValueError as exc:  # a DocumentError stays one
                exc.args = (f"{at}: {exc}",)
                raise
            classes = tuple(_items(_field(entry, "classes", list, at), int, f"{at}: classes"))
            members.append(SchemeMember(classes=classes, spec=spec, params=params))
        return cls(
            kind=_field(doc, "kind", str, where),
            num_classes=_field(doc, "num_classes", int, where),
            members=tuple(members),
        )

    @classmethod
    def from_json(cls, text: str) -> "MetaScheme":
        """Inverse of :meth:`to_json`; see :meth:`from_doc`."""
        return cls.from_doc(json.loads(text))


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


def scheme_predict(data: np.ndarray, scheme: MetaScheme, codebook: WalshCodebook) -> np.ndarray:
    """Labels of an ``(n, channels, samples)`` batch under any scheme kind.

    ``codebook`` must match the decision space of the member networks: the
    C-class rows for a single network, the shared two-class rows for OVO/OVR
    members.
    """
    distances = list(_pipeline(
        lambda member: mdn_distances(forward(member.spec, member.params, data), codebook), scheme.members
    ))
    if scheme.kind == "single":
        return distances[0].argmin(axis=1) + 1
    member_distances = [(member.classes, d) for member, d in zip(scheme.members, distances)]
    n = len(data)
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
