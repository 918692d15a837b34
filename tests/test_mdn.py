"""Minimum-distance decisions and the OVO/OVR compositions."""

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mibci.mdn as mdn_module
from mibci.mdn import (
    MdnClassifier,
    MetaScheme,
    SchemeMember,
    mdn_classify,
    mdn_distances,
    scheme_predict,
    tally_ovo_votes,
)
from mibci.network import ConvBlockSpec, NetworkSpec, forward, init_params, parse_structure
from mibci.walsh import WalshCodebook, build_walsh


def clf_for(num_classes: int, size: int = 16) -> MdnClassifier:
    return MdnClassifier(WalshCodebook.for_classes(num_classes, size))


class TestDistances:
    def test_exact_code_row_is_zero(self):
        clf = clf_for(2)
        d = mdn_distances(clf.codebook.target(2), clf)
        assert d[1] == 0.0
        assert d[0] == 8.0  # M/2 for binary rows

    def test_hand_oracle_case(self):
        # distances computed with the direct summation oracle ahead of time
        matrix = build_walsh(4)
        clf = MdnClassifier(WalshCodebook(matrix=matrix, class_rows={1: 1, 2: 2}))
        d = mdn_distances(np.array([1.0, 0.0, 0.0, 0.0]), clf)
        assert np.array_equal(d, np.array([1.0, 1.0]))

    def test_all_zero_output_is_half_size_from_every_row(self):
        clf = clf_for(4, 16)
        d = mdn_distances(np.zeros(16), clf)
        assert np.array_equal(d, np.full(4, 8.0))

    def test_binary_vectors_reduce_to_hamming(self):
        clf = clf_for(4, 16)
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.integers(0, 2, size=16).astype(float)
            d = mdn_distances(v, clf)
            for k in range(4):
                assert d[k] == np.count_nonzero(v != clf.codebook.target(k + 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mdn_distances(np.zeros(8), clf_for(2, 16))


class TestClassify:
    def test_exact_row_wins(self):
        clf = clf_for(4)
        assert mdn_classify(clf.codebook.target(3), clf) == 3

    def test_equidistant_breaks_to_smallest_index(self):
        clf = clf_for(4)
        assert mdn_classify(np.zeros(16), clf) == 1

    def test_matches_brute_force_scan(self):
        clf = clf_for(4)
        rng = np.random.default_rng(1)
        outputs = rng.uniform(0, 1, size=(2000, 16))
        predicted = mdn_classify(outputs, clf)
        targets = clf.codebook.targets
        for i in range(len(outputs)):
            best, best_d = None, np.inf
            for k in range(4):
                dk = float(((outputs[i] - targets[k]) ** 2).sum())
                if dk < best_d:
                    best, best_d = k + 1, dk
            assert predicted[i] == best

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_positive_scaling_of_outputs_only_rescales_geometry(self, a):
        # argmin of distances is invariant to scaling all distances
        clf = clf_for(3)
        out = np.random.default_rng(5).uniform(0, 1, 16)
        d = mdn_distances(out, clf)
        assert np.argmin(d * a) == np.argmin(d)


def constant_output_member(classes, value_row: np.ndarray) -> SchemeMember:
    """A member net whose output is the given vector for any input.

    One valid conv spanning the whole input with zero weights; the biases
    set the output planes, so OFE = relu(bias) = value_row.
    """
    m = len(value_row)
    spec = NetworkSpec(
        blocks=(ConvBlockSpec(2, 8, m, "valid", False, False, 0.0),),
        output_dim=m,
    )
    params = init_params(spec, seed=0)
    params.blocks[0].weight[:] = 0.0
    params.blocks[0].bias[:] = value_row
    return SchemeMember(classes=tuple(classes), spec=spec, params=params)


class TestOvo:
    def test_member_count_enforced(self):
        clf = clf_for(2)
        row = clf.codebook.target(1)
        members = tuple(constant_output_member(p, row) for p in [(1, 2), (1, 3), (2, 3)])
        MetaScheme(kind="ovo", num_classes=3, members=members)
        with pytest.raises(ValueError, match="6 member"):
            MetaScheme(kind="ovo", num_classes=4, members=members)

    def test_majority_vote(self):
        clf = clf_for(2)
        r1, r2 = clf.codebook.target(1), clf.codebook.target(2)
        members = (
            constant_output_member((1, 2), r1),  # votes 1
            constant_output_member((1, 3), r1),  # votes 1
            constant_output_member((2, 3), r2),  # votes 3
        )
        scheme = MetaScheme(kind="ovo", num_classes=3, members=members)
        x = np.zeros((2, 8))
        assert scheme_predict(x, scheme, clf)[0] == 1

    def test_tally_matches_brute_force(self):
        rng = np.random.default_rng(3)
        pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        for _ in range(300):
            ballots = [(p, rng.uniform(0, 4, size=2)) for p in pairs]
            got = tally_ovo_votes(ballots, 4)
            votes = {c: 0 for c in range(1, 5)}
            windist = {c: 0.0 for c in range(1, 5)}
            for (a, b), d in ballots:
                winner = a if d[0] <= d[1] else b
                if d[0] == d[1]:
                    winner = a  # argmin takes the first
                votes[winner] += 1
                windist[winner] += min(d)
            top = max(votes.values())
            tied = [c for c in range(1, 5) if votes[c] == top]
            expect = min(tied, key=lambda c: (windist[c], c))
            assert got == expect

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, 2), (1, 3), (2,)],  # a member with one class
            [(1, 2), (1, 3), (3, 3)],  # a pair of one label
            [(1, 2), (1, 3), (1, 2)],  # a pair twice, (2, 3) missing
            [(1, 2), (1, 3), (2, 4)],  # a label above C
            [(0, 1), (1, 2), (1, 3)],  # label 0
        ],
    )
    def test_members_must_be_each_pair_once(self, pairs):
        clf = clf_for(2)
        members = tuple(constant_output_member(p, clf.codebook.target(1)) for p in pairs)
        with pytest.raises(ValueError, match="each pair"):
            MetaScheme(kind="ovo", num_classes=3, members=members)

    def test_pair_order_is_free(self):
        clf = clf_for(2)
        pairs = [(2, 1), (1, 3), (3, 2)]
        members = tuple(constant_output_member(p, clf.codebook.target(1)) for p in pairs)
        MetaScheme(kind="ovo", num_classes=3, members=members)


class TestOvr:
    def test_dominant_network_wins(self):
        clf = clf_for(2)
        class_row, rest_row = clf.codebook.target(1), clf.codebook.target(2)
        members = (
            constant_output_member((1,), rest_row),   # on the rest side
            constant_output_member((2,), class_row),  # confidently class 2
            constant_output_member((3,), rest_row),
            constant_output_member((4,), rest_row),
        )
        scheme = MetaScheme(kind="ovr", num_classes=4, members=members)
        assert scheme_predict(np.zeros((2, 8)), scheme, clf)[0] == 2

    def test_member_count_is_num_classes(self):
        clf = clf_for(2)
        members = tuple(constant_output_member((c,), clf.codebook.target(1)) for c in (1, 2, 3))
        with pytest.raises(ValueError, match="4 member"):
            MetaScheme(kind="ovr", num_classes=4, members=members)
        MetaScheme(kind="ovr", num_classes=3, members=members)

    def test_score_margins_match_direct_arithmetic(self):
        clf = clf_for(2)
        rng = np.random.default_rng(8)
        outputs = [rng.uniform(0, 1, 16) for _ in range(3)]
        members = tuple(constant_output_member((c + 1,), outputs[c]) for c in range(3))
        scheme = MetaScheme(kind="ovr", num_classes=3, members=members)
        got = scheme_predict(np.zeros((2, 8)), scheme, clf)[0]
        t1, t2 = clf.codebook.target(1), clf.codebook.target(2)
        scores = [
            float(((o - t2) ** 2).sum() - ((o - t1) ** 2).sum()) for o in outputs
        ]
        assert got == int(np.argmax(scores)) + 1

    def test_tie_breaks_to_smallest_index(self):
        clf = clf_for(2)
        row = clf.codebook.target(1)
        members = tuple(constant_output_member((c,), row) for c in (1, 2))
        scheme = MetaScheme(kind="ovr", num_classes=2, members=members)
        assert scheme_predict(np.zeros((2, 8)), scheme, clf)[0] == 1

    @pytest.mark.parametrize(
        "classes",
        [
            [(0,), (1,), (2,)],  # label 0
            [(1,), (2,), (2,)],  # a label twice, 3 missing
            [(1,), (2,), (4,)],  # a label above C
            [(1, 2), (2,), (3,)],  # a member with two labels
        ],
    )
    def test_members_must_cover_each_label_once(self, classes):
        clf = clf_for(2)
        members = tuple(constant_output_member(c, clf.codebook.target(1)) for c in classes)
        with pytest.raises(ValueError, match="one label each"):
            MetaScheme(kind="ovr", num_classes=3, members=members)


class TestSingle:
    @pytest.mark.parametrize("classes", [(1, 2), (1, 2, 4), (0, 1, 2)])
    def test_member_must_hold_every_class(self, classes):
        row = clf_for(3).codebook.target(1)
        MetaScheme(kind="single", num_classes=3, members=(constant_output_member((1, 2, 3), row),))
        with pytest.raises(ValueError, match="every label in 1..3"):
            MetaScheme(kind="single", num_classes=3, members=(constant_output_member(classes, row),))


class TestSchemeSerialization:
    def test_json_round_trip_preserves_predictions(self):
        clf = clf_for(2)
        rng = np.random.default_rng(10)
        members = tuple(
            constant_output_member(p, rng.uniform(0, 1, 16)) for p in [(1, 2), (1, 3), (2, 3)]
        )
        scheme = MetaScheme(kind="ovo", num_classes=3, members=members)
        restored = MetaScheme.from_json(scheme.to_json())
        assert restored.kind == "ovo"
        assert [m.classes for m in restored.members] == [(1, 2), (1, 3), (2, 3)]
        x = rng.normal(size=(5, 2, 8))
        assert np.array_equal(scheme_predict(x, scheme, clf), scheme_predict(x, restored, clf))


class TestSchemePredict:
    def test_matches_per_sample_functions(self):
        clf = clf_for(2)
        rng = np.random.default_rng(11)
        pairs = [(1, 2), (1, 3), (2, 3)]
        members = tuple(constant_output_member(p, rng.uniform(0, 1, 16)) for p in pairs)
        ovo = MetaScheme(kind="ovo", num_classes=3, members=members)
        x = rng.normal(size=(4, 2, 8))
        batch = scheme_predict(x, ovo, clf)
        assert [scheme_predict(x[i], ovo, clf)[0] for i in range(4)] == batch.tolist()

        ovr_members = tuple(constant_output_member((c,), rng.uniform(0, 1, 16)) for c in (1, 2, 3))
        ovr = MetaScheme(kind="ovr", num_classes=3, members=ovr_members)
        batch = scheme_predict(x, ovr, clf)
        assert [scheme_predict(x[i], ovr, clf)[0] for i in range(4)] == batch.tolist()


@pytest.fixture()
def pools(monkeypatch):
    """Pretend four CPUs are usable and record the workers of every pool started."""
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(mdn_module, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(mdn_module, "ThreadPoolExecutor", RecordingPool)
    return started


def random_scheme(kind: str, num_classes: int, seed: int) -> MetaScheme:
    spec = parse_structure("2,7,8 / 8,7,8 / 8,16,16", input_channels=2, input_length=64)
    labels = range(1, num_classes + 1)
    groups = {
        "single": [tuple(labels)],
        "ovo": list(itertools.combinations(labels, 2)),
        "ovr": [(c,) for c in labels],
    }[kind]
    members = tuple(
        SchemeMember(classes=classes, spec=spec, params=init_params(spec, seed=seed + k))
        for k, classes in enumerate(groups)
    )
    return MetaScheme(kind=kind, num_classes=num_classes, members=members)


def sequential_predict(x: np.ndarray, scheme: MetaScheme, clf: MdnClassifier) -> np.ndarray:
    """The decision rules applied member by member on one thread."""
    outputs = [forward(m.spec, m.params, x, mode="eval") for m in scheme.members]
    if scheme.kind == "single":
        return mdn_classify(outputs[0], clf)
    distances = [mdn_distances(out, clf) for out in outputs]
    if scheme.kind == "ovo":
        return np.array([
            tally_ovo_votes([(m.classes, d[i]) for m, d in zip(scheme.members, distances)],
                            scheme.num_classes)
            for i in range(len(x))
        ])
    scores = np.empty((len(x), scheme.num_classes))
    for m, d in zip(scheme.members, distances):
        scores[:, m.classes[0] - 1] = d[:, 1] - d[:, 0]
    return scores.argmax(axis=1) + 1


class TestConcurrentMembers:
    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    def test_threaded_predict_matches_sequential_reference(self, kind, pools):
        scheme = random_scheme(kind, num_classes=4, seed=30)
        clf = clf_for(4 if kind == "single" else 2)
        x = np.random.default_rng(31).normal(size=(150, 2, 64))
        predicted = scheme_predict(x, scheme, clf)
        expected = sequential_predict(x, scheme, clf)
        assert np.array_equal(predicted, expected)
        assert len(np.unique(expected)) > 1
        assert pools == ([] if kind == "single" else [4])

    def test_workers_capped_by_member_count(self, pools):
        assert mdn_module._map_members(lambda m: m * m, [3, 4]) == [9, 16]
        assert pools == [2]

    def test_results_come_back_in_member_order(self, pools):
        def slow_first(m):
            time.sleep(0.02 * (5 - m))
            return m

        assert mdn_module._map_members(slow_first, list(range(5))) == list(range(5))

    def test_first_member_in_order_raises(self, pools):
        def fail_some(m):
            if m == 1:
                time.sleep(0.1)
                raise ValueError("member 1 failed")
            if m == 3:
                raise ValueError("member 3 failed")
            return m

        with pytest.raises(ValueError, match="member 1 failed"):
            mdn_module._map_members(fail_some, list(range(4)))

    def test_one_usable_cpu_runs_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(mdn_module, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(mdn_module, "ThreadPoolExecutor", no_pool)
        scheme = random_scheme("ovo", num_classes=3, seed=40)
        x = np.random.default_rng(41).normal(size=(6, 2, 64))
        assert np.array_equal(scheme_predict(x, scheme, clf_for(2)), sequential_predict(x, scheme, clf_for(2)))

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert mdn_module._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert mdn_module._usable_cpus() == (os.cpu_count() or 1)
