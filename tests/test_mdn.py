"""Minimum-distance decisions and the OVO/OVR compositions."""

import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mibci.base as base_module
from mibci.base import PIPELINE_WORKERS
from mibci.io import load_epochs
from mibci.mdn import (
    MetaScheme,
    SchemeMember,
    decomposition,
    mdn_classify,
    mdn_distances,
    scheme_predict,
    tally_ovo_votes,
)
from mibci.network import ConvBlockSpec, NetworkSpec, forward, init_params, parse_structure
from mibci.walsh import WalshCodebook


class TestDistances:
    def test_exact_code_row_is_zero(self):
        codebook = WalshCodebook(2)
        (d,) = mdn_distances(codebook.targets[1:2], codebook)
        assert d[1] == 0.0
        assert d[0] == 8.0  # M/2 for binary rows

    def test_hand_oracle_case(self):
        # distances computed with the direct summation oracle ahead of time
        d = mdn_distances(np.array([[1.0, 0.0, 0.0, 0.0]]), WalshCodebook(2, 4))
        assert np.array_equal(d, np.array([[1.0, 1.0]]))

    def test_all_zero_output_is_half_size_from_every_row(self):
        d = mdn_distances(np.zeros((3, 16)), WalshCodebook(4, 16))
        assert np.array_equal(d, np.full((3, 4), 8.0))

    def test_binary_vectors_reduce_to_hamming(self):
        codebook = WalshCodebook(4, 16)
        rng = np.random.default_rng(0)
        vs = rng.integers(0, 2, size=(50, 16)).astype(float)
        d = mdn_distances(vs, codebook)
        for i, v in enumerate(vs):
            for k in range(4):
                assert d[i, k] == np.count_nonzero(v != codebook.targets[k])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mdn_distances(np.zeros((1, 8)), WalshCodebook(2, 16))


class TestBatchesOnly:
    """Decisions take batches; a bare single vector or epoch is refused, naming the shape."""

    @pytest.mark.parametrize("fn", [mdn_distances, mdn_classify])
    def test_single_output_vector_rejected(self, fn):
        with pytest.raises(ValueError, match=r"expected \(n, 16\) outputs, got shape \(16,\)"):
            fn(np.zeros(16), WalshCodebook(2))

    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    def test_single_epoch_rejected_by_scheme_predict(self, kind):
        scheme = random_scheme(kind, num_classes=3, seed=50)
        codebook = WalshCodebook(3 if kind == "single" else 2)
        with pytest.raises(ValueError, match=r"\(batch, planes, length\) batch, got shape \(2, 64\)"):
            scheme_predict(np.zeros((2, 64)), scheme, codebook)


class TestClassify:
    def test_exact_row_wins(self):
        codebook = WalshCodebook(4)
        assert mdn_classify(codebook.targets[2:3], codebook).tolist() == [3]

    def test_equidistant_breaks_to_smallest_index(self):
        assert mdn_classify(np.zeros((1, 16)), WalshCodebook(4)).tolist() == [1]

    def test_matches_brute_force_scan(self):
        codebook = WalshCodebook(4)
        rng = np.random.default_rng(1)
        outputs = rng.uniform(0, 1, size=(2000, 16))
        predicted = mdn_classify(outputs, codebook)
        targets = codebook.targets
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
        out = np.random.default_rng(5).uniform(0, 1, (1, 16))
        (d,) = mdn_distances(out, WalshCodebook(3))
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
        two_class = WalshCodebook(2)
        row = two_class.targets[0]
        members = tuple(constant_output_member(p, row) for p in [(1, 2), (1, 3), (2, 3)])
        MetaScheme(kind="ovo", num_classes=3, members=members)
        with pytest.raises(ValueError, match="6 member"):
            MetaScheme(kind="ovo", num_classes=4, members=members)

    def test_majority_vote(self):
        two_class = WalshCodebook(2)
        r1, r2 = two_class.targets[0], two_class.targets[1]
        members = (
            constant_output_member((1, 2), r1),  # votes 1
            constant_output_member((1, 3), r1),  # votes 1
            constant_output_member((2, 3), r2),  # votes 3
        )
        scheme = MetaScheme(kind="ovo", num_classes=3, members=members)
        x = np.zeros((1, 2, 8))
        assert scheme_predict(x, scheme, two_class)[0] == 1

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
        two_class = WalshCodebook(2)
        members = tuple(constant_output_member(p, two_class.targets[0]) for p in pairs)
        with pytest.raises(ValueError, match="each pair"):
            MetaScheme(kind="ovo", num_classes=3, members=members)

    def test_pair_order_is_free(self):
        two_class = WalshCodebook(2)
        pairs = [(2, 1), (1, 3), (3, 2)]
        members = tuple(constant_output_member(p, two_class.targets[0]) for p in pairs)
        MetaScheme(kind="ovo", num_classes=3, members=members)


class TestOvr:
    def test_dominant_network_wins(self):
        two_class = WalshCodebook(2)
        class_row, rest_row = two_class.targets[0], two_class.targets[1]
        members = (
            constant_output_member((1,), rest_row),   # on the rest side
            constant_output_member((2,), class_row),  # confidently class 2
            constant_output_member((3,), rest_row),
            constant_output_member((4,), rest_row),
        )
        scheme = MetaScheme(kind="ovr", num_classes=4, members=members)
        assert scheme_predict(np.zeros((1, 2, 8)), scheme, two_class)[0] == 2

    def test_member_count_is_num_classes(self):
        two_class = WalshCodebook(2)
        members = tuple(constant_output_member((c,), two_class.targets[0]) for c in (1, 2, 3))
        with pytest.raises(ValueError, match="4 member"):
            MetaScheme(kind="ovr", num_classes=4, members=members)
        MetaScheme(kind="ovr", num_classes=3, members=members)

    def test_score_margins_match_direct_arithmetic(self):
        two_class = WalshCodebook(2)
        rng = np.random.default_rng(8)
        outputs = [rng.uniform(0, 1, 16) for _ in range(3)]
        members = tuple(constant_output_member((c + 1,), outputs[c]) for c in range(3))
        scheme = MetaScheme(kind="ovr", num_classes=3, members=members)
        got = scheme_predict(np.zeros((1, 2, 8)), scheme, two_class)[0]
        t1, t2 = two_class.targets[0], two_class.targets[1]
        scores = [
            float(((o - t2) ** 2).sum() - ((o - t1) ** 2).sum()) for o in outputs
        ]
        assert got == int(np.argmax(scores)) + 1

    def test_tie_breaks_to_smallest_index(self):
        two_class = WalshCodebook(2)
        row = two_class.targets[0]
        members = tuple(constant_output_member((c,), row) for c in (1, 2))
        scheme = MetaScheme(kind="ovr", num_classes=2, members=members)
        assert scheme_predict(np.zeros((1, 2, 8)), scheme, two_class)[0] == 1

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
        two_class = WalshCodebook(2)
        members = tuple(constant_output_member(c, two_class.targets[0]) for c in classes)
        with pytest.raises(ValueError, match="one label each"):
            MetaScheme(kind="ovr", num_classes=3, members=members)


class TestSingle:
    @pytest.mark.parametrize("classes", [(1, 2), (1, 2, 4), (0, 1, 2)])
    def test_member_must_hold_every_class(self, classes):
        row = WalshCodebook(3).targets[0]
        MetaScheme(kind="single", num_classes=3, members=(constant_output_member((1, 2, 3), row),))
        with pytest.raises(ValueError, match="every label in 1..3"):
            MetaScheme(kind="single", num_classes=3, members=(constant_output_member(classes, row),))


class TestDecomposition:
    def test_members_and_code_rows_per_kind(self):
        assert decomposition("single", 3) == ([(1, 2, 3)], 3)
        assert decomposition("ovo", 4) == ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 2)
        assert decomposition("ovr", 3) == ([(1,), (2,), (3,)], 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scheme kind 'ecoc'"):
            decomposition("ecoc", 3)
        row = WalshCodebook(2).targets[0]
        with pytest.raises(ValueError, match="unknown scheme kind 'ecoc'"):
            MetaScheme(kind="ecoc", num_classes=2, members=(constant_output_member((1, 2), row),))

    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    def test_scheme_codebook_rows_follow_the_decomposition(self, kind):
        scheme = random_scheme(kind, num_classes=4, seed=3)
        assert scheme.codebook == WalshCodebook(decomposition(kind, 4)[1], 16)


class TestSchemeSerialization:
    def test_json_round_trip_preserves_predictions(self):
        two_class = WalshCodebook(2)
        rng = np.random.default_rng(10)
        members = tuple(
            constant_output_member(p, rng.uniform(0, 1, 16)) for p in [(1, 2), (1, 3), (2, 3)]
        )
        scheme = MetaScheme(kind="ovo", num_classes=3, members=members)
        restored = MetaScheme.from_json(scheme.to_json())
        assert restored.kind == "ovo"
        assert [m.classes for m in restored.members] == [(1, 2), (1, 3), (2, 3)]
        x = rng.normal(size=(5, 2, 8))
        assert np.array_equal(scheme_predict(x, scheme, two_class), scheme_predict(x, restored, two_class))


    @staticmethod
    def _ovo_doc() -> dict:
        members = tuple(constant_output_member(p, np.full(16, 0.5)) for p in [(1, 2), (1, 3), (2, 3)])
        return json.loads(MetaScheme(kind="ovo", num_classes=3, members=members).to_json())

    @pytest.mark.parametrize("name", ["members", "kind", "num_classes"])
    def test_missing_field_named(self, name):
        doc = self._ovo_doc()
        del doc[name]
        with pytest.raises(ValueError, match=f"scheme document: missing field '{name}'"):
            MetaScheme.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["network", "classes"])
    def test_missing_member_field_named(self, name):
        doc = self._ovo_doc()
        del doc["members"][2][name]
        with pytest.raises(ValueError, match=f"scheme document member 3: missing field '{name}'"):
            MetaScheme.from_json(json.dumps(doc))

    def test_member_network_error_names_the_member(self):
        doc = self._ovo_doc()
        del doc["members"][1]["network"]["structure"]
        with pytest.raises(
            ValueError, match="scheme document member 2: network document: missing field 'structure'"
        ):
            MetaScheme.from_json(json.dumps(doc))


def reference_scheme_json(scheme: MetaScheme) -> str:
    """The bundle encoded by decoding each member's network text back in."""
    return json.dumps({
        "kind": scheme.kind,
        "num_classes": scheme.num_classes,
        "members": [
            {"classes": list(m.classes), "network": json.loads(m.params.to_json(m.spec))}
            for m in scheme.members
        ],
    })


class TestSchemeDocuments:
    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_to_json_matches_the_member_round_trip(self, kind, dtype):
        scheme = random_scheme(kind, 3, seed=20)
        members = []
        for k, m in enumerate(scheme.members):
            params = m.params.astype(dtype)
            # values whose text form is easy to get wrong
            params.blocks[0].weight.flat[:5] = [-0.0, 5e-324 if dtype == np.float64 else 1e-45,
                                                1e300 if dtype == np.float64 else 3e38, np.nan, k]
            params.blocks[0].gamma[0] = np.inf
            members.append(SchemeMember(classes=m.classes, spec=m.spec, params=params))
        scheme = MetaScheme(kind=kind, num_classes=3, members=tuple(members))
        assert scheme.to_json() == reference_scheme_json(scheme)

    @pytest.mark.parametrize("kind", ["single", "ovo", "ovr"])
    def test_from_doc_equals_from_json(self, kind):
        doc = random_scheme(kind, 4, seed=21).to_doc()
        a = MetaScheme.from_doc(doc)
        b = MetaScheme.from_json(json.dumps(doc))
        assert (a.kind, a.num_classes) == (b.kind, b.num_classes) == (kind, 4)
        for ma, mb in zip(a.members, b.members, strict=True):
            assert ma.classes == mb.classes
            assert ma.spec == mb.spec
            assert ma.params.to_json(ma.spec) == mb.params.to_json(mb.spec)

    def test_non_list_members_named(self):
        doc = random_scheme("ovr", 2, seed=22).to_doc()
        doc["members"] = 3
        with pytest.raises(ValueError, match="scheme document: field 'members' must be a list, got int"):
            MetaScheme.from_doc(doc)


PER_BLOCK_LAYOUT = Path(__file__).parent / "data" / "per_block_layout"


class TestPerBlockLayoutDocuments:
    """Model documents written when every block held its own padding,
    pooling, batchnorm and dropout keys (see data/per_block_layout)."""

    @pytest.mark.parametrize(
        "name, kind, dtype", [("ovo_float32", "ovo", np.float32), ("single_float64", "single", np.float64)]
    )
    def test_predicts_as_when_written(self, name, kind, dtype):
        text = (PER_BLOCK_LAYOUT / f"{name}.json").read_text()
        doc = json.loads(text)
        assert all("padding" in e for m in doc["members"] for e in m["network"]["blocks"])
        # format 1: no format field, every array a list of decimals
        assert all("format" not in m["network"] for m in doc["members"])
        assert all(isinstance(e["weight"], list) for m in doc["members"] for e in m["network"]["blocks"])
        scheme = MetaScheme.from_json(text)
        assert scheme.kind == kind
        for member in scheme.members:
            assert member.params.dtype == dtype
            assert [(b.batch_norm, b.dropout_p) for b in member.spec.blocks] == [
                (True, 0.5), (True, 0.5), (False, 0.0)]
        x = load_epochs(PER_BLOCK_LAYOUT / "epochs.epb").to_array()
        expected = json.loads((PER_BLOCK_LAYOUT / "predictions.json").read_text())[name]
        assert scheme_predict(x, scheme, scheme.codebook).tolist() == expected

    @pytest.mark.parametrize("name", ["ovo_float32", "single_float64"])
    def test_rewrites_in_the_structure_layout(self, name):
        old = MetaScheme.from_json((PER_BLOCK_LAYOUT / f"{name}.json").read_text())
        doc = old.to_doc()
        for member in doc["members"]:
            assert member["network"]["format"] == 2
            for entry in member["network"]["blocks"]:
                assert not {"padding", "pool_after", "batch_norm", "dropout_p"} & set(entry)
                assert all(isinstance(value, str) for value in entry.values())
        new = MetaScheme.from_json(json.dumps(doc))
        for a, b in zip(old.members, new.members, strict=True):
            assert a.spec == b.spec
            for pa, pb in zip(a.params.blocks, b.params.blocks, strict=True):
                for name in ("weight", "bias", "gamma", "beta", "running_mean", "running_var"):
                    va, vb = getattr(pa, name), getattr(pb, name)
                    assert (va is None and vb is None) or va.tobytes() == vb.tobytes()

    def test_first_block_without_batch_norm_is_named(self):
        doc = json.loads((PER_BLOCK_LAYOUT / "ovo_float32.json").read_text())
        del doc["members"][1]["network"]["blocks"][0]["batch_norm"]
        with pytest.raises(
            ValueError, match="scheme document member 2: network document: missing field 'batch_norm'"
        ):
            MetaScheme.from_doc(doc)


class TestSchemePredict:
    def test_matches_per_sample_functions(self):
        two_class = WalshCodebook(2)
        rng = np.random.default_rng(11)
        pairs = [(1, 2), (1, 3), (2, 3)]
        members = tuple(constant_output_member(p, rng.uniform(0, 1, 16)) for p in pairs)
        ovo = MetaScheme(kind="ovo", num_classes=3, members=members)
        x = rng.normal(size=(4, 2, 8))
        batch = scheme_predict(x, ovo, two_class)
        assert [scheme_predict(x[i : i + 1], ovo, two_class)[0] for i in range(4)] == batch.tolist()

        ovr_members = tuple(constant_output_member((c,), rng.uniform(0, 1, 16)) for c in (1, 2, 3))
        ovr = MetaScheme(kind="ovr", num_classes=3, members=ovr_members)
        batch = scheme_predict(x, ovr, two_class)
        assert [scheme_predict(x[i : i + 1], ovr, two_class)[0] for i in range(4)] == batch.tolist()


@pytest.fixture()
def pools(monkeypatch):
    """Pretend four CPUs are usable and record the workers of every pool started."""
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(base_module, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(base_module, "ThreadPoolExecutor", RecordingPool)
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


def sequential_predict(x: np.ndarray, scheme: MetaScheme, codebook: WalshCodebook) -> np.ndarray:
    """The decision rules applied member by member on one thread."""
    outputs = [forward(m.spec, m.params, x) for m in scheme.members]
    if scheme.kind == "single":
        return mdn_classify(outputs[0], codebook)
    distances = [mdn_distances(out, codebook) for out in outputs]
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
        codebook = WalshCodebook(4 if kind == "single" else 2)
        x = np.random.default_rng(31).normal(size=(150, 2, 64))
        predicted = scheme_predict(x, scheme, codebook)
        expected = sequential_predict(x, scheme, codebook)
        assert np.array_equal(predicted, expected)
        assert len(np.unique(expected)) > 1
        assert pools == ([] if kind == "single" else [4])

    def test_many_members_share_the_capped_pool(self, pools, monkeypatch):
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 64)
        scheme = random_scheme("ovo", num_classes=5, seed=50)
        codebook = WalshCodebook(2)
        x = np.random.default_rng(51).normal(size=(40, 2, 64))
        assert len(scheme.members) == 10 > PIPELINE_WORKERS
        assert np.array_equal(scheme_predict(x, scheme, codebook), sequential_predict(x, scheme, codebook))
        assert pools == [PIPELINE_WORKERS]

    def test_workers_capped_by_member_count(self, pools):
        """Two members on four usable CPUs start two threads, not four: a
        thread starts on a submit only when none is idle."""
        before = threading.active_count()
        both_running = threading.Barrier(2, timeout=10)
        started = []

        def square(m):
            both_running.wait()
            started.append(threading.active_count() - before)
            return m * m

        assert list(base_module._pipeline(square, [3, 4])) == [9, 16]
        assert max(started) <= 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_a_pool_starts_only_for_two_or_more_items(self, n, pools, monkeypatch):
        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 3)
        assert list(base_module._pipeline(lambda m: m + 1, range(n))) == list(range(1, n + 1))
        assert pools == ([3] if n >= 2 else [])

    def test_results_come_back_in_member_order(self, pools):
        def slow_first(m):
            time.sleep(0.02 * (5 - m))
            return m

        assert list(base_module._pipeline(slow_first, list(range(5)))) == list(range(5))

    def test_first_member_in_order_raises(self, pools):
        def fail_some(m):
            if m == 1:
                time.sleep(0.1)
                raise ValueError("member 1 failed")
            if m == 3:
                raise ValueError("member 3 failed")
            return m

        with pytest.raises(ValueError, match="member 1 failed"):
            list(base_module._pipeline(fail_some, list(range(4))))

    def test_one_usable_cpu_runs_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(base_module, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(base_module, "ThreadPoolExecutor", no_pool)
        scheme = random_scheme("ovo", num_classes=3, seed=40)
        x = np.random.default_rng(41).normal(size=(6, 2, 64))
        two_class = WalshCodebook(2)
        assert np.array_equal(scheme_predict(x, scheme, two_class), sequential_predict(x, scheme, two_class))

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert base_module._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert base_module._usable_cpus() == (os.cpu_count() or 1)
