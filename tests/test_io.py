"""EPB1 and CSV round trips plus malformed-file diagnostics."""

import re
import struct
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibci.epochs import EpochSet
from mibci.io import EpochFormatError, load_epochs, save_epochs

from helpers import make_set


def f32_quantized_set(**kwargs) -> EpochSet:
    """A random set whose samples are exactly float32-representable."""
    dataset = make_set(**kwargs)
    return dataset.with_data(dataset.to_array().astype(np.float32).astype(np.float64))


def test_binary_round_trip_bit_exact(tmp_path):
    dataset = f32_quantized_set(n_per_class=2, channels=3, samples=8)
    path = tmp_path / "set.epb"
    save_epochs(dataset, path)
    loaded = load_epochs(path)
    assert len(loaded) == 4
    assert loaded.num_classes == dataset.num_classes
    assert loaded.sampling_rate == dataset.sampling_rate
    assert list(loaded.subject_ids) == list(dataset.subject_ids)
    assert np.array_equal(loaded.labels, dataset.labels)
    assert np.array_equal(loaded.data, dataset.data)
    # second round trip is the identity on bytes
    path2 = tmp_path / "set2.epb"
    save_epochs(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_binary_loads_the_stored_float32_samples(tmp_path):
    """The file's float32 samples are kept, not widened to float64; the set
    fingerprints as the float64 set it was saved from."""
    dataset = f32_quantized_set(n_per_class=3, channels=2, samples=16)
    save_epochs(dataset, tmp_path / "set.epb")
    loaded = load_epochs(tmp_path / "set.epb")
    assert loaded.to_array().dtype == np.float32
    assert np.array_equal(loaded.to_array(), dataset.to_array())
    assert loaded.fingerprint == dataset.fingerprint


@pytest.mark.parametrize("scale", [1e39, 1e200])
def test_binary_save_refuses_a_sample_beyond_float32_range(tmp_path, scale):
    """The loader refuses the infinity such a sample would be stored as, so the
    writer refuses it first, naming the epoch, and leaves no file."""
    dataset = make_set(n_per_class=2, channels=2, samples=4)
    data = dataset.to_array().copy()
    data[2, 1, 3] = -scale
    path = tmp_path / "set.epb"
    with pytest.raises(ValueError, match=r"^epoch 2 holds a sample of magnitude .*, beyond EPB1's float32 range$"):
        save_epochs(dataset.with_data(data), path)
    assert not path.exists()


def test_binary_save_keeps_the_largest_float32_sample(tmp_path):
    dataset = make_set(n_per_class=2, channels=2, samples=4)
    data = dataset.to_array().copy()
    data[1, 0, 0] = np.finfo(np.float32).max
    save_epochs(dataset.with_data(data), tmp_path / "set.epb")
    assert load_epochs(tmp_path / "set.epb").to_array()[1, 0, 0] == np.finfo(np.float32).max


def test_csv_round_trip_within_tolerance(tmp_path):
    dataset = make_set(n_per_class=2, channels=2, samples=5)
    path = tmp_path / "set.csv"
    save_epochs(dataset, path, format="csv")
    loaded = load_epochs(path, format="csv", sampling_rate=dataset.sampling_rate)
    a = loaded.to_array()
    b = dataset.to_array()
    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.abs(b), 1.0))
    assert np.array_equal(loaded.labels, dataset.labels)


def test_empty_set_is_unrepresentable():
    with pytest.raises(ValueError, match="empty set"):
        EpochSet(np.zeros((0, 3, 4)), [], 250.0, num_classes=2)


def test_unknown_format_rejected(tmp_path):
    dataset = make_set(n_per_class=1, channels=1, samples=2)
    with pytest.raises(ValueError, match="unknown format"):
        save_epochs(dataset, tmp_path / "x", format="parquet")
    with pytest.raises(ValueError, match="unknown format"):
        load_epochs(tmp_path / "x", format="parquet")


def hand_packed(channels, samples, num_classes, rate, records) -> bytearray:
    """EPB1 bytes packed field by field from (label, subject id, samples) records."""
    buf = bytearray()
    buf += b"EPB1"
    buf += struct.pack("<IIIId", channels, samples, num_classes, len(records), rate)
    for label, subject_id, data in records:
        sid = subject_id.encode()
        buf += struct.pack("<II", label, len(sid))
        buf += sid
        buf += np.asarray(data).astype("<f4").tobytes()
    return buf


def valid_bytes() -> bytearray:
    """A two-epoch 3x4 EPB1 file; each record is 8 + 1 + 48 bytes after the 28-byte header."""
    dataset = f32_quantized_set(n_per_class=1, channels=3, samples=4)
    return hand_packed(3, 4, 2, 250.0, list(zip(dataset.labels, dataset.subject_ids, dataset.data)))


def load_bytes(blob: bytes, format: str = "binary") -> EpochSet:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz"
        path.write_bytes(blob)
        return load_epochs(path, format=format)


def test_save_matches_hand_packed_bytes(tmp_path):
    data = np.random.default_rng(12).normal(size=(3, 2, 5)).astype(np.float32).astype(np.float64)
    labels = [2, 1, 3]
    subject_ids = ["a", "s\u00fcbject", ""]
    save_epochs(EpochSet(data, labels, 128.0, 3, subject_ids), tmp_path / "x.epb")
    expected = hand_packed(2, 5, 3, 128.0, list(zip(labels, subject_ids, data)))
    assert (tmp_path / "x.epb").read_bytes() == expected


@pytest.mark.parametrize("subject_id", ["a,b", "a\nb", "a\rb", "a\x0bb"])
def test_csv_save_rejects_unstorable_subject_ids(tmp_path, subject_id):
    dataset = make_set(n_per_class=1, channels=1, samples=3)
    dataset = EpochSet(dataset.to_array(), dataset.labels, dataset.sampling_rate, 2, ["ok", subject_id])
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="epoch 1: subject id .* comma or a line break"):
        save_epochs(dataset, path, format="csv")
    assert not path.exists()


class TestMalformedBinary:
    def test_bad_magic(self, tmp_path):
        blob = valid_bytes()
        blob[:4] = b"NOPE"
        path = tmp_path / "bad.epb"
        path.write_bytes(blob)
        with pytest.raises(EpochFormatError, match="byte 0"):
            load_epochs(path)

    @staticmethod
    def _four_epoch_bytes(num_classes: int, labels=(1, 2, 1, 2)) -> bytes:
        """Four one-channel, two-sample epochs in 92 bytes."""
        blob = b"EPB1" + struct.pack("<IIIId", 1, 2, num_classes, 4, 100.0)
        for label in labels:
            blob += struct.pack("<II", label, 0) + struct.pack("<2f", 0.5, -0.5)
        assert len(blob) == 92
        return blob

    def test_class_count_above_epoch_count_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "classes.epb"
        path.write_bytes(self._four_epoch_bytes(2**22))
        start = time.perf_counter()
        with pytest.raises(EpochFormatError) as info:
            load_epochs(path)
        assert time.perf_counter() - start < 1.0
        message = str(info.value)
        assert message.endswith("class count 4194304 exceeds the epoch count 4 at byte 12")
        assert len(message) < 100 + len(str(path))

    def test_class_count_equal_to_epoch_count_loads(self, tmp_path):
        path = tmp_path / "classes.epb"
        path.write_bytes(self._four_epoch_bytes(4, labels=(1, 2, 3, 4)))
        loaded = load_epochs(path)
        assert loaded.num_classes == 4
        assert loaded.labels.tolist() == [1, 2, 3, 4]

    def test_declared_class_without_epochs_rejected(self, tmp_path):
        path = tmp_path / "classes.epb"
        path.write_bytes(self._four_epoch_bytes(3))
        message = "classes with no epochs: [3] under the header class count at byte 12"
        with pytest.raises(EpochFormatError, match=re.escape(message)):
            load_epochs(path)

    def test_shape_mismatch_truncated_record(self, tmp_path):
        # header declares 3x4 but the last epoch record is a row short
        blob = valid_bytes()
        path = tmp_path / "short.epb"
        path.write_bytes(blob[: len(blob) - 4 * 4])
        with pytest.raises(EpochFormatError, match="header-declared"):
            load_epochs(path)

    def test_nan_sample_named_by_byte(self, tmp_path):
        blob = valid_bytes()
        nan = struct.pack("<f", float("nan"))
        offset = len(blob) - 4  # last sample of the last epoch
        blob[offset : offset + 4] = nan
        path = tmp_path / "nan.epb"
        path.write_bytes(blob)
        with pytest.raises(EpochFormatError, match=f"byte {offset}"):
            load_epochs(path)

    def test_label_out_of_range(self, tmp_path):
        blob = valid_bytes()
        # first epoch label field sits right after the 28-byte header
        blob[28:32] = struct.pack("<I", 9)
        path = tmp_path / "label.epb"
        path.write_bytes(blob)
        with pytest.raises(EpochFormatError, match="label 9"):
            load_epochs(path)

    def test_invalid_utf8_subject_id_named_by_byte(self, tmp_path):
        blob = valid_bytes()
        offset = 28 + (8 + 1 + 48) + 8  # the second epoch's one-byte subject id
        blob[offset] = 0xFF
        path = tmp_path / "utf8.epb"
        path.write_bytes(blob)
        with pytest.raises(EpochFormatError, match=f"epoch 1 subject id is not UTF-8 at byte {offset}"):
            load_epochs(path)

    def test_class_count_below_two(self, tmp_path):
        blob = valid_bytes()
        blob[12:16] = struct.pack("<I", 1)
        path = tmp_path / "classes.epb"
        path.write_bytes(blob)
        with pytest.raises(EpochFormatError, match="class count 1 below 2 .* byte 12"):
            load_epochs(path)

    def test_huge_declared_size_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.epb"
        path.write_bytes(b"EPB1" + struct.pack("<IIIId", 2**31, 2**31, 2, 2**31, 250.0))
        assert path.stat().st_size == 28
        tracemalloc.start()
        try:
            with pytest.raises(EpochFormatError, match="header-declared"):
                load_epochs(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trailing_bytes(self, tmp_path):
        blob = valid_bytes() + b"xx"
        path = tmp_path / "trail.epb"
        path.write_bytes(blob)
        with pytest.raises(EpochFormatError, match="trailing"):
            load_epochs(path)


class TestMalformedCsv:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(EpochFormatError, match="line 1"):
            load_epochs(path, format="csv")

    def test_wrong_sample_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,label,channel,s0,s1\nA,1,0,1.0\n")
        with pytest.raises(EpochFormatError, match="line 2"):
            load_epochs(path, format="csv")

    def test_nan_sample_named_by_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,label,channel,s0,s1\nA,1,0,1.0,2.0\nA,1,1,nan,2.0\n")
        with pytest.raises(EpochFormatError, match="line 3"):
            load_epochs(path, format="csv")

    @pytest.mark.parametrize("label", ["0", "4294967296"])
    def test_label_out_of_range(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"subject,label,channel,s0\nA,1,0,1.0\nB,{label},0,1.0\n")
        with pytest.raises(EpochFormatError, match=f"label {label} out of range at line 3"):
            load_epochs(path, format="csv")

    def test_invalid_utf8_named_by_byte(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"subject,label,channel,s0\nA,1,0,1.0\n\xffB,2,0,1.0\n")
        with pytest.raises(EpochFormatError, match="invalid UTF-8 at byte 35"):
            load_epochs(path, format="csv")

    def test_channel_sequence_break(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,label,channel,s0\nA,1,0,1.0\nA,1,2,1.0\n")
        with pytest.raises(EpochFormatError, match="sequence"):
            load_epochs(path, format="csv")

    @pytest.mark.parametrize("labels, missing", [("1,3", "[2]"), ("2,2", "[1]"), ("1,1", "[2]")])
    def test_class_without_epochs_rejected(self, tmp_path, labels, missing):
        first, second = labels.split(",")
        path = tmp_path / "gap.csv"
        path.write_text(f"subject,label,channel,s0\nA,{first},0,1.0\nB,{second},0,1.0\n")
        with pytest.raises(EpochFormatError, match=re.escape(f"classes with no epochs: {missing}")):
            load_epochs(path, format="csv")

    def test_shape_mismatch_across_epochs(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject,label,channel,s0\n"
            "A,1,0,1.0\nA,1,1,1.0\nA,1,2,1.0\n"
            "B,2,0,1.0\nB,2,1,1.0\n"
        )
        with pytest.raises(EpochFormatError, match="shape mismatch"):
            load_epochs(path, format="csv")


class TestLoaderFuzz:
    def test_every_truncation_fails_cleanly(self):
        blob = bytes(valid_bytes())
        for cut in range(len(blob)):
            with pytest.raises(EpochFormatError):
                load_bytes(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(min_value=0), flip=st.integers(min_value=1, max_value=255))
    def test_single_byte_flip_loads_or_fails_cleanly(self, position, flip):
        blob = valid_bytes()
        blob[position % len(blob)] ^= flip
        try:
            loaded = load_bytes(bytes(blob))
        except EpochFormatError:
            return
        assert len(loaded) == 2

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(min_value=0), flip=st.integers(min_value=1, max_value=255))
    def test_csv_single_byte_flip_loads_or_fails_cleanly(self, position, flip):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            save_epochs(make_set(n_per_class=1, channels=2, samples=3), path, format="csv")
            blob = bytearray(path.read_bytes())
        blob[position % len(blob)] ^= flip
        try:
            load_bytes(bytes(blob), format="csv")
        except EpochFormatError:
            pass
