"""Epoch file I/O: the EPB1 binary container and a plain CSV layout.

EPB1 layout (all integers little-endian):

    magic        4 bytes  'E' 'P' 'B' '1'
    header       u32 channels, u32 samples, u32 num_classes,
                 u32 epoch_count, f64 sampling_rate
    per epoch    u32 label (1-based), u32 subject-id byte length,
                 UTF-8 subject id, channels*samples float32 samples
                 in channel-major order

CSV layout: header line ``subject,label,channel,s0,...,s{N-1}`` and one row
per channel; an epoch's rows are consecutive with channel counting up from 0.
The CSV carries no sampling rate or class count, so loading it takes the rate
as an argument and infers the class count from the largest label.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .epochs import EpochSet

__all__ = ["EpochFormatError", "load_epochs", "save_epochs"]

_MAGIC = b"EPB1"
_HEADER = struct.Struct("<IIIId")


class EpochFormatError(ValueError):
    """A malformed epoch file; the message names the byte or line position."""


def save_epochs(dataset: EpochSet, path: str | Path, format: str = "binary") -> None:
    """Write an epoch set to disk.

    Binary output round-trips bit-exactly through :func:`load_epochs` for
    float32-representable samples (the container stores float32); CSV output
    round-trips within text-formatting precision.
    """
    dataset.require_all_classes()
    path = Path(path)
    if format == "binary":
        _save_binary(dataset, path)
    elif format == "csv":
        _save_csv(dataset, path)
    else:
        raise ValueError(f"unknown format {format!r} (expected 'binary' or 'csv')")


def load_epochs(path: str | Path, format: str = "binary", sampling_rate: float = 250.0) -> EpochSet:
    """Read an epoch set written by :func:`save_epochs`.

    Parameters
    ----------
    path : str or Path
    format : {'binary', 'csv'}
    sampling_rate : float
        Only used for CSV input, which does not store a rate.
    """
    path = Path(path)
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path, sampling_rate)
    raise ValueError(f"unknown format {format!r} (expected 'binary' or 'csv')")


def _save_binary(dataset: EpochSet, path: Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            _HEADER.pack(
                dataset.n_channels,
                dataset.n_samples,
                dataset.num_classes,
                len(dataset),
                dataset.sampling_rate,
            )
        )
        for sid, label, epoch in zip(dataset.subject_ids, dataset.labels, dataset.data):
            sid = sid.encode("utf-8")
            fh.write(struct.pack("<II", label, len(sid)))
            fh.write(sid)
            fh.write(epoch.astype("<f4").tobytes())


def _load_binary(path: Path) -> EpochSet:
    blob = path.read_bytes()
    if blob[:4] != _MAGIC:
        raise EpochFormatError(f"{path}: bad magic at byte 0 (not an EPB1 file)")
    off = 4
    if len(blob) < off + _HEADER.size:
        raise EpochFormatError(f"{path}: truncated header at byte {len(blob)}")
    channels, samples, num_classes, count, rate = _HEADER.unpack_from(blob, off)
    off += _HEADER.size
    if channels < 1 or samples < 1:
        raise EpochFormatError(f"{path}: non-positive epoch shape in header at byte 4")
    if num_classes < 2:
        raise EpochFormatError(f"{path}: class count {num_classes} below 2 in header at byte 12")
    if count < 1:
        raise EpochFormatError(f"{path}: empty set (epoch_count=0) at byte 16")
    if not rate > 0 or not np.isfinite(rate):
        raise EpochFormatError(f"{path}: invalid sampling rate at byte 20")

    n_floats = channels * samples
    if len(blob) - off < count * (8 + 4 * n_floats):  # each record's fixed part
        raise EpochFormatError(
            f"{path}: {len(blob)} bytes cannot hold the header-declared {count} epochs "
            f"of {channels}x{samples} samples at byte {len(blob)}"
        )
    data = np.empty((count, channels, samples))
    labels = np.empty(count, dtype=np.int64)
    subject_ids = []
    for k in range(count):
        if len(blob) < off + 8:
            raise EpochFormatError(f"{path}: truncated epoch record {k} at byte {off}")
        label, sid_len = struct.unpack_from("<II", blob, off)
        off += 8
        if not 1 <= label <= num_classes:
            raise EpochFormatError(
                f"{path}: epoch {k} label {label} outside 1..{num_classes} at byte {off - 8}"
            )
        if len(blob) < off + sid_len + 4 * n_floats:
            raise EpochFormatError(
                f"{path}: epoch {k} shorter than the header-declared "
                f"{channels}x{samples} shape at byte {off}"
            )
        try:
            subject_ids.append(blob[off : off + sid_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise EpochFormatError(f"{path}: epoch {k} subject id is not UTF-8 at byte {off + exc.start}") from None
        off += sid_len
        row = np.frombuffer(blob, dtype="<f4", count=n_floats, offset=off)
        if not np.isfinite(row).all():
            bad = off + 4 * int(np.nonzero(~np.isfinite(row))[0][0])
            raise EpochFormatError(f"{path}: non-finite sample value at byte {bad}")
        off += 4 * n_floats
        data[k] = row.reshape(channels, samples)
        labels[k] = label
    if off != len(blob):
        raise EpochFormatError(f"{path}: {len(blob) - off} trailing bytes at byte {off}")
    data.setflags(write=False)
    return EpochSet(data, labels, rate, num_classes, subject_ids)


def _save_csv(dataset: EpochSet, path: Path) -> None:
    for k, sid in enumerate(dataset.subject_ids):
        if "," in sid or sid.splitlines() not in ([], [sid]):
            raise ValueError(
                f"epoch {k}: subject id {sid!r} holds a comma or a line break, "
                "which the CSV layout cannot store"
            )
    n = dataset.n_samples
    header = "subject,label,channel," + ",".join(f"s{i}" for i in range(n))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for sid, label, epoch in zip(dataset.subject_ids, dataset.labels, dataset.data):
            for ch, channel in enumerate(epoch):
                row = ",".join(repr(float(v)) for v in channel)
                fh.write(f"{sid},{label},{ch},{row}\n")


def _load_csv(path: Path, sampling_rate: float) -> EpochSet:
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise EpochFormatError(f"{path}: invalid UTF-8 at byte {exc.start}") from None
    if not lines:
        raise EpochFormatError(f"{path}: empty file at line 1")
    header = lines[0].split(",")
    if header[:3] != ["subject", "label", "channel"]:
        raise EpochFormatError(f"{path}: bad header at line 1 (expected subject,label,channel,s0,...)")
    n_samples = len(header) - 3
    if n_samples < 1 or header[3] != "s0":
        raise EpochFormatError(f"{path}: header declares no sample columns at line 1")

    rows: list[np.ndarray] = []
    meta: list[tuple[str, int, int]] = []  # subject, label and first row of each epoch
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + n_samples:
            raise EpochFormatError(
                f"{path}: line {line_no} has {len(parts) - 3} samples, header declares {n_samples}"
            )
        sid, label_s, ch_s = parts[0], parts[1], parts[2]
        try:
            label = int(label_s)
            ch = int(ch_s)
            values = np.array([float(v) for v in parts[3:]], dtype=np.float64)
        except ValueError as exc:
            raise EpochFormatError(f"{path}: unparseable number at line {line_no}: {exc}") from None
        if not 1 <= label < 2**32:  # EPB1 stores labels as u32
            raise EpochFormatError(f"{path}: label {label} out of range at line {line_no}")
        if not np.isfinite(values).all():
            raise EpochFormatError(f"{path}: non-finite sample value at line {line_no}")
        if ch == 0:
            meta.append((sid, label, len(rows)))
        elif not meta or ch != len(rows) - meta[-1][2]:
            raise EpochFormatError(
                f"{path}: channel index {ch} breaks the 0..E-1 sequence at line {line_no}"
            )
        elif (sid, label) != meta[-1][:2]:
            raise EpochFormatError(f"{path}: subject/label changes mid-epoch at line {line_no}")
        rows.append(values)
    if not meta:
        raise EpochFormatError(f"{path}: no epoch rows after the header at line 2")

    subject_ids, labels, starts = zip(*meta)
    channels = np.diff(starts + (len(rows),))
    mismatched = np.flatnonzero(channels != channels[0])
    if mismatched.size:
        k = mismatched[0]
        raise EpochFormatError(
            f"{path}: epoch {k} has {channels[k]} channels, expected {channels[0]} "
            "(shape mismatch)"
        )
    data = np.array(rows).reshape(len(meta), channels[0], n_samples)
    data.setflags(write=False)
    return EpochSet(data, labels, sampling_rate, max(2, max(labels)), subject_ids)
