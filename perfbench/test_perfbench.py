"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._import_program()

import mibci  # noqa: E402
import mibci.experiment  # noqa: E402
import mibci.mdn  # noqa: E402
import mibci.network  # noqa: E402
import mibci.training  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "nts_a_fixture": dict(epochs_per_class=20, passes=2, accuracy_floor=0.0),
    "ts_na_2a_shape": dict(epochs_per_class=12, channels=8, samples=128, passes=1,
                           structure="16,5,12 / 12,5,12 / 12,32,16", accuracy_floor=0.0),
    "eval_ovo_paper": dict(test_per_class=10, train_per_class=8, samples=64, passes=1,
                           structure="2,7,8 / 8,7,8 / 8,16,16", accuracy_floor=0.0),
}
COUNT_METRICS = [m["name"] for m in MANIFEST["per_layer"]
                 if m["unit"] in ("count", "GFLOP") and m["name"] != "trace.spans"]


def _bench(name: str, tmp_path: Path, trace: bool = False, **overrides) -> dict:
    """The named workload at tiny size: same code paths, seconds not minutes."""
    workload = workloads.WORKLOADS[name](**{**TINY[name], **overrides})
    return run.benchmark(workload, seed=5, seconds=0, trace=trace, workdir=tmp_path / "work")


def test_manifest_matches_the_metrics_the_code_reports():
    assert [m["name"] for m in MANIFEST["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(run.PER_LAYER)
    assert {m["unit"] for m in MANIFEST["end_to_end"]} == set(run.END_TO_END.values())
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    for w in MANIFEST["workloads"]:
        assert workloads.WORKLOADS[w["name"]]().why == w["why"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    record = _bench(name, tmp_path)
    assert record["correct"], record["failures"]
    assert record["attempted"] >= run.MIN_RUNS and record["failed"] == 0
    assert list(record["metrics"]) == list(run.END_TO_END)
    for metric_name, metric in record["metrics"].items():
        assert metric["value"] > 0 or metric_name == "accuracy"
    prov = record["provenance"]
    assert prov["seed"] == 5 and prov["why"] == workloads.WORKLOADS[name]().why
    assert 1 <= prov["blas_threads"] <= prov["nproc"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_with_repeatable_counts(name, tmp_path):
    first = _bench(name, tmp_path / "a", trace=True)
    second = _bench(name, tmp_path / "b", trace=True)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(run.PER_LAYER)
    assert first["metrics"]["trace.spans"]["value"] > 0
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_layer_counts_follow_the_workload(tmp_path):
    nts = _bench("nts_a_fixture", tmp_path / "nts", trace=True)["metrics"]
    ovo = _bench("eval_ovo_paper", tmp_path / "ovo", trace=True)["metrics"]
    assert nts["training.passes"]["value"] == 2
    assert nts["network.backward.calls"]["value"] == nts["training.steps"]["value"]
    assert nts["augment.augment_set.epochs_out"]["value"] == 300
    assert nts["bandpass.apply_filter_bank_set.s"]["value"] == 0
    assert ovo["network.backward.calls"]["value"] == 0
    assert ovo["network.forward.calls"]["value"] == 6
    assert ovo["mdn.tally_ovo_votes.calls"]["value"] == 40
    assert ovo["layers.conv1d_forward.gflop"]["value"] > 0


def test_tracer_restores_every_binding():
    original = mibci.network.backward
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as t:
            assert mibci.training.backward is not original
            assert mibci.network.backward is mibci.training.backward
            owners = {(getattr(o, "__name__", None), a) for o, a, _ in t.patched}
            assert ("mibci.training", "backward") in owners
            assert ("mibci.experiment", "augment_set") in owners
            assert ("mibci", "run_experiment") in owners
            assert ("EpochSet", "to_array") in owners
            raise RuntimeError("leave the block early")
    assert t.patched
    for owner, attr, value in t.patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is value, (owner, attr)
    assert mibci.training.backward is original


def test_self_time_excludes_children():
    spans = [
        tracer.Span("network.backward", 0, 0.0, 10.0, -1),
        tracer.Span("network.forward", 0, 1.0, 4.0, 0),
        tracer.Span("layers.conv1d_forward", 0, 1.5, 2.5, 1),
        tracer.Span("network.forward", 0, 11.0, 12.0, -1),
    ]
    table = tracer.span_table(spans)
    assert table["network.backward"]["self_s"] == pytest.approx(7.0)
    assert table["network.forward.in_backward"]["self_s"] == pytest.approx(2.0)
    assert table["network.forward"]["calls"] == 1
    assert table["network.forward"]["s"] == pytest.approx(1.0)


def test_planted_short_evaluation_is_caught(tmp_path, monkeypatch):
    load = mibci.io.load_epochs

    def drop_last_epoch(path, *args, **kwargs):
        data = load(path, *args, **kwargs)
        return data.subset(range(len(data) - 1))

    monkeypatch.setattr(mibci.cli, "load_epochs", drop_last_epoch)
    record = _bench("eval_ovo_paper", tmp_path)
    assert not record["correct"] and record["failed"] == 1
    assert "predictions for" in record["failures"][0]
    assert record["metrics"]["success_fraction"]["value"] == 0


def test_planted_wrong_labels_fail_the_accuracy_floor(tmp_path, monkeypatch):
    monkeypatch.setattr(mibci.mdn, "scheme_predict",
                        lambda data, scheme, clf: np.ones(len(data), dtype=int))
    record = _bench("eval_ovo_paper", tmp_path, accuracy_floor=0.5)
    assert not record["correct"]
    assert "below the floor" in record["failures"][0]


def test_planted_leaky_split_is_caught(tmp_path, monkeypatch):
    split_dataset = mibci.experiment.split_dataset

    def leaky(dataset, spec):
        split = split_dataset(dataset, spec)
        return type(split)(split.train_indices + split.test_indices[:1],
                           split.validation_indices, split.test_indices[1:])

    monkeypatch.setattr(mibci.experiment, "split_dataset", leaky)
    record = _bench("nts_a_fixture", tmp_path)
    assert not record["correct"]
    assert "split sizes" in record["failures"][0]


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert summary.verdict(base, faster, "lower", 0.1) == "improved"
    assert summary.verdict(base, faster, "lower", 0.1, more_failures=True) == "no worse"
    assert summary.verdict(base, base[::-1], "lower", 0.1) == "no worse"
    assert summary.verdict(base, slower, "lower", 0.1) == "worse"
    assert summary.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert summary.verdict(base, faster, "higher", 0.1) == "worse"


def test_describe_reports_a_tail_only_with_ten_samples_beyond():
    assert summary.describe([1.0] * 19)["tail_pct"] is None
    assert summary.describe([1.0] * 20)["tail_pct"] == 50.0
    assert summary.describe([float(i) for i in range(1000)])["tail_pct"] == 99.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nts_a_fixture", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
