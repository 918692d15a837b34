#!/usr/bin/env python3
"""The mibci benchmark: three workloads, end-to-end metrics, traced layers.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload nts_a_fixture --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end metric;
``--trace 1`` repeats the same calls with spans around mibci's public
functions and prints every per-layer metric, including the tracing overhead.
Each invocation appends one record with its provenance to
``.perfbench_results/results.jsonl`` (``--results`` overrides). The last
stdout line is the JSON result; the exit code is 0 only when every check
passed.

Compare two result files::

    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread keeps timings steady on a small,
# shared machine and never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Untraced calls per invocation at least, so each reported time is a median
# that one disturbed call cannot move.
MIN_RUNS = 3
# Untraced/traced call pairs per traced invocation at least.
TRACE_PAIRS = 2

END_TO_END = {
    "run_s": "s",
    "epoch_passes_per_s": "1/s",
    "eval_epochs_per_s": "1/s",
    "accuracy": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_fraction": "fraction",
}

# span name -> which of .s / .calls / .self_s it reports
_SPAN_METRICS = {
    "io.load_epochs": ("s",),
    "epochs.split_dataset": ("s",),
    "epochs.EpochSet.to_array": ("s", "calls"),
    "epochs.EpochSet.subset": ("s",),
    "epochs.EpochSet.epoch_fingerprints": ("s",),
    "bandpass.apply_filter_bank_set": ("s",),
    "csp.fit_csp": ("s",),
    "csp.apply_csp_set": ("s",),
    "augment.augment_set": ("s",),
    "training.train": ("s", "self_s"),
    "network.backward": ("s", "calls"),
    "network.forward": ("s", "calls"),
    **{f"layers.{layer}_{way}": ("s", "calls")
       for layer in ("conv1d", "batchnorm", "maxpool", "relu", "dropout")
       for way in ("forward", "backward")},
    "mdn.scheme_predict": ("s", "self_s"),
    "mdn.tally_ovo_votes": ("calls",),
    "metrics.divergence": ("s",),
    "model.WalshCnnClassifier.fit": ("s",),
    "model.WalshCnnClassifier.predict": ("s",),
    "experiment.run_experiment": ("s", "self_s"),
    "cli.main": ("s", "self_s"),
}
_UNITS = {"s": "s", "self_s": "s", "calls": "count"}

PER_LAYER = {
    **{f"{span}.{kind}": _UNITS[kind] for span, kinds in _SPAN_METRICS.items() for kind in kinds},
    "io.load_epochs.mb_per_s": "MB/s",
    "bandpass.apply_filter_bank_set.epochs_per_s": "1/s",
    "augment.augment_set.epochs_out": "count",
    "training.passes": "count",
    "training.steps": "count",
    "training.useful_pass_ratio": "ratio",
    "layers.conv1d_forward.gflop": "GFLOP",
    "layers.conv1d_forward.gflop_per_s": "GFLOP/s",
    "layers.conv1d_backward.gflop": "GFLOP",
    "layers.conv1d_backward.gflop_per_s": "GFLOP/s",
    "trace.spans": "count",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_run_s": "s",
    "trace.overhead_eval_epochs_per_s": "1/s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import mibci from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "mibci" / "__init__.py").is_file():
        raise ImportError(f"no mibci sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mibci

    if not Path(mibci.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mibci imported from {mibci.__file__}, not from {SRC}")
    return mibci


def _git_hash() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mibci").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        return "unknown"


def provenance(workload, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "platform": platform.platform(),
        "git": _git_hash(),
        "src_sha256": _src_digest(),
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_repeats": SETUP_REPEATS,
        "min_runs": MIN_RUNS,
        "trace_pairs": TRACE_PAIRS,
    }


def call_once(workload, inputs: dict):
    """One measured call, checked; a crash or failed check sets ``failure``."""
    from workloads import Outcome

    start = time.perf_counter()
    try:
        outcome = workload.run(inputs)
        if outcome.failure is None:
            problems = workload.check(inputs, outcome)
            if problems:
                outcome.failure = "; ".join(problems)
    except Exception:  # noqa: BLE001 - a crashing call is a failed operation
        outcome = Outcome(seconds=time.perf_counter() - start,
                          failure=traceback.format_exc(limit=4))
    return outcome


def measure(workload, inputs: dict, seconds: float, min_runs: int) -> list:
    """Untraced calls until ``seconds`` have passed and ``min_runs`` were made;
    stops at the first failure."""
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < min_runs or time.perf_counter() - start < seconds:
        outcomes.append(call_once(workload, inputs))
        if outcomes[-1].failure is not None:
            break
    return outcomes


def measure_traced(workload, inputs: dict, seconds: float, min_pairs: int, tracer) -> list:
    """Pairs of one untraced and one traced call, so that machine drift
    cancels in the overhead; stops at the first failure."""
    pairs = []
    start = time.perf_counter()
    while len(pairs) < min_pairs or time.perf_counter() - start < seconds:
        plain = call_once(workload, inputs)
        if plain.failure is not None:
            return pairs + [(plain, None)]
        tracer.run = len(pairs)
        with tracer:
            traced = call_once(workload, inputs)
        pairs.append((plain, traced))
        if traced.failure is not None:
            break
    return pairs


def end_to_end(outcomes: list, setup_times: list[float], peak_rss_mb: float) -> dict:
    ok = [o for o in outcomes if o.failure is None]
    timed = ok or outcomes
    values = {
        "run_s": statistics.median(o.seconds for o in timed),
        "epoch_passes_per_s": statistics.median(o.epoch_passes / o.seconds for o in timed),
        "eval_epochs_per_s": statistics.median(o.classified / o.seconds for o in timed),
        "accuracy": statistics.median(o.accuracy or 0.0 for o in timed),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "success_fraction": len(ok) / len(outcomes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(table: dict, pairs: list, spans: int) -> dict:
    """Per-layer metrics per traced call from the span table, and the tracing
    overhead as the median over pairs of traced minus untraced."""
    runs = max(1, len(pairs))

    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": {}})

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    values = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            values[f"{span}.{kind}"] = row(span)[kind] / runs
    load = row("io.load_epochs")
    values["io.load_epochs.mb_per_s"] = rate(load["attrs"].get("bytes", 0) / 1e6, load["s"])
    bank = row("bandpass.apply_filter_bank_set")
    values["bandpass.apply_filter_bank_set.epochs_per_s"] = rate(bank["attrs"].get("epochs", 0), bank["s"])
    values["augment.augment_set.epochs_out"] = row("augment.augment_set")["attrs"].get("epochs_out", 0) / runs
    train = row("training.train")["attrs"]
    values["training.passes"] = train.get("passes", 0) / runs
    values["training.steps"] = train.get("steps", 0) / runs
    values["training.useful_pass_ratio"] = rate(train.get("best_pass", 0), train.get("passes", 0))
    for way in ("forward", "backward"):
        conv = row(f"layers.conv1d_{way}")
        gflop = conv["attrs"].get("flop", 0) / 1e9
        values[f"layers.conv1d_{way}.gflop"] = gflop / runs
        values[f"layers.conv1d_{way}.gflop_per_s"] = rate(gflop, conv["s"])
    values["trace.spans"] = spans / runs

    def paired_median(fn):
        return statistics.median(fn(plain, traced) for plain, traced in pairs) if pairs else 0.0

    values["trace.untraced_run_s"] = paired_median(lambda plain, traced: plain.seconds)
    values["trace.traced_run_s"] = paired_median(lambda plain, traced: traced.seconds)
    values["trace.overhead_run_s"] = paired_median(lambda plain, traced: traced.seconds - plain.seconds)
    values["trace.overhead_eval_epochs_per_s"] = paired_median(
        lambda plain, traced: traced.classified / traced.seconds - plain.classified / plain.seconds)
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}


def benchmark(workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    from summary import describe
    from tracer import Tracer, span_table

    setup_times = []
    for i in range(SETUP_REPEATS):
        setup_dir = workdir / f"setup{i}"
        setup_dir.mkdir(parents=True)
        start = time.perf_counter()
        inputs = workload.setup(seed, setup_dir)
        setup_times.append(time.perf_counter() - start)

    timings = {"setup_s": describe(setup_times)}
    if trace:
        tracer = Tracer()
        pairs = measure_traced(workload, inputs, seconds, TRACE_PAIRS, tracer)
        calls = [(o, traced) for pair in pairs for o, traced in zip(pair, (False, True))
                 if o is not None]
        complete = [pair for pair in pairs if pair[1] is not None and pair[1].failure is None]
        table = span_table(tracer.spans)
        metrics = per_layer(table, complete, len(tracer.spans))
        timings["traced_run_s"] = describe([o.seconds for o, traced in calls if traced] or [0.0])
        timings.update({f"span {name}": describe(row["per_call"]) for name, row in table.items()})
    else:
        calls = [(o, False) for o in measure(workload, inputs, seconds, MIN_RUNS)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end([o for o, _ in calls], setup_times, peak_rss_mb)
    timings["run_s"] = describe([o.seconds for o, traced in calls if not traced])
    outcomes = [o for o, _ in calls]
    record = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "provenance": provenance(workload, seed, seconds, trace),
        "timings": timings,
        "calls": [{"seconds": o.seconds, "accuracy": o.accuracy, "failure": o.failure,
                   "traced": traced} for o, traced in calls],
    }
    failed = sum(1 for o in outcomes if o.failure is not None)
    record.update(
        correct=failed == 0,
        attempted=len(outcomes),
        failed=failed,
        failed_fraction=failed / len(outcomes),
        metrics=metrics,
        failures=[o.failure for o in outcomes if o.failure is not None],
    )
    return record


def _print_report(record: dict) -> None:
    from summary import format_timing

    prov = record["provenance"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{prov['why']}")
    print(f"machine: nproc {prov['nproc']}, {prov['blas']} pinned to {prov['blas_threads']} "
          f"thread(s), python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"click {prov['click']}, git {prov['git']}")
    for name, timing in record["timings"].items():
        print(f"  {name:44s} {format_timing(timing)}")
    for name, metric in record["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_fraction':44s} {record['failed_fraction']:.6g} fraction "
          f"({record['failed']} of {record['attempted']} calls)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure.strip()}")


def run_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="mibci benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench_results" / "results.jsonl")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        return _fail("--seed must be >= 0 and --seconds >= 1")
    try:
        _import_program()
        import workloads
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = benchmark(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    _print_report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def compare_main(argv: list[str]) -> int:
    from summary import compare

    parser = argparse.ArgumentParser(prog="run.py compare", description="compare two result files")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--manifest", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    for line in compare(args.old, args.new, manifest):
        print(line)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
