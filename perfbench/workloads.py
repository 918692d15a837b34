"""The benchmark's workloads: their inputs, the measured call and its checks.

Every input is generated from the workload seed; the program sees only the
generated epochs, files and plans. Each workload calls mibci through module
attributes (``experiment.run_experiment``, ``cli.main``) so that a traced run
reaches the patched bindings.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from mibci import cli, experiment
from mibci import io as mibci_io
from mibci.augment import AugmentConfig
from mibci.model import WalshCnnClassifier
from mibci.synthetic import SyntheticSpec, generate_synthetic

E2E_STRUCTURE = "4,5,12 / 12,5,12 / 12,5,12 / 12,5,12 / 12,16,16"
TS_STRUCTURE = "16,5,12 / 12,5,12 / 12,5,12 / 12,5,12 / 12,5,12 / 12,16,16"
PAPER_STRUCTURE = "2,7,40 / 40,7,40 / 40,7,40 / 40,7,40 / 40,16,16"


def subseed(seed: int, *path: int) -> int:
    """An independent 32-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one measured call did.

    ``epoch_passes`` counts epochs pushed through a network: training epochs
    times passes for an experiment, file epochs times member networks for an
    evaluation. ``failure`` is set when the call raised, exited non-zero or
    recorded a failed run.
    """

    seconds: float
    accuracy: float | None = None
    classified: int = 0
    epoch_passes: int = 0
    failure: str | None = None
    detail: dict = field(default_factory=dict)


def _split_sizes(per_class: int, classes: int, test: float = 0.2, val: float = 0.1) -> dict:
    """The train/validation/test sizes ``split_dataset`` must produce."""
    n_test = int(np.floor(per_class * test))
    n_val = int(np.floor((per_class - n_test) * val))
    n_train = per_class - n_test - n_val
    return {"train": classes * n_train, "validation": classes * n_val, "test": classes * n_test}


def _experiment_outcome(seconds: float, run: dict, n_failed: int) -> Outcome:
    """Outcome of a one-run experiment from its RunResult dict."""
    out = Outcome(seconds=seconds, accuracy=run["accuracy"], detail={"run": run})
    if n_failed:
        out.failure = f"{n_failed} failed run(s)"
        return out
    out.classified = run["split_sizes"]["test"]
    out.epoch_passes = run["split_sizes"]["train"] * sum(
        s["stopped_at"] for s in run["train_summaries"])
    return out


def _run_checks(run: dict, expected_split: dict, passes: int, floor: float) -> list[str]:
    """Checks shared by the two experiment workloads on one successful run."""
    problems = []
    if run["accuracy"] < floor:
        problems.append(f"accuracy {run['accuracy']} below the floor {floor}")
    if run["split_sizes"] != expected_split:
        problems.append(f"split sizes {run['split_sizes']} != expected {expected_split}")
    stopped = [s["stopped_at"] for s in run["train_summaries"]]
    if stopped != [passes]:
        problems.append(f"training ran {stopped} passes, expected [{passes}]")
    return problems


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process; return its exit code and console text."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class NtsAFixture:
    """One library ``run_experiment`` NTS-A run at the acceptance-fixture shape.

    ``patience`` equals ``passes``, so every run trains exactly ``passes``
    passes: the fixture's own patience of 8 stops anywhere from 21 to 60
    passes depending on the data, which would make ``run_s`` a measure of
    the seed rather than of the code.
    """

    name: str = "nts_a_fixture"
    why: str = ("training dominates: NTS-A at the acceptance-fixture shape, 1440 augmented "
                "epochs x 10 passes of conv/BN/pool forward+backward; filter bank and CSP bypassed")
    epochs_per_class: int = 100
    channels: int = 4
    samples: int = 250
    structure: str = E2E_STRUCTURE
    batch_size: int = 64
    passes: int = 10
    accuracy_floor: float = 0.9

    def _plan(self, seed: int, **overrides) -> experiment.ExperimentPlan:
        plan = experiment.ExperimentPlan(
            transform="NTS", augment="A", structure=self.structure, code_size=16,
            scheme="single", learning_rate=2e-3, batch_size=self.batch_size,
            max_iterations=self.passes, patience=self.passes, batch_norm=True,
            dropout_p=0.0, n_runs=1, master_seed=subseed(seed, 1),
        )
        return replace(plan, **overrides)

    def _dataset(self, seed: int, per_class: int):
        return generate_synthetic(SyntheticSpec(
            num_classes=2, epochs_per_class=per_class, channels=self.channels,
            samples=self.samples, sampling_rate=250.0, noise_sd=2.0, default_gain=2.0,
            seed=subseed(seed, 0, per_class),
        ))

    def setup(self, seed: int, workdir: Path) -> dict:
        warm = self._dataset(seed, 20)
        experiment.run_experiment(self._plan(seed, max_iterations=1), warm)
        return {"dataset": self._dataset(seed, self.epochs_per_class), "plan": self._plan(seed)}

    def run(self, inputs: dict) -> Outcome:
        start = perf_counter()
        report = experiment.run_experiment(inputs["plan"], inputs["dataset"])
        seconds = perf_counter() - start
        return _experiment_outcome(seconds, report.runs[0].to_dict(), report.n_failed)

    def check(self, inputs: dict, outcome: Outcome) -> list[str]:
        copies = 1 + AugmentConfig().copies_per_epoch
        expected = _split_sizes(self.epochs_per_class, 2)
        expected["train"] *= copies
        return _run_checks(outcome.detail["run"], expected, self.passes, self.accuracy_floor)


@dataclass
class TsNa2aShape:
    """One CLI ``experiment`` TS-NA run on a BCI-IV-2a-shaped EPB1 file."""

    name: str = "ts_na_2a_shape"
    why: str = ("filter bank + one-vs-rest CSP ~half the run, training the rest: CLI TS-NA "
                "on 4 classes x 22 ch x 500 samples; covers io, cli and wide inputs")
    epochs_per_class: int = 72
    channels: int = 22
    samples: int = 500
    structure: str = TS_STRUCTURE
    m: int = 2
    passes: int = 10
    accuracy_floor: float = 0.9

    def _write_inputs(self, seed: int, workdir: Path, per_class: int, passes: int) -> tuple[Path, Path]:
        data = generate_synthetic(SyntheticSpec(
            num_classes=4, epochs_per_class=per_class, channels=self.channels,
            samples=self.samples, sampling_rate=250.0, seed=subseed(seed, 0, per_class),
        ))
        epb = workdir / f"ts_{per_class}.epb"
        mibci_io.save_epochs(data, epb)
        plan = experiment.ExperimentPlan(
            transform="TS", augment="NA", m=self.m, structure=self.structure,
            learning_rate=2e-3, batch_size=32, max_iterations=passes, dropout_p=0.2, n_runs=1,
            master_seed=subseed(seed, 1),
        )
        plan_path = workdir / f"plan_{per_class}.json"
        plan_path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        return epb, plan_path

    def _argv(self, epb: Path, plan: Path, out: Path) -> list[str]:
        return ["--config", str(plan), "--out", str(out), "--format", "text",
                "experiment", "--dataset", str(epb)]

    def setup(self, seed: int, workdir: Path) -> dict:
        warm_epb, warm_plan = self._write_inputs(seed, workdir, 12, 1)
        code, text = _quiet_cli(self._argv(warm_epb, warm_plan, workdir / "warm"))
        if code != 0:
            raise RuntimeError(f"warm-up experiment exited {code}: {text.strip()}")
        epb, plan = self._write_inputs(seed, workdir, self.epochs_per_class, self.passes)
        return {"argv": self._argv(epb, plan, workdir / "out"), "out": workdir / "out"}

    def run(self, inputs: dict) -> Outcome:
        shutil.rmtree(inputs["out"], ignore_errors=True)
        start = perf_counter()
        code, text = _quiet_cli(inputs["argv"])
        seconds = perf_counter() - start
        if code != 0:
            return Outcome(seconds=seconds, failure=f"exit code {code}: {text.strip()[-300:]}")
        report = json.loads((inputs["out"] / "experiment.json").read_text(encoding="utf-8"))
        return _experiment_outcome(seconds, report["runs"][0], report["n_failed"])

    def check(self, inputs: dict, outcome: Outcome) -> list[str]:
        run = outcome.detail["run"]
        problems = _run_checks(run, _split_sizes(self.epochs_per_class, 4), self.passes,
                               self.accuracy_floor)
        virtual = 4 * 2 * self.m
        if not run["structure"].startswith(f"{virtual},"):
            problems.append(f"network input is {run['structure']!r}, expected {virtual} CSP channels")
        return problems


@dataclass
class EvalOvoPaper:
    """CLI ``eval`` of a 1000-epoch EPB1 file with a 6-member OVO scheme.

    The scheme is trained in setup. Gains are explicit because the default
    lateralized map makes classes 2-4 identical with 2 channels.
    """

    name: str = "eval_ovo_paper"
    why: str = ("inference only: eval-mode forward of the paper-scale net over the whole file "
                "as one batch, 6 OVO members and the vote tally; exposes forward cost and memory")
    test_per_class: int = 250
    train_per_class: int = 16
    samples: int = 251
    structure: str = PAPER_STRUCTURE
    passes: int = 15
    gain: float = 3.0
    accuracy_floor: float = 0.9

    def _data(self, seed: int, per_class: int, stream: int):
        g = self.gain
        return generate_synthetic(SyntheticSpec(
            num_classes=4, epochs_per_class=per_class, channels=2, samples=self.samples,
            sampling_rate=250.0,
            mu_gains=np.array([[g, 0.0], [0.0, g], [0.0, 0.0], [0.0, 0.0]]),
            beta_gains=np.array([[0.0, 0.0], [0.0, 0.0], [g, 0.0], [0.0, g]]),
            seed=subseed(seed, stream),
        ))

    def _argv(self, epb: Path, scheme: Path, out: Path) -> list[str]:
        return ["--out", str(out), "--format", "text", "eval", "--in", str(epb),
                "--params", str(scheme)]

    def setup(self, seed: int, workdir: Path) -> dict:
        train = self._data(seed, self.train_per_class, 0)
        val = self._data(seed, max(2, self.train_per_class // 4), 1)
        clf = WalshCnnClassifier(
            structure=self.structure, scheme="ovo", batch_size=32,
            max_iterations=self.passes, patience=self.passes, dropout_p=0.0,
            seed=subseed(seed, 2),
        )
        clf.fit(train.to_array(), train.labels, val.to_array(), val.labels)
        scheme = workdir / "scheme.json"
        scheme.write_text(clf.scheme_.to_json(), encoding="utf-8")
        warm = workdir / "warm.epb"
        mibci_io.save_epochs(self._data(seed, 4, 3), warm)
        code, text = _quiet_cli(self._argv(warm, scheme, workdir / "warm"))
        if code != 0:
            raise RuntimeError(f"warm-up eval exited {code}: {text.strip()}")
        epb = workdir / "test.epb"
        mibci_io.save_epochs(self._data(seed, self.test_per_class, 4), epb)
        return {"argv": self._argv(epb, scheme, workdir / "out"), "out": workdir / "out",
                "epochs": 4 * self.test_per_class, "members": len(clf.scheme_.members)}

    def run(self, inputs: dict) -> Outcome:
        shutil.rmtree(inputs["out"], ignore_errors=True)
        start = perf_counter()
        code, text = _quiet_cli(inputs["argv"])
        seconds = perf_counter() - start
        if code != 0:
            return Outcome(seconds=seconds, failure=f"exit code {code}: {text.strip()[-300:]}")
        doc = json.loads((inputs["out"] / "eval.json").read_text(encoding="utf-8"))
        predicted = int(np.sum(doc["confusion"]))
        return Outcome(
            seconds=seconds, accuracy=doc["accuracy"], classified=predicted,
            epoch_passes=predicted * inputs["members"], detail={"predictions": predicted},
        )

    def check(self, inputs: dict, outcome: Outcome) -> list[str]:
        problems = []
        if outcome.detail["predictions"] != inputs["epochs"]:
            problems.append(f"{outcome.detail['predictions']} predictions for {inputs['epochs']} epochs")
        if outcome.accuracy < self.accuracy_floor:
            problems.append(f"accuracy {outcome.accuracy} below the floor {self.accuracy_floor}")
        return problems


WORKLOADS = {w.name: w for w in (NtsAFixture, TsNa2aShape, EvalOvoPaper)}

