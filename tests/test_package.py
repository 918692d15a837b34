"""The public surface: every exported name resolves."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mibci

MODULES = sorted(m.name for m in pkgutil.iter_modules(mibci.__path__) if not m.name.startswith("_"))


def test_package_exports_resolve():
    missing = [name for name in mibci.__all__ if not hasattr(mibci, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"mibci.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


SRC = Path(mibci.__file__).resolve().parents[1]

# Runs in a fresh interpreter: this test process has scipy loaded already.
SCIPY_PROBE = r"""
import json, sys
import mibci, mibci.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, commands = sys.argv[1], json.loads(sys.argv[2])
loaded = {"import": scipy_modules()}
for name, argv in commands:
    assert mibci.cli.main(["--out", out, *argv]) == 0, argv
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def probe_scipy(tmp_path, commands: list) -> dict:
    """The scipy modules loaded after ``import mibci.cli`` and after each
    ``(name, argv)`` CLI command, run in order in one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyLoadsWhereItRuns:
    """The transform and the t-test are the only scipy users, so a process
    that runs neither loads no scipy module."""

    def test_nts_commands_load_no_scipy(self, tmp_path):
        epb = str(tmp_path / "synthetic.epb")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "dataset": epb, "transform": "NTS", "augment": "A",
            "augment_config": {"copies_per_epoch": 1}, "structure": "2,5,8 / 8,16,16",
            "max_iterations": 2, "patience": 2, "dropout_p": 0.0, "n_runs": 1,
            "validation_fraction": 0.25,  # 8 epochs per class leave none at the default 0.1
        }))
        loaded = probe_scipy(tmp_path, [
            ["synth", ["synth", "--classes", "3", "--epochs-per-class", "8", "--channels", "2",
                       "--samples", "32", "--rate", "64"]],
            ["augment", ["augment", "--in", epb, "--copies", "1"]],
            ["split", ["split", "--in", epb]],
            ["train", ["train", "--train", str(tmp_path / "augmented.epb"), "--scheme", "ovo",
                       "--structure", "2,5,8 / 8,16,16", "--max-iterations", "2", "--dropout", "0"]],
            ["eval", ["eval", "--in", epb, "--params", str(tmp_path / "model.json")]],
            ["experiment", ["--config", str(plan), "experiment"]],
        ])
        assert loaded == dict.fromkeys(["import", "synth", "augment", "split", "train", "eval", "experiment"], [])

    def test_ttest_and_csp_fit_load_their_submodule_and_match_the_library(self, tmp_path):
        from mibci.bandpass import FilterBankSpec, apply_filter_bank_set
        from mibci.csp import fit_csp
        from mibci.io import load_epochs
        from mibci.stats import paired_ttest

        a, b = [0.9, 0.8, 0.85, 0.95, 0.9], [0.7, 0.75, 0.8, 0.7, 0.72]
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        epb = tmp_path / "synthetic.epb"
        loaded = probe_scipy(tmp_path, [
            ["ttest", ["ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json")]],
            ["synth", ["synth", "--classes", "2", "--epochs-per-class", "8", "--channels", "2",
                       "--samples", "64"]],
            ["csp-fit", ["csp-fit", "--in", str(epb), "--m", "1", "--bands", "8-12,18-24"]],
        ])
        assert loaded["import"] == []
        assert "scipy.special" in loaded["ttest"]
        assert "scipy.signal" not in loaded["ttest"] and "scipy.linalg" not in loaded["ttest"]
        assert {"scipy.signal", "scipy.linalg"} <= set(loaded["csp-fit"])

        result = paired_ttest(a, b)
        assert (f"{result.t:.4f}", f"{result.p:.4e}") == ("3.5770", "2.3230e-02")
        assert (tmp_path / "ttest.json").read_text() == json.dumps(result.to_dict(), indent=2)
        bank = FilterBankSpec(bands=((8.0, 12.0), (18.0, 24.0)))
        raw = load_epochs(epb)
        model = fit_csp(apply_filter_bank_set(raw, bank), m=1, bank=bank)
        # csp-fit records the fingerprint of the raw epochs it was given
        assert (tmp_path / "csp.json").read_text() == replace(model, fitted_on=raw.fingerprint).to_json()
