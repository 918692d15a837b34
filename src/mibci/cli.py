"""Command-line interface over the library.

Exit codes: 0 on success, 1 on a validation error (bad arguments, malformed
input files, inconsistent configuration), 2 on a runtime failure (diverged
training, a training epoch that is also held out).
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
from click.core import ParameterSource

from . import mdn
from ._version import __version__
from .augment import AugmentConfig, augment_set
from .bandpass import FilterBankSpec
from .base import _field, _is_kind, _items
from .csp import CspModel, _apply_raw, _fit_raw
from .epochs import SplitSpec, split_dataset
from .experiment import (
    ExperimentPlan,
    ExperimentReport,
    LeakageError,
    compare_augmentation,
    run_experiment,
    run_matrix,
)
from .io import load_epochs, save_epochs
from .metrics import classwise_metrics, confusion
from .model import WalshCnnClassifier
from .network import ConvBlockSpec, _parse_triples, count_weights
from .stats import paired_ttest
from .synthetic import SyntheticSpec, generate_synthetic
from .training import TrainConfig, TrainingDivergedError
from .walsh import WalshCodebook


def _parse_bands(text: str | None) -> tuple[tuple[float, float], ...]:
    if not text:
        return FilterBankSpec.bands
    bands = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        try:
            bands.append((float(lo), float(hi)))
        except ValueError:
            raise click.BadParameter(
                f"band {part!r} is not of the form LOW-HIGH in Hz, e.g. 8-12", param_hint="'--bands'"
            ) from None
    return tuple(bands)


def _read_object(path) -> dict:
    """The JSON object in ``path``; malformed JSON or any other value is a
    validation error naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path}: {exc}") from None
    if not _is_kind(doc, dict):
        raise click.ClickException(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _read_config(ctx) -> dict:
    path = ctx.obj.get("config")
    return _read_object(path) if path else {}


def _out_path(ctx, name: str) -> Path:
    out = Path(ctx.obj.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _emit(ctx, doc: dict, name: str, text: str | None = None) -> None:
    fmt = ctx.obj.get("format", "json")
    path = _out_path(ctx, name)
    encoded = json.dumps(doc, indent=2)
    path.write_text(encoded, encoding="utf-8")
    if fmt == "json":
        click.echo(encoded)
    elif text is not None:
        click.echo(text)
    else:
        for key, value in doc.items():
            click.echo(f"{key}: {value}")


@click.group()
@click.version_option(__version__)
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config/plan document.")
@click.option("--out", type=click.Path(file_okay=False), default=".", help="Output directory.")
@click.option("--format", "fmt", type=click.Choice(["json", "text", "csv"]), default="json", help="Console output format.")
@click.pass_context
def cli(ctx, seed, config, out, fmt):
    """Motor-imagery EEG classification toolkit."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, config=config, out=out, format=fmt)


def _seed(ctx, default: int = 0) -> int:
    return ctx.obj["seed"] if ctx.obj.get("seed") is not None else default


@cli.command()
@click.option("--classes", "num_classes", type=int, default=SyntheticSpec.num_classes, show_default=True)
@click.option("--epochs-per-class", type=int, default=SyntheticSpec.epochs_per_class, show_default=True)
@click.option("--channels", type=int, default=SyntheticSpec.channels, show_default=True)
@click.option("--samples", type=int, default=SyntheticSpec.samples, show_default=True)
@click.option("--rate", "sampling_rate", type=float, default=SyntheticSpec.sampling_rate, show_default=True)
@click.option("--noise-sd", type=float, default=SyntheticSpec.noise_sd, show_default=True)
@click.option("--gain", "default_gain", type=float, default=SyntheticSpec.default_gain, show_default=True, help="Band amplitude of each class's channel block.")
@click.option("--output", default="synthetic.epb", show_default=True)
@click.pass_context
def synth(ctx, output, **params):
    """Generate a synthetic band-power dataset as an EPB1 file."""
    cfg, where = _read_config(ctx), ctx.obj.get("config")
    for name in params:
        # a flag given on the command line wins over the config key, as --seed does
        if name in cfg and ctx.get_parameter_source(name) is ParameterSource.DEFAULT:
            params[name] = cfg[name]
    for name in ("mu_gains", "beta_gains"):
        rows = _field(cfg, name, list, where, default=None)
        if rows is not None:
            params[name] = [_items(row, float, f"{where}: {name} row {i}") for i, row in enumerate(rows)]
    spec = SyntheticSpec(**params, seed=_seed(ctx, cfg.get("seed", 0)))
    dataset = generate_synthetic(spec)
    path = _out_path(ctx, output)
    save_epochs(dataset, path)
    click.echo(f"wrote {len(dataset)} epochs ({dataset.n_channels}x{dataset.n_samples}) to {path}")


@cli.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--amp-low", type=float, default=AugmentConfig.amp_low, show_default=True)
@click.option("--amp-high", type=float, default=AugmentConfig.amp_high, show_default=True)
@click.option("--flip-probability", type=float, default=AugmentConfig.flip_probability, show_default=True)
@click.option("--rotation-half-range", type=int, default=AugmentConfig.rotation_half_range)
@click.option("--noise-sd", type=float, default=AugmentConfig.noise_sd, show_default=True)
@click.option("--copies", "copies_per_epoch", type=int, default=AugmentConfig.copies_per_epoch, show_default=True)
@click.option("--output", default="augmented.epb", show_default=True)
@click.pass_context
def augment(ctx, in_path, output, **params):
    """Expand a training set with augmented epoch variants."""
    dataset = load_epochs(in_path)
    grown = augment_set(dataset, AugmentConfig(**params, seed=_seed(ctx)))
    path = _out_path(ctx, output)
    save_epochs(grown, path)
    click.echo(f"{len(dataset)} -> {len(grown)} epochs, wrote {path}")


@cli.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--test-fraction", type=float, default=SplitSpec.test_fraction, show_default=True)
@click.option("--validation-fraction", type=float, default=SplitSpec.validation_fraction, show_default=True)
@click.pass_context
def split(ctx, in_path, **params):
    """Stratified train/validation/test split into three EPB1 files."""
    dataset = load_epochs(in_path)
    spec = SplitSpec(**params, seed=_seed(ctx))
    parts = split_dataset(dataset, spec)
    doc = {"seed": spec.seed}
    for name, indices in (
        ("train", parts.train_indices),
        ("validation", parts.validation_indices),
        ("test", parts.test_indices),
    ):
        entry = {"count": len(indices), "indices": list(indices), "path": None}
        if indices:
            path = _out_path(ctx, f"{name}.epb")
            save_epochs(dataset.subset(indices), path)
            entry["path"] = str(path)
        doc[name] = entry
    _out_path(ctx, "split.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    click.echo(
        f"train {doc['train']['count']} / validation {doc['validation']['count']} "
        f"/ test {doc['test']['count']}"
    )


@cli.command("csp-fit")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--m", type=int, required=True, help="Spatial filters kept per side.")
@click.option("--scheme", type=click.Choice(["auto", "two_class", "one_vs_rest"]), default="auto", show_default=True)
@click.option("--bands", default=None, help="Comma list like 6-12,12-18,...")
@click.option("--order", type=int, default=FilterBankSpec.order, show_default=True)
@click.option("--output", default="csp.json", show_default=True)
@click.pass_context
def csp_fit(ctx, in_path, m, scheme, bands, order, output):
    """Fit the filter bank + spatial filters on a training EPB1 file."""
    dataset = load_epochs(in_path)
    model = _fit_raw(dataset, m, scheme, FilterBankSpec(bands=_parse_bands(bands), order=order))
    path = _out_path(ctx, output)
    model.save(path)
    click.echo(f"fitted {model.n_outputs} spatial filters on {len(dataset)} epochs, wrote {path}")


@cli.command("csp-apply")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--output", default="transformed.epb", show_default=True)
@click.pass_context
def csp_apply(ctx, in_path, model_path, output):
    """Band-filter an EPB1 file and project it onto fitted spatial filters."""
    dataset = load_epochs(in_path)
    model = CspModel.load(model_path)
    projected = _apply_raw(model, dataset.to_array(), dataset.sampling_rate)
    transformed = dataset.subset(range(len(dataset)), projected)
    path = _out_path(ctx, output)
    save_epochs(transformed, path)
    click.echo(f"wrote {len(transformed)} epochs with {transformed.n_channels} virtual channels to {path}")


@cli.command()
@click.option("--train", "train_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--val", "val_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--structure", default=None, help="Layer triples, e.g. '2,7,40 / 40,7,40 / 40,16,16'.")
@click.option("--code-size", type=int, default=WalshCodebook.size, show_default=True)
@click.option("--scheme", type=click.Choice(["single", "ovo", "ovr"]), default="single", show_default=True)
@click.option("--learning-rate", type=float, default=TrainConfig.learning_rate, show_default=True)
@click.option("--batch-size", type=int, default=TrainConfig.batch_size, show_default=True)
@click.option("--max-iterations", type=int, default=TrainConfig.max_iterations, show_default=True)
@click.option("--patience", type=int, default=TrainConfig.patience, show_default=True)
@click.option("--dropout", "dropout_p", type=float, default=ConvBlockSpec.dropout_p, show_default=True)
@click.option("--no-batch-norm", is_flag=True, default=False)
@click.pass_context
def train(ctx, train_path, val_path, no_batch_norm, **params):
    """Train the feature extractor; writes model.json and train_report.json."""
    train_set = load_epochs(train_path)
    clf = WalshCnnClassifier(**params, batch_norm=not no_batch_norm, seed=_seed(ctx))
    if val_path:
        val_set = load_epochs(val_path)
        clf.fit(train_set.to_array(), train_set.labels, val_set.to_array(), val_set.labels)
    else:
        clf.fit(train_set.to_array(), train_set.labels)
    model_path = _out_path(ctx, "model.json")
    model_path.write_text(clf.scheme_.to_json(), encoding="utf-8")
    reports = [r.to_dict() for r in clf.train_reports_]
    last = clf.train_reports_[-1]
    _emit(
        ctx,
        reports[0] if len(reports) == 1 else {"members": reports},
        "train_report.json",
        text=(
            f"{len(reports)} network(s); last stopped at iteration {last.stopped_at} "
            f"({last.stop_reason}) with best validation loss {last.best_validation_loss:.6f}"
        ),
    )
    click.echo(f"wrote {model_path}")


@cli.command("eval")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--params", "params_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def eval_cmd(ctx, in_path, params_path):
    """Classify an EPB1 file with a model.json written by train and report metrics."""
    dataset = load_epochs(in_path)
    scheme = mdn.MetaScheme.from_json(Path(params_path).read_text(encoding="utf-8"))
    if scheme.num_classes != dataset.num_classes:
        raise ValueError(
            f"the model has {scheme.num_classes} classes but {in_path} has {dataset.num_classes}"
        )
    predictions = mdn.scheme_predict(dataset.to_array(), scheme, scheme.codebook)
    cm = confusion(predictions, dataset.labels, dataset.num_classes)
    report = classwise_metrics(cm)
    doc = report.to_dict()
    doc["confusion"] = cm.counts.tolist()
    _emit(ctx, doc, "eval.json", text=f"accuracy {report.accuracy:.4f} (kappa {report.kappa:.4f})")


def _plan(ctx, command: str, dataset: str | None, n_runs: int | None) -> ExperimentPlan:
    """The --config plan with the --dataset, --n-runs and --seed overrides applied."""
    doc = _read_config(ctx)
    if not doc:
        raise click.ClickException(f"{command} needs --config pointing at a plan JSON")
    plan = ExperimentPlan.from_dict(doc)
    if dataset:
        plan = replace(plan, dataset=dataset)
    if n_runs:
        plan = replace(plan, n_runs=n_runs)
    if ctx.obj.get("seed") is not None:
        plan = replace(plan, master_seed=ctx.obj["seed"])
    return plan


@cli.command()
@click.option("--dataset", default=None, type=click.Path(exists=True, dir_okay=False), help="Overrides the plan's dataset path.")
@click.option("--n-runs", type=int, default=None, help="Overrides the plan's run count.")
@click.pass_context
def experiment(ctx, dataset, n_runs):
    """Run one plan cell (requires --config with a plan JSON)."""
    plan = _plan(ctx, "experiment", dataset, n_runs)
    report = run_experiment(plan)
    _emit(
        ctx,
        report.to_dict(),
        "experiment.json",
        text=(
            f"{plan.transform}-{plan.augment}: mean accuracy "
            f"{(report.mean_accuracy or 0) * 100:.1f}% (kappa {report.mean_kappa or 0:.3f}) "
            f"over {len(report.runs) - report.n_failed} runs, {report.n_failed} failed"
        ),
    )


@cli.command()
@click.option("--dataset", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--n-runs", type=int, default=None)
@click.pass_context
def matrix(ctx, dataset, n_runs):
    """Run all four transform x augmentation cells of a plan."""
    plan = _plan(ctx, "matrix", dataset, n_runs)
    report = run_matrix(plan)
    table = report.table()
    _out_path(ctx, "matrix.json").write_text(report.to_json(), encoding="utf-8")
    _out_path(ctx, "matrix.txt").write_text(table + "\n", encoding="utf-8")
    click.echo(table)
    if len(report.cells["NTS-A"].accuracies()) >= 2:
        result, summary = compare_augmentation(report.cells["NTS-A"], report.cells["NTS-NA"])
        click.echo(f"NTS augmentation effect: {summary}")
    else:
        click.echo("NTS augmentation effect: needs at least two successful runs to test")


def _load_series(path: str) -> list[float]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if _is_kind(doc, dict) and "runs" in doc:
        return ExperimentReport.from_dict(doc).accuracies()
    if _is_kind(doc, list):
        return [float(v) for v in _items(doc, float, path)]
    raise click.ClickException(f"{path}: expected a JSON number list or an experiment report")


@cli.command()
@click.option("--a", "a_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--b", "b_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def ttest(ctx, a_path, b_path):
    """Paired t-test between two accuracy series (JSON lists or reports)."""
    a = _load_series(a_path)
    b = _load_series(b_path)
    result = paired_ttest(a, b)
    _emit(
        ctx,
        result.to_dict(),
        "ttest.json",
        text=f"t({result.df}) = {result.t:.4f}, two-tailed p = {result.p:.4e}",
    )


@cli.command("count-weights")
@click.option("--structure", required=True, help="Layer triples; use k = kernel area for 2-D stacks.")
@click.option("--classes", type=int, default=0, show_default=True, help="Adds code_size x classes when > 0.")
@click.option("--code-size", type=int, default=WalshCodebook.size, show_default=True)
@click.pass_context
def count_weights_cmd(ctx, structure, classes, code_size):
    """Multiplicative weight count of a layer stack."""
    total = count_weights(_parse_triples(structure), num_classes=classes, output_dim=code_size)
    click.echo(str(total))


@cli.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def report(ctx, in_path):
    """Render a stored experiment/matrix report as json, text, or csv."""
    doc = _read_object(in_path)
    fmt = ctx.obj.get("format", "json")
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2))
        return
    if "runs" in doc:
        cells = {"experiment": ExperimentReport.from_dict(doc)}
    else:
        cells = {name: ExperimentReport.from_dict(_field(doc, name, dict, "matrix report")) for name in doc}
    if fmt == "csv":
        click.echo("cell,run,accuracy,kappa,error")
        for name, rep in cells.items():
            for run in rep.runs:
                acc = "" if run.accuracy is None else f"{run.accuracy:.6f}"
                kap = "" if run.kappa is None else f"{run.kappa:.6f}"
                err = "yes" if run.error else ""
                click.echo(f"{name},{run.run},{acc},{kap},{err}")
        return
    for name, rep in cells.items():
        mean = "n/a" if rep.mean_accuracy is None else f"{100 * rep.mean_accuracy:.1f} ({rep.mean_kappa:.3f})"
        accs = " ".join(
            "fail" if r.error else f"{100 * r.accuracy:.1f}" for r in rep.runs
        )
        click.echo(f"{name:10s} {accs}  mean {mean}")


def main(argv=None) -> int:
    """Console entry point mapping errors to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (TrainingDivergedError, LeakageError) as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports anything left
        click.echo(f"runtime failure: {type(exc).__name__}: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
