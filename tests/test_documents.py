"""Every document loader against a value of every other JSON kind in every field.

Each case starts from a document the library writes (the ``synth`` config,
which nothing writes, from the generator's fields) and swaps one field for a
value of another kind: null, bool, int, float, string, list or object. The
case loads, or raises ``DocumentError`` naming the field. A plain
``ValueError`` naming the field is allowed only when the new value is of a
kind the field may hold, so that a rule on the value refuses it: null, which
marks an unset field, or an integer where a number was. Through the CLI
every case exits 0, or 1 with the field named; none exits 2.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibci import DocumentError
from mibci.bandpass import FilterBankSpec
from mibci.cli import cli, main
from mibci.csp import CspModel, _fit_raw
from mibci.experiment import MATRIX_CELLS, ExperimentPlan, ExperimentReport, MatrixReport, run_experiment
from mibci.io import save_epochs
from mibci.mdn import MetaScheme, SchemeMember
from mibci.network import NetworkParams, init_params, parse_structure
from mibci.synthetic import SyntheticSpec, generate_synthetic

STRUCTURE = "2,5,8 / 8,16,16"
SERIES = [0.9, 0.8, 0.85, 0.95, 0.9]

# Numbers that no finite float holds: Python's json reads NaN and Infinity,
# and an integer of any size. The kind rule refuses each.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]

# A value of each JSON kind. Finite numbers stay within magnitudes a document
# field plausibly holds: these cases test kinds, not range rules.
KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(2**31), 2**31) | st.sampled_from(NON_FINITE[3:]),
    "float": st.floats(-1e6, 1e6) | st.sampled_from(NON_FINITE[:3]),
    "string": st.text(max_size=6),
    "list": st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
}


def kind_of(value) -> str:
    for kind, types in (("null", type(None)), ("bool", bool), ("int", int), ("float", float),
                        ("string", str), ("list", list), ("object", dict)):
        if isinstance(value, types):
            return kind
    raise AssertionError(f"not a JSON value: {value!r}")


def field_paths(doc, into=()) -> list[tuple]:
    """Every field of ``doc``, descending into the fields named in ``into``
    (an object, or a list of objects); a list document's fields are its entries."""
    if isinstance(doc, list):
        return [(k,) for k in range(len(doc))]
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if key in into:
            children = enumerate(value) if isinstance(value, list) else [(None, value)]
            for i, child in children:
                prefix = (key,) if i is None else (key, i)
                paths += [prefix + path for path in field_paths(child, into)]
    return paths


def swapped(doc, path: tuple, value):
    """A deep copy of ``doc`` with the field at ``path`` replaced, and the old value."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old, parent[path[-1]] = parent[path[-1]], value
    return doc, old


def names(path: tuple, message: str) -> bool:
    name = path[-1]
    pattern = f"entry {name}\\b" if isinstance(name, int) else rf"(?<!\w){re.escape(name)}(?!\w)"
    return re.search(pattern, message) is not None


def may_refuse_by_value(old, new) -> bool:
    """Whether ``new`` is of a kind the field that held ``old`` may hold."""
    return old is None or new is None or (kind_of(old), kind_of(new)) == ("float", "int")


def cases(data, doc, into):
    """(path, document, old value, new value) for every field and every kind
    but the field's own, each value drawn by hypothesis."""
    for path in field_paths(doc, into):
        for kind, values in KINDS.items():
            _, old = swapped(doc, path, None)
            if kind != kind_of(old):
                new = data.draw(values, label=f"{path} <- {kind}")
                yield path, swapped(doc, path, new)[0], old, new


def check_refusal(exc: Exception | None, path, old, new) -> None:
    if exc is None:
        return
    assert isinstance(exc, ValueError), f"{path} <- {new!r}: {type(exc).__name__}: {exc}"
    assert names(path, str(exc)), f"{path} <- {new!r}: {exc}"
    if not isinstance(exc, DocumentError):
        assert may_refuse_by_value(old, new), f"{path} <- {new!r}: a plain ValueError: {exc}"


def invoke(argv) -> Exception | None:
    """The exception a command raised, or None; its output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args=argv, standalone_mode=False, obj={})
        except Exception as exc:  # noqa: BLE001 - the test judges the kind
            return exc
    return None


def exit_of(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A small epoch file and one document of every kind the library writes."""
    root = tmp_path_factory.mktemp("documents")
    epb = root / "synthetic.epb"
    dataset = generate_synthetic(SyntheticSpec(epochs_per_class=10, channels=2, samples=32,
                                               sampling_rate=64.0, noise_sd=0.4, seed=3))
    save_epochs(dataset, epb)
    spec = parse_structure(STRUCTURE, input_channels=2, input_length=32)
    params = init_params(spec, seed=1)
    scheme = MetaScheme(kind="single", num_classes=2, members=(SchemeMember((1, 2), spec, params),))
    csp = _fit_raw(dataset, 1, bank=FilterBankSpec(bands=((8.0, 12.0), (18.0, 24.0))))
    plan = ExperimentPlan(dataset=str(epb), transform="TS", m=1, bands=((8.0, 12.0), (18.0, 24.0)),
                          structure=STRUCTURE, batch_size=8, max_iterations=1, patience=1, dropout_p=0.0,
                          validation_fraction=0.25, n_runs=1, master_seed=5)
    report = run_experiment(plan)
    assert report.n_failed == 0
    docs = {
        "network": params.to_doc(spec),
        "scheme": scheme.to_doc(),
        "csp": json.loads(csp.to_json()),
        "plan": plan.to_dict(),
        "report": report.to_dict(),
        "matrix": MatrixReport(cells={cell: report for cell in MATRIX_CELLS}).to_dict(),
        "series": SERIES,
        "synth": {"num_classes": 2, "epochs_per_class": 4, "channels": 2, "samples": 32,
                  "sampling_rate": 64.0, "noise_sd": 0.5, "default_gain": 2.0,
                  "mu_gains": [[2.0, 0.0], [0.0, 2.0]], "beta_gains": [[0.0, 2.0], [2.0, 0.0]], "seed": 3},
    }
    (root / "b.json").write_text(json.dumps(SERIES))
    return root, {name: json.loads(json.dumps(doc)) for name, doc in docs.items()}


# The fields each loader descends into, and how the library and the CLI load a document.
INTO = {
    "network": ("blocks",),
    "scheme": ("members", "network", "blocks"),
    "csp": (),
    "plan": ("augment_config",),
    "report": ("runs",),
    "matrix": MATRIX_CELLS,  # each cell loads as a report, whose runs the report cases cover
    "series": (),
    "synth": (),
}
LIBRARY = {
    "network": NetworkParams.from_doc,
    "scheme": MetaScheme.from_doc,
    "csp": lambda doc: CspModel.from_json(json.dumps(doc)),
    "plan": ExperimentPlan.from_dict,
    "report": ExperimentReport.from_dict,
}


def argv(name: str, root, path) -> list[str] | None:
    out = str(root / "out")
    return {
        "scheme": ["--out", out, "eval", "--in", str(root / "synthetic.epb"), "--params", str(path)],
        "csp": ["--out", out, "csp-apply", "--in", str(root / "synthetic.epb"), "--model", str(path)],
        "plan": ["--out", out, "--config", str(path), "experiment"],
        "report": ["--format", "text", "report", "--in", str(path)],
        "matrix": ["--format", "text", "report", "--in", str(path)],
        "series": ["--out", out, "ttest", "--a", str(path), "--b", str(root / "b.json")],
        "synth": ["--out", out, "--config", str(path), "synth"],
    }.get(name)


@pytest.mark.parametrize("name", sorted(INTO))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_swapped_field_loads_or_is_named(work, name, data):
    root, docs = work
    path_of = root / f"{name}.json"
    for path, doc, old, new in cases(data, docs[name], INTO[name]):
        if name in LIBRARY:
            try:
                LIBRARY[name](doc)
                exc = None
            except Exception as raised:  # noqa: BLE001 - check_refusal judges the kind
                exc = raised
        else:
            path_of.write_text(json.dumps(doc))
            exc = invoke(argv(name, root, path_of))
        check_refusal(exc, path, old, new)


@pytest.mark.parametrize("name", sorted(set(INTO) - {"network"}))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # a loaded plan may train at any rate
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_a_swapped_field_exits_0_or_1_naming_it(work, name, data):
    root, docs = work
    path_of = root / f"{name}.json"
    for path, doc, old, new in cases(data, docs[name], INTO[name]):
        path_of.write_text(json.dumps(doc))
        code, err = exit_of(argv(name, root, path_of))
        assert code in (0, 1), f"{path} <- {new!r}: exit {code}: {err}"
        if code == 1:
            assert names(path, err), f"{path} <- {new!r}: {err}"


@pytest.mark.parametrize("name", sorted(set(INTO) - {"csp"}))  # csp.json's numbers are projection entries
def test_a_number_no_float_holds_is_named(work, name):
    """Every number field given NaN, ±Infinity or an integer beyond float
    range raises ``DocumentError`` naming it; through the CLI it exits 1."""
    root, docs = work
    path_of = root / f"{name}_non_finite.json"
    numbers = [path for path in field_paths(docs[name], INTO[name])
               if kind_of(swapped(docs[name], path, None)[1]) == "float"]
    for path in numbers:
        for new in NON_FINITE:
            doc = swapped(docs[name], path, new)[0]
            path_of.write_text(json.dumps(doc))
            if name in LIBRARY:
                with pytest.raises(DocumentError) as raised:
                    LIBRARY[name](doc)
                assert names(path, str(raised.value)), f"{path} <- {new!r}: {raised.value}"
            if argv(name, root, path_of) is not None:
                code, err = exit_of(argv(name, root, path_of))
                assert code == 1 and names(path, err), f"{path} <- {new!r}: exit {code}: {err}"


def test_the_written_documents_load_unchanged(work):
    _, docs = work
    spec, params = NetworkParams.from_doc(docs["network"])
    assert params.to_doc(spec) == docs["network"]
    assert MetaScheme.from_doc(docs["scheme"]).to_doc() == docs["scheme"]
    assert json.loads(CspModel.from_json(json.dumps(docs["csp"])).to_json()) == docs["csp"]
    assert ExperimentPlan.from_dict(docs["plan"]).to_dict() == docs["plan"]
    assert ExperimentReport.from_dict(docs["report"]).to_dict() == docs["report"]
    assert {cell: ExperimentReport.from_dict(rep).to_dict() for cell, rep in docs["matrix"].items()} == docs["matrix"]


# Mistyped fields that are named at load instead of failing later with a bare Python error.
TABLE = [
    ("csp", {"m": "1"}, "csp document: field 'm' must be an integer, got str"),
    ("csp", {"num_classes": "2"}, "csp document: field 'num_classes' must be an integer, got str"),
    ("csp", {"filter_order": 2.5}, "csp document: field 'filter_order' must be an integer, got float"),
    ("matrix", {"x": 1}, "matrix report: field 'x' must be a JSON object, got int"),
    ("report", {"runs": 5}, "report: field 'runs' must be a list, got int"),
    ("synth", {"noise_sd": "1"}, "noise_sd must be a number, got '1'"),
    ("synth", {"noise_sd": 10**400}, "noise_sd must be a number that converts to a finite float, "
                                     "got an integer of 401 digits"),
    ("synth", {"noise_sd": float("nan")}, "noise_sd must be a number that converts to a finite float, got nan"),
    ("plan", {"learning_rate": "0.1"}, "learning_rate must be a number, got '0.1'"),
    ("plan", {"bands": 5}, "bands must be a list of (low, high) pairs of numbers, got 5"),
    ("plan", {"test_fraction": "0.2"}, "test_fraction must be a number, got '0.2'"),
    ("plan", {"augment": "A", "augment_config": {"copies_per_epoch": "2"}},
     "copies_per_epoch must be an integer, got '2'"),
]


@pytest.mark.parametrize("name, fields, message", TABLE, ids=[
    "csp-m", "csp-num_classes", "csp-filter_order", "matrix-x", "report-runs", "synth-noise_sd",
    "synth-noise_sd-huge-int", "synth-noise_sd-nan",
    "plan-learning_rate", "plan-bands", "plan-test_fraction", "plan-copies_per_epoch",
])
def test_a_mistyped_field_that_reached_a_bare_python_error_is_named(work, name, fields, message):
    root, docs = work
    path = root / f"table_{name}.json"
    base = {} if name in ("matrix", "report", "synth") else docs[name]
    path.write_text(json.dumps({**base, **fields}))
    code, err = exit_of(argv(name, root, path))
    assert code == 1
    assert f"error: {message}" in err
