"""The document layer, and every input document read through it.

The mutation test puts a value of each wrong JSON kind at every key path
of a valid dataset header, checkpoint and run report (and the first
element of each list), and requires `sospec eval` or `sospec report` to
exit 1 naming the file.
"""

import ast
import copy
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sospec import data, fields, model
from sospec.cli import _REPORT_METRICS, main
from sospec.train import TrainConfig


class TestRead:
    @pytest.mark.parametrize("kind, good, bad", [
        (int, [0, 7, 2**63 - 1], [True, -1, 2**63, 10**400, 0.5, "1", [1], {}]),
        (float, [0, -2.5, 1e308, 10**300], [True, 10**400, float("nan"), float("inf"), "1"]),
        (bool, [True, False], [0, 1, "false", None]),
        (str, ["", "abc"], [1, True, ["abc"]]),
        (("regression", "binary"), ["binary"], ["abc", True, ["binary"]]),
        (dict, [{}, {"a": 1}], [[], "abc", 1]),
        (list, [[], [1, "a"]], [{}, "abc", 1]),
    ])
    def test_kinds(self, kind, good, bad):
        for value in good:
            assert fields.read({"k": value}, "k", kind, "f: doc") is value
        for value in bad:
            with pytest.raises(ValueError, match=r"^f: doc k is not "):
                fields.read({"k": value}, "k", kind, "f: doc")

    def test_arrays(self):
        got = fields.read({"k": [[1, 2.5], [0, -3]]}, "k", fields.Array(2), "f: doc")
        assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.5], [0.0, -3.0]]
        assert fields.read({"k": []}, "k", fields.Array(1), "f: doc").shape == (0,)
        for bad in ([1, 2], [[1, 2], [3]], [[1, True]], [[1, "2"]], [[1, None]],
                    [[1, 10**400]], [[1, float("nan")]], [[1, [2]]], {"a": 1}, 3):
            with pytest.raises(ValueError, match="^f: doc k is not a 2-d array of finite numbers$"):
                fields.read({"k": bad}, "k", fields.Array(2), "f: doc")

    def test_missing_null_and_default(self):
        with pytest.raises(ValueError, match="^f: doc has no 'k'$"):
            fields.read({}, "k", int, "f: doc")
        assert fields.read({}, "k", int, "f: doc", 3) == 3
        assert fields.read({"k": None}, "k", dict, "f: doc", None) is None
        with pytest.raises(ValueError, match="^f: doc k is not true or false$"):
            fields.read({"k": None}, "k", bool, "f: doc", False)
        with pytest.raises(ValueError, match="^f: doc is not a JSON object$"):
            fields.read([1], "k", int, "f: doc")


# -- every input document ---------------------------------------------------



class TestLoad:
    def test_a_document(self):
        assert fields.load(b'{"a": [1, 2.5]}\n', "f.json") == {"a": [1, 2.5]}

    @pytest.mark.parametrize("lineno, prefix", [(None, "f.json: invalid JSON ("),
                                                (7, "f.json: line 7: invalid JSON (")])
    def test_invalid_json_names_the_file_and_line(self, lineno, prefix):
        with pytest.raises(ValueError) as err:
            fields.load(b'{"a": }', "f.json", lineno)
        assert str(err.value).startswith(prefix + "Expecting value: line 1 column 7")
        assert not isinstance(err.value, json.JSONDecodeError)

    def test_bytes_that_are_not_utf8_name_the_line(self):
        with pytest.raises(ValueError, match=r"^f.json: line 8: byte 2 is not UTF-8"):
            fields.load(b'{\n"\xff": 1}', "f.json", 7)


def _writes_a_file(call):
    """Whether the call `call` opens a file for writing (any `open` without
    a constant read-only mode, and every `os.open`) or calls write_text or
    write_bytes."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    at = 0 if isinstance(func, ast.Attribute) else 1  # Path.open(mode), open(file, mode)
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    mode = call.args[at] if len(call.args) > at else (modes or [ast.Constant("r")])[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wxa+"))


def test_only_fields_writes_files_and_names_invalid_json():
    found = []
    for module in sorted(Path(fields.__file__).parent.glob("*.py")):
        if module.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _writes_a_file(node):
                found.append(f"{module.name}:{node.lineno} writes a file")
            if isinstance(node, ast.Attribute) and node.attr == "JSONDecodeError":
                found.append(f"{module.name}:{node.lineno} handles JSONDecodeError")
    assert not found


def _write_inputs(folder):
    """A 4-d dataset and an untrained checkpoint of its shape, which
    `sospec eval` accepts; returns their paths."""
    cf = data.synth_generator(4, 3, (1.0, -1.0), "rational")
    dataset = folder / "ds.jsonl"
    data.save_dataset(data.synth_invariant_regression(cf, 40, 0.1, seed=3), dataset)
    checkpoint = folder / "ckpt.json"
    config = {**dataclasses.asdict(TrainConfig(bandwidth=1)), "resolvedLoss": "squared-error"}
    model.save_checkpoint(model.init_params(4, 1, hidden=8, seed=0), checkpoint, config=config)
    return dataset, checkpoint


def _key_paths(value, path=()):
    """`path` and the key paths below it: every key of an object, and the
    first element of a list."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _key_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from _key_paths(value[0], path + (0,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


WRONG = {"null": None, "bool": True, "number": 0.5, "string": "abc", "list": [1],
         "object": {"a": 1}, "huge": 10**400}
# the one wrong kind each kind of field lets through
VALID = {"int": None, "number": "number", "bool": "bool", "str": "string", "choice": None,
         "list": "list", "dict": "object"}
# the fields `sospec report` reads, and where null means absent
REPORT_PATHS = [(), ("task",), ("failureReason",)] + [(key,) for key in _REPORT_METRICS]
NULLABLE = {("dataset", ("meta", "trueGenerator")), ("dataset", ("meta", "trueLambda"))} | {
    ("report", path) for path in REPORT_PATHS[2:]
}


def _kind(document, path, value):
    if document == "report":
        return "dict" if not path else "str" if path[0] in ("task", "failureReason") else "number"
    if path[-1:] in (("outputKind",), ("lossKind",)):
        return "choice"
    if type(value) in (int, float):
        # a number in a list is an array cell, which may be either
        return "int" if type(value) is int and not isinstance(path[-1], int) else "number"
    return {bool: "bool", str: "str", list: "list", dict: "dict"}[type(value)]


def _cases():
    with tempfile.TemporaryDirectory() as folder:
        dataset, checkpoint = _write_inputs(Path(folder))
        docs = {
            "dataset": json.loads(dataset.read_text().split("\n", 1)[0]),
            "checkpoint": json.loads(checkpoint.read_text()),
        }
    paths = [(name, path) for name, doc in docs.items() for path in _key_paths(doc)]
    # nothing reads resolvedLoss, which the report echoes
    paths.remove(("checkpoint", ("config", "resolvedLoss")))
    cases = []
    for name, path in paths + [("report", path) for path in REPORT_PATHS]:
        kind = _kind(name, path, None if name == "report" else _at(docs[name], path))
        for label in WRONG:
            if label != VALID[kind] and not (label == "null" and (name, path) in NULLABLE):
                where = ".".join(map(str, path)) or "root"
                cases.append(pytest.param(name, path, label, id=f"{name}-{where}-{label}"))
    return cases


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(dataset, checkpoint, run report) that `sospec eval` and `sospec
    report` accept."""
    folder = tmp_path_factory.mktemp("inputs")
    dataset, checkpoint = _write_inputs(folder)
    report = folder / "run.report.json"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                 "--out", str(report)]) == 0
    return dataset, checkpoint, report


def test_valid_inputs_pass(inputs, tmp_path):
    dataset, checkpoint, report = inputs
    (tmp_path / "run.report.json").write_bytes(report.read_bytes())
    assert main(["report", "--dir", str(tmp_path)]) == 0
    assert json.loads(report.read_text())["cosineSimilarity"] is not None


@pytest.mark.parametrize("document, path, label", _cases())
def test_wrong_kind_exits_one_naming_the_file(inputs, tmp_path, capsys, document, path, label):
    dataset, checkpoint, report = inputs
    source = {"dataset": dataset, "checkpoint": checkpoint, "report": report}[document]
    lines = source.read_text().split("\n", 1)
    doc = json.loads(lines[0])
    if path:
        _at(doc, path[:-1])[path[-1]] = copy.deepcopy(WRONG[label])
    else:
        doc = WRONG[label]
    bad = tmp_path / ("bad.report.json" if document == "report" else f"bad{source.suffix}")
    bad.write_text("\n".join([json.dumps(doc)] + lines[1:]))
    if document == "report":
        argv = ["report", "--dir", str(tmp_path)]
    else:
        given = {"dataset": dataset, "checkpoint": checkpoint, document: bad}
        argv = ["eval", "--checkpoint", str(given["checkpoint"]), "--data", str(given["dataset"]),
                "--out", str(tmp_path / "eval.json")]
    assert main(argv) == 1
    assert f"error: {bad}: " in capsys.readouterr().err


def test_every_written_key_is_read(inputs, tmp_path, monkeypatch):
    """A key the writers add is read, and so checked, on load."""
    dataset, checkpoint, _ = inputs
    reads = {}
    read = fields.read

    def recording(doc, key, kind, where, *default):
        reads.setdefault(where, set()).add(key)
        return read(doc, key, kind, where, *default)

    monkeypatch.setattr(fields, "read", recording)
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                 "--out", str(tmp_path / "eval.json")]) == 0
    written = json.loads(checkpoint.read_text())
    meta = json.loads(dataset.read_text().split("\n", 1)[0])["meta"]
    assert reads == {
        f"{checkpoint}: checkpoint": set(written),
        **{f"{checkpoint}: checkpoint layers[{i}]": set(layer)
           for i, layer in enumerate(written["layers"])},
        f"{checkpoint}: checkpoint config": {f.name for f in dataclasses.fields(TrainConfig)},
        f"{dataset}: line 1: header": {"meta"},
        f"{dataset}: line 1: meta header": set(meta),
        f"{dataset}: line 1: meta header trueGenerator": set(meta["trueGenerator"]),
    }


@pytest.mark.parametrize("line, found", [
    ('{"x": [1, 2, 3, 4]}', "line 3: sample has no 'y'"),
    ('{"x": 1, "y": [0.5]}', "line 3: sample x is not a list"),
    ("[1]", "line 3: sample is not a JSON object"),
])
def test_sample_line_of_the_wrong_kind_names_the_line(inputs, tmp_path, line, found):
    lines = inputs[0].read_text().split("\n")
    lines[2] = line
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{bad}: {found}')}$"):
        data.load_dataset(bad)


def test_header_declaring_more_rows_than_the_file_holds_allocates_nothing(inputs, tmp_path,
                                                                           monkeypatch):
    lines = inputs[0].read_text().split("\n")
    header = json.loads(lines[0])
    header["meta"]["nSamples"] = 10**12
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]))
    monkeypatch.setattr(np, "empty", None)  # any allocation would raise a TypeError
    found = f"{bad}: line 1: meta header nSamples={10**12} is more rows than the file has"
    with pytest.raises(ValueError, match=f"^{re.escape(found)}$"):
        data.load_dataset(bad)
