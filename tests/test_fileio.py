"""JSON round trips, strict parsing, CSV and triplet writers."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from gbdp import (
    GridShape,
    IntMatrix,
    TransitionModel,
    build_grid,
    build_model,
    load_model,
    load_params,
    normalize_stochastic,
    save_model,
    save_params,
)
from gbdp.errors import FormatError
from gbdp.fileio import (
    dump_int_matrix,
    state_label,
    write_frequency_csv,
    write_matrix_csv,
)
from conftest import EXP_SHAPE, make_parametrization


def test_model_round_trip(tmp_path, rng):
    model = build_model(normalize_stochastic(make_parametrization(EXP_SHAPE, rng)))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.shape == model.shape
    assert back.probs == model.probs
    assert back.self_prob is None and back.absorbing is False


def test_model_round_trip_keeps_self_table_and_absorbing(tmp_path):
    model = TransitionModel(
        GridShape((1,), 1, 1),
        {((0,), (1,)): 0.5},
        self_prob={(0,): 0.25, (1,): 0.0},
        absorbing=True,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.self_prob == {(0,): 0.25, (1,): 0.0}
    assert back.absorbing is True


def test_params_round_trip(tmp_path, rng):
    p = make_parametrization(EXP_SHAPE, rng)
    path = tmp_path / "params.json"
    save_params(p, path)
    back = load_params(path)
    assert back.shape == p.shape
    assert back.alpha == p.alpha
    assert back.gamma == p.gamma
    assert build_model(back).probs == build_model(p).probs


def _base_doc():
    return {
        "format_version": 1,
        "shape": {"q": 1, "dims": [1], "l1": 1, "l2": 1},
        "edges": [{"from": [0], "to": [1], "prob": 0.5}],
    }


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(extra=1), "unknown keys"),
    (lambda d: d.pop("edges"), "missing keys"),
    (lambda d: d.update(format_version=2), "format_version must be 1"),
    (lambda d: d["shape"].update(q=2), "does not match len"),
    (lambda d: d["shape"].update(dims=[1.5]), "list of integers"),
    (lambda d: d["shape"].update(l1="1"), "must be integers"),
    (lambda d: d.update(edges={}), "must be a list"),
    (lambda d: d["edges"].append({"from": [0], "to": [3], "prob": 0.5}),
     "exits the grid"),
    (lambda d: d["edges"].append({"from": [0], "to": [0], "prob": 0.5}),
     "not a legal jump"),
    (lambda d: d["edges"].append({"from": [1], "to": [0], "prob": 0.0}),
     "outside \\(0, 1\\]"),
    (lambda d: d["edges"].append({"from": [1], "to": [0], "prob": 1.5}),
     "outside \\(0, 1\\]"),
    (lambda d: d["edges"].append({"from": [0], "to": [1], "prob": 0.4}),
     "duplicate edge"),
    (lambda d: d["edges"].__setitem__(0, {"from": [0], "prob": 0.5}),
     "missing keys"),
    (lambda d: d.update(self={"7": 0.1}), "off the grid"),
    (lambda d: d.update(self={"a": 0.1}), "not a comma-joined state"),
    (lambda d: d.update(self={"0,0": 0.1}), "expected 1"),
    (lambda d: d.update(absorbing="yes"), "must be a boolean"),
    (lambda d: d.update(format_version=True),
     "format_version must be 1 \\(got True\\)"),
    (lambda d: d["shape"].update(q=True), "q=True does not match"),
    (lambda d: d["shape"].update(dims=[True]),
     "dims must be a list of integers"),
    (lambda d: d["shape"].update(l1=True), "l1 and l2 must be integers"),
    (lambda d: d["shape"].update(l1=2), "max\\(l1, l2\\) <= min\\(dims\\)"),
    (lambda d: d["shape"].update(dims=[10 ** 400]),
     "prod\\(n_i \\+ 1\\) < 2\\^63"),
    (lambda d: d["edges"][0].update({"from": [False]}),
     "edge from must be a list of integers"),
    (lambda d: d["edges"][0].update(to=[True]),
     "edge to must be a list of integers"),
    (lambda d: d["edges"][0].update(prob="0.5"),
     "probability must be a finite number, got '0.5'"),
    (lambda d: d["edges"][0].update(prob=True),
     "probability must be a finite number, got True"),
    (lambda d: d.update(self=5.0), "self mass 5.0 outside \\[0, 1\\)"),
    (lambda d: d.update(self=-0.1), "self mass -0.1 outside \\[0, 1\\)"),
    (lambda d: d.update(self=1), "self mass 1 outside \\[0, 1\\)"),
    (lambda d: d.update(self="0.1"), "self mass must be a finite number"),
    (lambda d: d.update(self={"0": 5.0}),
     "self mass at \\(0,\\) 5.0 outside"),
    (lambda d: d.update(self={"1": True}),
     "self mass at \\(1,\\) must be a finite number"),
])
def test_model_files_are_parsed_strictly(tmp_path, mutate, message):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(FormatError, match=message):
        load_model(_write(tmp_path, doc))


@pytest.mark.parametrize("entries,message", [
    ([{"from": [0], "to": [1]}, {"from": [1], "to": [3], "prob": 0.5}],
     "edge is missing keys"),
    ([{"from": [1], "to": [3], "prob": 0.5}, {"from": [0], "to": [1]}],
     "exits the grid"),
    ([{"from": [1], "to": [0], "prob": 2.0}, {"from": [0], "to": [True],
                                               "prob": 0.5}],
     "outside \\(0, 1\\]"),
    ([{"from": [0], "to": [True], "prob": 0.5},
      {"from": [1], "to": [0], "prob": 2.0}, {"from": [0], "prob": 0.5}],
     "edge to must be a list of integers"),
    ([{"from": [0], "to": [10 ** 400], "prob": 0.5}], "exits the grid"),
])
def test_the_first_faulty_edge_entry_is_reported(tmp_path, entries, message):
    doc = _base_doc()
    doc["edges"] = [{"from": [0], "to": [1], "prob": 0.5}] + entries
    with pytest.raises(FormatError, match=message):
        load_model(_write(tmp_path, doc))


def test_shapes_beyond_the_edge_table_are_format_errors(tmp_path):
    shape = {"q": 2, "dims": [2 ** 31, 2 ** 31], "l1": 1, "l2": 1}
    model = {"format_version": 1, "shape": shape, "edges": []}
    params = {"format_version": 1, "shape": shape, "alpha": {}, "gamma": {}}
    with pytest.raises(FormatError, match="edge table"):
        load_model(_write(tmp_path, model))
    with pytest.raises(FormatError, match="edge table"):
        load_params(_write(tmp_path, params))


def test_malformed_json_is_reported(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_model(path)
    with pytest.raises(FormatError, match="not valid JSON"):
        load_params(path)


def test_params_files_are_parsed_strictly(tmp_path, rng):
    save_params(make_parametrization(GridShape((1,), 1, 1), rng),
                tmp_path / "p.json")
    doc = json.loads((tmp_path / "p.json").read_text())
    for mutate, message in [
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.update(gamma={"1,0": 0.5}), "direction,offset,step"),
        (lambda d: d.update(alpha={"0": 1.0, "x": 1.0}),
         "not a comma-joined state"),
        (lambda d: d.update(alpha=[]), "must be objects"),
        (lambda d: d["alpha"].pop("1"),
         "alpha missing entry for state \\(1,\\)"),
        (lambda d: d["alpha"].update({"2": 1.0}), "off-grid states"),
        (lambda d: d["alpha"].update({"1": -1.0}),
         "must be strictly positive"),
        (lambda d: d["gamma"].update({"1,0,1": -0.5}), "must be non-negative"),
        (lambda d: d.update(format_version=True), "format_version must be 1"),
        (lambda d: d["shape"].update(dims=[True]), "list of integers"),
        (lambda d: d["alpha"].update({"0": "1.0"}),
         "alpha '0' must be a finite number"),
        (lambda d: d["alpha"].update({"1": True}),
         "alpha '1' must be a finite number"),
        (lambda d: d["gamma"].update({"1,0,1": "0.5"}),
         "gamma '1,0,1' must be a finite number"),
        (lambda d: d["gamma"].update({"1,0,1": False}),
         "gamma '1,0,1' must be a finite number"),
    ]:
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        with pytest.raises(FormatError, match=message):
            load_params(_write(tmp_path, bad))


def test_matrix_csv_layout():
    buf = io.StringIO()
    labels = [(0,), (1,)]
    write_matrix_csv(buf, labels, np.array([[0.25, 0.75], [1.0 / 3.0, 0.5]]))
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "state,(0),(1)"
    assert lines[1] == "(0),0.25,0.75"
    assert lines[2].startswith("(1),0.3333333333333333")
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


def oracle_matrix_csv(f, labels, matrix):
    """The matrix writer as one csv.writer row and one "%.17g" call per
    entry: slow, but csv quoting and row ends come straight from csv."""
    writer = csv.writer(f)
    writer.writerow(["state"] + [state_label(u) for u in labels])
    for u, row in zip(labels, matrix):
        writer.writerow([state_label(u)] + ["%.17g" % x for x in row])


# one entry per "%.17g" form: both zeros, a round-off below zero, the
# exponent forms below 1e-4 and beyond 1e17, and a full 17-digit mantissa
CSV_ENTRIES = [(0.0, "0"), (-0.0, "-0"), (1.0, "1"),
               (-2.7755575615628914e-17, "-2.7755575615628914e-17"),
               (3.5e-05, "3.4999999999999997e-05"), (2.5e17, "2.5e+17"),
               (1.0 / 3.0, "0.33333333333333331")]


@pytest.mark.parametrize("dims", [(3,), (2, 1), (1, 1, 1)])
def test_matrix_csv_bytes_equal_the_per_entry_csv_writer(tmp_path, dims):
    labels = build_grid(GridShape(dims, 1, 1)).states
    matrix = np.resize([x for x, _ in CSV_ENTRIES], (len(labels),) * 2)
    paths = tmp_path / "fast.csv", tmp_path / "oracle.csv"
    for path, write in zip(paths, (write_matrix_csv, oracle_matrix_csv)):
        with open(path, "w", newline="") as f:
            write(f, labels, matrix)
    fast, oracle = (path.read_bytes() for path in paths)
    assert fast == oracle
    assert fast.count(b"\r\n") == fast.count(b"\n") == len(labels) + 1
    assert (b'"' in fast) == (len(dims) > 1)  # labels with a comma
    rows = list(csv.reader(io.StringIO(fast.decode(), newline="")))
    assert {text for _, text in CSV_ENTRIES} <= {
        cell for row in rows[1:] for cell in row[1:]}


def test_frequency_csv_puts_the_sink_last():
    buf = io.StringIO()
    write_frequency_csv(buf, {(1, 0): 0.25, None: 0.05, (0, 0): 0.7}, 200)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "state,count,frequency"
    assert lines[1] == '"(0,0)",140,0.69999999999999996'
    assert lines[2].startswith('"(1,0)",50,')
    assert lines[3].startswith("sink,10,")


def test_state_label_format():
    assert state_label((0,)) == "(0)"
    assert state_label((2, 0, 1)) == "(2,0,1)"


def test_int_matrix_triplet_dump(tmp_path):
    m = IntMatrix(np.array([[0, 2], [-1, 0]]), ["r0", "r1"], ["c0", "c1"])
    paths = dump_int_matrix(m, str(tmp_path / "mat"))
    triplets, rows, cols = (Path(p).read_text() for p in paths)
    assert triplets == "0 1 2\n1 0 -1\n"
    assert rows == "r0\nr1\n"
    assert cols == "c0\nc1\n"
