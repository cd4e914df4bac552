"""JSON round trips, strict parsing, CSV and triplet writers."""

import csv
import gc
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gbdp import (
    GridShape,
    Parametrization,
    TransitionModel,
    build_grid,
    build_model,
    edge_classes,
    k_step,
    load_model,
    load_params,
    normalize_stochastic,
    save_model,
    save_params,
)
from gbdp import fileio
from gbdp.algebra import Nonzeros
from gbdp.errors import FormatError
from gbdp.fileio import (
    dump_int_matrix,
    state_label,
    write_frequency_csv,
    write_matrix_csv,
)
from gbdp.lattice import edge_pairs
from conftest import EXP_SHAPE, SWEEP, make_parametrization


def test_model_round_trip(tmp_path, rng):
    model = build_model(normalize_stochastic(make_parametrization(EXP_SHAPE, rng)))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.shape == model.shape
    assert back.probs == model.probs
    assert back.self_prob is None and back.absorbing is False
    # the loader hands its edge columns to the model
    assert np.array_equal(back.edge_prob, model.edge_prob)
    assert back.illegal == ()


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
    # one entry with two faults: the check that runs first is reported
    ([{"from": [0], "to": [True]}], "edge is missing keys"),
    ([{"from": [True], "to": [3], "prob": 0.5}],
     "edge from must be a list of integers"),
    ([{"from": [0], "to": [3], "prob": "0.5"}], "exits the grid"),
    ([{"from": [0], "to": [1], "prob": 1.5}], "outside \\(0, 1\\]"),
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


@pytest.mark.parametrize("enabled", [False, True])
def test_load_model_leaves_the_callers_gc_setting(tmp_path, enabled):
    """load_model pauses cyclic garbage collection while it parses and
    hands the caller back the setting it found, also when it raises."""
    good, bad = tmp_path / "model.json", tmp_path / "bad.json"
    save_model(TransitionModel(EXP_SHAPE, {((0, 0), (1, 0)): 0.5},
                               absorbing=True), good)
    bad.write_text("{not json")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_model(good).p((0, 0), (1, 0)) == 0.5
        assert gc.isenabled() == enabled
        with pytest.raises(FormatError):
            load_model(bad)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "model file is not UTF-8 text"),
    (b"[" * 100000, "model file nests too deeply to parse"),
], ids=["not-utf8", "deep"])
def test_undecodable_and_deeply_nested_files_are_format_errors(tmp_path, data,
                                                               message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        load_model(path)
    with pytest.raises(FormatError,
                       match=message.replace("model", "parametrization")):
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


def _assert_oracle_bytes(tmp_path, save, oracle, value):
    paths = tmp_path / "fast.json", tmp_path / "oracle.json"
    save(value, paths[0])
    oracle(value, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("shape", SWEEP, ids=str)
def test_writers_write_the_bytes_of_json_dump(tmp_path, rng, shape):
    p = make_parametrization(shape, rng)
    _assert_oracle_bytes(tmp_path, save_params, oracles.save_params, p)
    table = {u: 0.125 * (k % 3) for k, u in enumerate(build_grid(shape).states)}
    for self_prob in (None, 0.25, 0, table):
        for absorbing in (False, True):
            _assert_oracle_bytes(tmp_path, save_model, oracles.save_model,
                                 build_model(p, self_prob, absorbing))


# no edge, the extreme doubles, and values json spells NaN and Infinity
@pytest.mark.parametrize("probs", [[], [5e-324, 1e-300, 1.0 / 3.0, 1.0],
                                   [math.nan, 0.5], [math.inf, -math.inf]])
def test_model_writer_spells_numbers_as_json_does(tmp_path, probs):
    shape = GridShape((2, 2), 1, 1)
    model = TransitionModel(shape, dict(zip(edge_pairs(shape), probs)))
    _assert_oracle_bytes(tmp_path, save_model, oracles.save_model, model)
    if all(0.0 < p <= 1.0 for p in probs):
        back = load_model(tmp_path / "fast.json")
        assert back.probs == model.probs
        assert np.array_equal(back.edge_prob, model.edge_prob)


# a (9,9,9) l=2 model: 10,200 entries, every probability in (0, 1]
CUBE = GridShape((9, 9, 9), 2, 2)
FAULTS = ["missing key", "boolean coordinate", "off grid", "no jump",
          "string probability", "probability above 1", "duplicate"]


@pytest.fixture(scope="module")
def cube_text(tmp_path_factory):
    rng = np.random.default_rng(5)
    p = Parametrization(
        CUBE, {u: float(rng.uniform(1.0, 1.1)) for u in build_grid(CUBE).states},
        {c: float(rng.uniform(0.05, 0.1)) for c in edge_classes(CUBE)})
    path = tmp_path_factory.mktemp("cube") / "model.json"
    save_model(build_model(p, absorbing=True), path)
    return path.read_text()


def _corrupt(edges, at, kind):
    """Give entry `at` the fault `kind`; the message that reports it."""
    entry = edges[at]
    u, v = tuple(entry["from"]), tuple(entry["to"])
    if kind == "missing key":
        del entry["prob"]
        return "edge is missing keys: ['prob']"
    if kind == "boolean coordinate":
        entry["from"][0] = True
        return "edge from must be a list of integers, got %r" % (entry["from"],)
    if kind == "off grid":
        entry["to"][0] = 10
        return ("edge %s->%s exits the grid or is not a legal jump"
                % (u, tuple(entry["to"])))
    if kind == "no jump":
        entry["to"] = list(u)
        return "edge %s->%s exits the grid or is not a legal jump" % (u, u)
    if kind == "string probability":
        entry["prob"] = "0.5"
        return ("edge %s->%s probability must be a finite number, got '0.5'"
                % (u, v))
    if kind == "probability above 1":
        entry["prob"] = 1.5
        return "edge %s->%s probability 1.5 outside (0, 1]" % (u, v)
    edges[at] = dict(edges[0])
    return "duplicate edge %s->%s" % (tuple(edges[0]["from"]),
                                      tuple(edges[0]["to"]))


@pytest.mark.parametrize("kind", FAULTS)
def test_a_fault_deep_in_a_large_file_is_reported(tmp_path, cube_text, kind):
    doc = json.loads(cube_text)
    assert len(doc["edges"]) == 10200
    message = _corrupt(doc["edges"], 5000, kind)
    with pytest.raises(FormatError) as exc:
        load_model(_write(tmp_path, doc))
    assert str(exc.value) == message


# each kind once at either entry; the later entry often fails a check
# that runs before the one the earlier entry fails
@pytest.mark.parametrize("early,late", zip(FAULTS, reversed(FAULTS)))
def test_the_earlier_of_two_faults_is_reported(tmp_path, cube_text, early,
                                               late):
    doc = json.loads(cube_text)
    message = _corrupt(doc["edges"], 3000, early)
    _corrupt(doc["edges"], 5000, late)
    with pytest.raises(FormatError) as exc:
        load_model(_write(tmp_path, doc))
    assert str(exc.value) == message


def _ref_params_doc(tmp_path):
    save_params(make_parametrization(EXP_SHAPE, np.random.default_rng(1)),
                tmp_path / "p.json")
    return json.loads((tmp_path / "p.json").read_text())


def test_a_second_spelling_of_an_alpha_state_is_rejected(tmp_path):
    doc = _ref_params_doc(tmp_path)
    doc["alpha"]["0,0_0"] = 99.0  # int() reads "0_0" as 0
    with pytest.raises(FormatError, match="alpha key '0,0_0' is not canonical"):
        load_params(_write(tmp_path, doc))


def test_a_spaced_alpha_key_is_rejected(tmp_path):
    doc = _ref_params_doc(tmp_path)
    doc["alpha"]["0, 1"] = doc["alpha"].pop("0,1")
    with pytest.raises(FormatError, match="alpha key '0, 1' is not canonical"):
        load_params(_write(tmp_path, doc))


def test_a_second_spelling_of_a_gamma_class_is_rejected(tmp_path):
    doc = _ref_params_doc(tmp_path)
    doc["gamma"]["1, 0, 1 "] = 99.0
    with pytest.raises(FormatError,
                       match="gamma key '1, 0, 1 ' is not canonical"):
        load_params(_write(tmp_path, doc))


@pytest.mark.parametrize("key", [" 1", "+1", "01", "1_0", "-0"])
def test_self_table_keys_must_be_canonical(tmp_path, key):
    doc = _base_doc()
    doc["self"] = {"0": 0.25, key: 0.5}
    message = "self table key %r is not canonical" % key
    with pytest.raises(FormatError, match=re.escape(message)):
        load_model(_write(tmp_path, doc))


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


def _both_csv(tmp_path, labels, matrix):
    """The bytes of write_matrix_csv and of the per-entry oracle."""
    paths = tmp_path / "fast.csv", tmp_path / "oracle.csv"
    for path, write in zip(paths, (write_matrix_csv, oracle_matrix_csv)):
        with open(path, "w", newline="") as f:
            write(f, labels, matrix)
    return tuple(path.read_bytes() for path in paths)


@pytest.mark.parametrize("dims, l, k", [
    ((3,), 1, None), ((2, 1), 1, None), ((1, 1, 1), 1, None),
    ((5, 5, 5), 2, 30), ((5, 5, 5), 2, 0), ((12, 12), 4, 30),
    ((12, 12), 4, 0), ((9, 9, 9), 2, 30),
], ids=["dims0", "dims1", "dims2", "kstep-5x5x5-k30", "kstep-5x5x5-k0",
        "kstep-12x12-k30", "kstep-12x12-k0", "kstep-9x9x9-k30"])
def test_matrix_csv_bytes_equal_the_per_entry_csv_writer(tmp_path, rng, dims,
                                                         l, k):
    shape = GridShape(dims, l, l)
    labels = build_grid(shape).states
    if k is None:  # every "%.17g" form
        matrix = np.resize([x for x, _ in CSV_ENTRIES], (len(labels),) * 2)
    else:
        matrix = k_step(normalize_stochastic(make_parametrization(shape, rng)),
                        k)
    fast, oracle = _both_csv(tmp_path, labels, matrix)
    assert fast == oracle
    assert fast.count(b"\r\n") == fast.count(b"\n") == len(labels) + 1
    assert (b'"' in fast) == (len(dims) > 1)  # labels with a comma
    if k is None:
        rows = list(csv.reader(io.StringIO(fast.decode(), newline="")))
        assert {text for _, text in CSV_ENTRIES} <= {
            cell for row in rows[1:] for cell in row[1:]}


# values the kernel leaves to Python's "%.17g": |x| >= 1, 0 < |x| < 2^-30
OUTSIDE = [1.0, -1.5, 2.5e17, 1e-300, -5e-324, 2.0 ** -31, math.inf,
           -math.inf, math.nan]


def test_matrix_csv_fills_the_outside_fields_of_each_row(tmp_path):
    """Over a layout of several chunks, rows with every value outside the
    kernel's domain, with none, and with one at either end each get
    their own values in their own order."""
    n_cols = 5000
    assert 3 * n_cols <= fileio._CHUNK_VALUES < 4 * n_cols  # 3 rows a chunk
    labels = build_grid(GridShape((3, 1), 1, 1)).states
    rng = np.random.default_rng(24)
    matrix = rng.uniform(-1.0, 1.0, (len(labels), n_cols))
    matrix[3] = np.resize(OUTSIDE, n_cols)  # the first row of a chunk
    matrix[5, [0, -1]] = 1.25, -3e-40  # the last row of a chunk
    matrix[6, [0, 1, -1]] = OUTSIDE[-3:]  # the first row of the last
    matrix[7, rng.choice(n_cols, 50, replace=False)] = rng.choice(OUTSIDE, 50)
    fast, oracle = _both_csv(tmp_path, labels, matrix)
    assert fast == oracle
    rows = fast.decode().split("\r\n")
    assert rows[4].startswith(
        '"(1,1)",1,-1.5,2.5e+17,1e-300,-4.9406564584124654e-324,'
        '4.6566128730773926e-10,inf,-inf,nan,1,')
    assert rows[6].startswith('"(2,1)",1.25,')
    assert rows[6].endswith(",-3.0000000000000002e-40")


def test_matrix_csv_spells_rows_longer_than_a_chunk(tmp_path):
    # every row exceeds a chunk, so each chunk is one row
    n_cols = 16400
    assert n_cols > fileio._CHUNK_VALUES
    matrix = np.random.default_rng(16400).uniform(-1.0, 1.0, (2, n_cols))
    matrix[0, [0, 7, -1]] = OUTSIDE[:3]
    matrix[1, n_cols // 2:] = 1.5 * np.arange(1, n_cols - n_cols // 2 + 1)
    fast, oracle = _both_csv(tmp_path, [(0,), (1,)], matrix)
    assert fast == oracle


def _entries(values):
    """The entries write_matrix_csv writes for one row of values, and
    "%.17g" of each value."""
    buf = io.StringIO()
    write_matrix_csv(buf, [(0,)], np.array([values], dtype=float))
    header, row, end = buf.getvalue().split("\r\n")
    assert (header, end) == ("state,(0)", "")
    return row.split(",")[1:], ["%.17g" % x for x in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(),
                          st.floats(-1.0, 1.0, exclude_min=True,
                                    exclude_max=True)),
                min_size=1, max_size=40))
def test_matrix_csv_spells_every_float_as_percent_17g(values):
    written, expected = _entries(values)
    assert written == expected


def _ulps_around(x, n):
    """The 2n + 1 doubles from n ulps below x to n ulps above."""
    return (np.float64(x).view(np.int64)
            + np.arange(-n, n + 1)).view(np.float64)


# the kernel spells 0 and 2^-30 <= |x| < 1; Python spells the rest
KERNEL_SWEEPS = {
    "powers of ten": np.concatenate(
        [_ulps_around(10.0 ** k, 2000) for k in range(-10, 1)]),
    "ties": np.concatenate(
        [np.arange(1, 5000, 2) * 2.0 ** -j for j in range(15, 64)]),
    "domain ends": np.concatenate(
        [_ulps_around(2.0 ** -30, 50), _ulps_around(1.0, 50), [0.0]]),
}


@pytest.mark.parametrize("name", KERNEL_SWEEPS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_matrix_csv_sweeps_equal_percent_17g(name, sign):
    written, expected = _entries(sign * KERNEL_SWEEPS[name])
    assert written == expected


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
    # the nonzeros of [[0, 2], [-1, 0]], row-major
    m = Nonzeros(np.array([0, 1]), np.array([1, 0]), np.array([2, -1]),
                 ["r0", "r1"], ["c0", "c1"])
    paths = dump_int_matrix(m, str(tmp_path / "mat"))
    triplets, rows, cols = (Path(p).read_text() for p in paths)
    assert triplets == "0 1 2\n1 0 -1\n"
    assert rows == "r0\nr1\n"
    assert cols == "c0\nc1\n"
