"""Strict, versioned JSON file formats plus CSV/triplet writers.

Model files:

    {"format_version": 1,
     "shape": {"q": 2, "dims": [2, 2], "l1": 2, "l2": 2},
     "self": null | 0.1 | {"0,0": 0.1, ...},
     "edges": [{"from": [0, 0], "to": [1, 0], "prob": 0.25}, ...],
     "absorbing": false}

Parametrization files:

    {"format_version": 1,
     "shape": {...},
     "alpha": {"0,0": 1.0, ...},
     "gamma": {"1,0,1": 0.3, ...}}

alpha keys are comma-joined state coordinates; gamma keys are
"direction,offset,step".  Parsing is strict: unknown keys are rejected,
format_version must equal 1, integers must be JSON integers (not booleans),
probabilities and weights must be finite JSON numbers, every edge must be a
legal grid jump with probability in (0, 1], and self masses must lie in
[0, 1).  "self" and "absorbing" may be omitted.
"""

import csv
import io
import json
import math
from collections.abc import Mapping

import numpy as np

from .errors import DomainError, FormatError, PositivityError, ShapeError
from .lattice import GridShape, edge_columns, in_grid
from .model import TransitionModel
from .param import Parametrization

FORMAT_VERSION = 1


def _check_keys(obj, required, optional, what):
    if not isinstance(obj, dict):
        raise FormatError("%s must be an object, got %s" % (what, type(obj).__name__))
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise FormatError("%s has unknown keys: %s" % (what, sorted(unknown)))
    missing = set(required) - set(obj)
    if missing:
        raise FormatError("%s is missing keys: %s" % (what, sorted(missing)))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x):
    return isinstance(x, list) and all(_is_int(c) for c in x)


def _number(x, what):
    """x as a float, if it is a finite JSON number (booleans excluded)."""
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    try:
        finite = number and math.isfinite(x)
    except OverflowError:  # an integer beyond the double range
        finite = False
    if not finite:
        raise FormatError("%s must be a finite number, got %r" % (what, x))
    return float(x)


def _self_mass(x, what):
    d = _number(x, what)
    if not 0.0 <= d < 1.0:
        raise FormatError("%s %r outside [0, 1)" % (what, x))
    return d


def _check_version(doc, what):
    version = doc.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise FormatError(
            "%s format_version must be %d (got %r)"
            % (what, FORMAT_VERSION, version)
        )


def _load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError("%s is not valid JSON: %s" % (what, exc))


def _parse_shape(obj):
    _check_keys(obj, ("q", "dims", "l1", "l2"), (), "shape")
    if not _is_int_list(obj["dims"]):
        raise FormatError("shape dims must be a list of integers")
    if not _is_int(obj["q"]) or obj["q"] != len(obj["dims"]):
        raise FormatError(
            "shape q=%r does not match len(dims)=%d" % (obj["q"], len(obj["dims"]))
        )
    if not _is_int(obj["l1"]) or not _is_int(obj["l2"]):
        raise FormatError("shape l1 and l2 must be integers")
    try:
        return GridShape(tuple(obj["dims"]), obj["l1"], obj["l2"])
    except ShapeError as exc:
        raise FormatError(str(exc)) from exc


def _parse_state_key(key, q, what):
    parts = key.split(",")
    try:
        u = tuple(int(s) for s in parts)
    except ValueError:
        raise FormatError("%s key %r is not a comma-joined state" % (what, key))
    if len(u) != q:
        raise FormatError("%s key %r has %d coordinates, expected %d"
                          % (what, key, len(u), q))
    return u


def _state_key(u):
    return ",".join(str(c) for c in u)


def _edge_ends(entry):
    """(from, to) of an edge entry as tuples, if the entry is well formed."""
    _check_keys(entry, ("from", "to", "prob"), (), "edge")
    for end in ("from", "to"):
        if not _is_int_list(entry[end]):
            raise FormatError(
                "edge %s must be a list of integers, got %r" % (end, entry[end])
            )
    return tuple(entry["from"]), tuple(entry["to"])


def load_model(path):
    doc = _load_json(path, "model file")
    _check_keys(doc, ("format_version", "shape", "edges"),
                ("self", "absorbing"), "model file")
    _check_version(doc, "model file")
    shape = _parse_shape(doc["shape"])
    if not isinstance(doc["edges"], list):
        raise FormatError("model edges must be a list")
    # entries are checked in file order and the first fault is raised;
    # legality is checked for all well-formed leading entries at once
    pairs, fault = [], None
    for entry in doc["edges"]:
        try:
            pairs.append(_edge_ends(entry))
        except FormatError as exc:
            fault = exc
            break
    legal = (edge_columns(shape, pairs) >= 0).tolist()
    probs = {}
    for key, entry, ok in zip(pairs, doc["edges"], legal):
        u, v = key
        if not ok:
            raise FormatError(
                "edge %s->%s exits the grid or is not a legal jump" % (u, v)
            )
        p = _number(entry["prob"], "edge %s->%s probability" % (u, v))
        if not 0.0 < p <= 1.0:
            raise FormatError(
                "edge %s->%s probability %r outside (0, 1]" % (u, v, entry["prob"])
            )
        if key in probs:
            raise FormatError("duplicate edge %s->%s" % (u, v))
        probs[key] = p
    if fault is not None:
        raise fault
    self_prob = doc.get("self")
    if isinstance(self_prob, dict):
        parsed = {}
        for key, d in self_prob.items():
            u = _parse_state_key(key, shape.q, "self table")
            if not in_grid(shape, u):
                raise FormatError("self table state %s is off the grid" % (u,))
            parsed[u] = _self_mass(d, "self mass at %s" % (u,))
        self_prob = parsed
    elif self_prob is not None:
        self_prob = _self_mass(self_prob, "self mass")
    absorbing = doc.get("absorbing", False)
    if not isinstance(absorbing, bool):
        raise FormatError("absorbing must be a boolean, got %r" % (absorbing,))
    return TransitionModel(shape, probs, self_prob, absorbing)


def _shape_doc(shape):
    return {"q": shape.q, "dims": list(shape.dims),
            "l1": shape.l1, "l2": shape.l2}


def save_model(model, path):
    edges = [
        {"from": list(u), "to": list(v), "prob": p}
        for (u, v), p in sorted(model.probs.items())
    ]
    self_prob = model.self_prob
    if isinstance(self_prob, Mapping):
        self_prob = {_state_key(u): d for u, d in sorted(self_prob.items())}
    doc = {
        "format_version": FORMAT_VERSION,
        "shape": _shape_doc(model.shape),
        "self": self_prob,
        "edges": edges,
        "absorbing": model.absorbing,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_params(path):
    doc = _load_json(path, "parametrization file")
    _check_keys(doc, ("format_version", "shape", "alpha", "gamma"), (),
                "parametrization file")
    _check_version(doc, "parametrization file")
    shape = _parse_shape(doc["shape"])
    if not isinstance(doc["alpha"], dict) or not isinstance(doc["gamma"], dict):
        raise FormatError("alpha and gamma must be objects")
    alpha = {
        _parse_state_key(key, shape.q, "alpha"): _number(a, "alpha %r" % key)
        for key, a in doc["alpha"].items()
    }
    gamma = {}
    for key, g in doc["gamma"].items():
        parts = key.split(",")
        try:
            i, r, x = (int(s) for s in parts)
        except ValueError:
            raise FormatError(
                "gamma key %r is not 'direction,offset,step'" % (key,)
            )
        gamma[(i, r, x)] = _number(g, "gamma %r" % key)
    try:
        return Parametrization(shape, alpha, gamma)
    except (DomainError, PositivityError) as exc:  # alpha or gamma table
        raise FormatError(str(exc)) from exc


def save_params(p, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "shape": _shape_doc(p.shape),
        "alpha": {_state_key(u): a for u, a in sorted(p.alpha.items())},
        "gamma": {
            "%d,%d,%d" % c: g for c, g in sorted(p.gamma.items())
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def state_label(u):
    return "(" + ",".join(str(c) for c in u) + ")"


def write_matrix_csv(f, labels, matrix):
    """Matrix as CSV: the header row is `state` then the state label of
    every column, and each row is its state label then its entries as
    "%.17g".  Labels are quoted by `csv` rules, that is in double quotes
    when they contain a comma: `"(0,1)"` but `(0)`.  Rows end in \\r\\n.

    Each label is quoted once and each row is one format call, so the
    per-entry work runs in C; rows are converted one at a time to keep
    the Python floats of only one row alive.
    """
    cells = io.StringIO()
    csv.writer(cells, lineterminator="\n").writerows(
        [state_label(u)] for u in labels)
    names = cells.getvalue().splitlines()
    f.write(",".join(["state"] + names) + "\r\n")
    matrix = np.asarray(matrix)
    row_format = "%s" + ",%.17g" * matrix.shape[1] + "\r\n"
    for name, row in zip(names, matrix):
        f.write(row_format % (name, *row.tolist()))


def write_frequency_csv(f, freqs, trials):
    """CSV of (state, count, frequency), states in label order, sink last."""
    writer = csv.writer(f)
    writer.writerow(["state", "count", "frequency"])
    keyed = sorted(
        (state for state in freqs if state is not None)
    ) + ([None] if None in freqs else [])
    for state in keyed:
        label = "sink" if state is None else state_label(state)
        writer.writerow(
            [label, round(freqs[state] * trials), "%.17g" % freqs[state]]
        )


def dump_int_matrix(m, prefix):
    """Sparse triplet dump `row col value` plus legend sidecars.

    Writes prefix.txt, prefix.rows.txt and prefix.cols.txt; returns the
    three paths.
    """
    triplet_path = prefix + ".txt"
    rows_path = prefix + ".rows.txt"
    cols_path = prefix + ".cols.txt"
    with open(triplet_path, "w") as f:
        nz = m.entries.nonzero()
        for r, c in zip(*nz):
            f.write("%d %d %d\n" % (r, c, m.entries[r, c]))
    with open(rows_path, "w") as f:
        for label in m.row_labels:
            f.write("%s\n" % (label,))
    with open(cols_path, "w") as f:
        for label in m.col_labels:
            f.write("%s\n" % (label,))
    return triplet_path, rows_path, cols_path
