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
[0, 1).  "self" and "absorbing" may be omitted.  Keys must be canonical,
spelled exactly as the writers spell them ("0,1", not "0, 1", "+1", "01"
or "1_0"), so that no two keys name one state or class.  load_model checks
the edge list as arrays and raises the fault of the first faulty entry in
file order.

The writers' output equals json.dump(doc, f, indent=2, sort_keys=True)
followed by a newline, byte for byte.
"""

import csv
import gc
import io
import json
import math
from collections.abc import Mapping
from functools import lru_cache
from itertools import chain, count
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from ._spelling import spell
from .errors import DomainError, FormatError, PositivityError, ShapeError
from .lattice import GridShape, edge_columns, in_grid, is_integer
from .model import TransitionModel
from .param import Parametrization

FORMAT_VERSION = 1
EDGE_KEYS = ("from", "to", "prob")
INDENT = "  "  # the writers' layout is json.dump's with indent=2
_CHUNK_VALUES = 1 << 14  # matrix entries spelled per kernel call


def _check_keys(obj, required, optional, what):
    if not isinstance(obj, dict):
        raise FormatError("%s must be an object, got %s" % (what, type(obj).__name__))
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise FormatError("%s has unknown keys: %s" % (what, sorted(unknown)))
    missing = set(required) - set(obj)
    if missing:
        raise FormatError("%s is missing keys: %s" % (what, sorted(missing)))


def _is_int_list(x):
    return isinstance(x, list) and all(is_integer(c) for c in x)


def _finite(x):
    """x as a float if it is a finite JSON number (booleans excluded), else
    NaN."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            d = float(x)
        except OverflowError:  # an integer beyond the double range
            return math.nan
        if math.isfinite(d):
            return d
    return math.nan


def _number(x, what):
    """x as a float, if it is a finite JSON number (booleans excluded)."""
    d = _finite(x)
    if math.isnan(d):
        raise FormatError("%s must be a finite number, got %r" % (what, x))
    return d


def _self_mass(x, what):
    d = _number(x, what)
    if not 0.0 <= d < 1.0:
        raise FormatError("%s %r outside [0, 1)" % (what, x))
    return d


def _check_version(doc, what):
    version = doc.get("format_version")
    if not is_integer(version) or version != FORMAT_VERSION:
        raise FormatError(
            "%s format_version must be %d (got %r)"
            % (what, FORMAT_VERSION, version)
        )


def _load_json(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError("%s is not valid JSON: %s" % (what, exc))
    except UnicodeDecodeError as exc:
        raise FormatError("%s is not UTF-8 text: %s" % (what, exc)) from None
    except RecursionError:
        raise FormatError("%s nests too deeply to parse" % what) from None


def _parse_shape(obj):
    _check_keys(obj, ("q", "dims", "l1", "l2"), (), "shape")
    if not _is_int_list(obj["dims"]):
        raise FormatError("shape dims must be a list of integers")
    if not is_integer(obj["q"]) or obj["q"] != len(obj["dims"]):
        raise FormatError(
            "shape q=%r does not match len(dims)=%d" % (obj["q"], len(obj["dims"]))
        )
    if not is_integer(obj["l1"]) or not is_integer(obj["l2"]):
        raise FormatError("shape l1 and l2 must be integers")
    try:
        return GridShape(tuple(obj["dims"]), obj["l1"], obj["l2"])
    except ShapeError as exc:
        raise FormatError(str(exc)) from exc


def _parse_key(key, what, form):
    """The integers of a comma-joined key spelled exactly as the writers
    spell it, so that no two keys name one state or class."""
    try:
        numbers = tuple(map(int, key.split(",")))
    except ValueError:
        raise FormatError("%s key %r is not %s" % (what, key, form)) from None
    canonical = ",".join(map(str, numbers))
    if key != canonical:
        raise FormatError("%s key %r is not canonical: the writers spell it %r"
                          % (what, key, canonical))
    return numbers


def _parse_state_key(key, q, what):
    u = _parse_key(key, what, "a comma-joined state")
    if len(u) != q:
        raise FormatError("%s key %r has %d coordinates, expected %d"
                          % (what, key, len(u), q))
    return u


def _state_key(u):
    return ",".join(str(c) for c in u)


def _floats(values):
    """values as a float array; NaN where a value is no finite number."""
    if set(map(type, values)) <= {float, int}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the double range
            pass
    return np.fromiter(map(_finite, values), float, len(values))


def _first(bad):
    """The index of the first True in a boolean array, or None."""
    return int(bad.argmax()) if bad.any() else None


def _repeats(columns):
    """Whether each column occurs at an earlier index."""
    repeat = np.ones(len(columns), dtype=bool)
    repeat[np.unique(columns, return_index=True)[1]] = False
    return repeat


def _fields(edges):
    """The from, to and prob lists of the edge entries, or None unless
    every entry is an object with exactly these keys."""
    if (set(map(type, edges)) <= {dict}
            and set(map(len, edges)) <= {len(EDGE_KEYS)}):
        try:
            return [list(map(itemgetter(key), edges)) for key in EDGE_KEYS]
        except KeyError:  # three keys, but not these
            pass
    return None


def _parse_edges(shape, edges):
    """The edge_table column and the probability of every edge entry, in
    file order, as two arrays; load_model hands both to the model, so
    the model looks no key up again.

    Each check runs at once over the first n entries, n the index of the
    first faulty entry found so far, in the per-entry order keys, ends,
    legality, probability type, probability range, duplicates.  So the
    fault raised is the first check that the first faulty entry in file
    order fails.
    """
    n, fault = len(edges), None
    fields = _fields(edges)
    if fields is None:
        keys = set(EDGE_KEYS)
        n = next(i for i, e in enumerate(edges)
                 if type(e) is not dict or e.keys() != keys)
        try:
            _check_keys(edges[n], EDGE_KEYS, (), "edge")
        except FormatError as exc:
            fault = exc
        fields = _fields(edges[:n])
    froms, tos, probs = fields
    coordinates = chain.from_iterable(chain(froms, tos))
    if not (set(map(type, chain(froms, tos))) <= {list}
            and set(map(type, coordinates)) <= {int}):
        n = next(i for i, u, v in zip(count(), froms, tos)
                 if not (_is_int_list(u) and _is_int_list(v)))
        end = "from" if not _is_int_list(froms[n]) else "to"
        fault = FormatError("edge %s must be a list of integers, got %r"
                            % (end, edges[n][end]))
        froms, tos, probs = froms[:n], tos[:n], probs[:n]
    columns = edge_columns(shape, list(zip(froms, tos)))
    p = _floats(probs)
    for bad, message in (
        (lambda: columns[:n] < 0,
         "edge {0}->{1} exits the grid or is not a legal jump"),
        (lambda: ~np.isfinite(p[:n]),
         "edge {0}->{1} probability must be a finite number, got {2!r}"),
        (lambda: ~((p[:n] > 0.0) & (p[:n] <= 1.0)),
         "edge {0}->{1} probability {2!r} outside (0, 1]"),
        (lambda: _repeats(columns[:n]), "duplicate edge {0}->{1}"),
    ):
        i = _first(bad())
        if i is not None:
            n, fault = i, FormatError(message.format(
                tuple(froms[i]), tuple(tos[i]), probs[i]))
    if fault is not None:
        raise fault
    return columns, p


def load_model(path):
    # the parse allocates millions of tracked dicts, lists and tuples at
    # 10^5 states and frees none, so cyclic collection only costs time
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = _load_json(path, "model file")
        _check_keys(doc, ("format_version", "shape", "edges"),
                    ("self", "absorbing"), "model file")
        _check_version(doc, "model file")
        shape = _parse_shape(doc["shape"])
        if not isinstance(doc["edges"], list):
            raise FormatError("model edges must be a list")
        columns, prob = _parse_edges(shape, doc["edges"])
        self_prob = doc.get("self")
        if isinstance(self_prob, dict):
            parsed = {}
            for key, d in self_prob.items():
                u = _parse_state_key(key, shape.q, "self table")
                if not in_grid(shape, u):
                    raise FormatError(
                        "self table state %s is off the grid" % (u,))
                parsed[u] = _self_mass(d, "self mass at %s" % (u,))
            self_prob = parsed
        elif self_prob is not None:
            self_prob = _self_mass(self_prob, "self mass")
        absorbing = doc.get("absorbing", False)
        if not isinstance(absorbing, bool):
            raise FormatError(
                "absorbing must be a boolean, got %r" % (absorbing,))
        return TransitionModel._of_columns(shape, columns, prob, self_prob,
                                           absorbing)
    finally:
        if enabled:
            gc.enable()


def _shape_doc(shape):
    return {"q": shape.q, "dims": list(shape.dims),
            "l1": shape.l1, "l2": shape.l2}


def _dumps(value, depth):
    """value as json.dump(indent=2, sort_keys=True) writes it at nesting
    depth `depth`."""
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + INDENT * depth)


def _numbers(values):
    """The JSON text of every number in `values`, spelled as json spells it
    (NaN and Infinity included): one json.dumps of the list, split at its
    newline separators, which no encoded number contains."""
    text = json.dumps(values, separators=("\n", ":"))[1:-1]
    return text.split("\n") if text else []


def _layout(brackets, items, depth):
    """A JSON array or object at nesting depth `depth` from the JSON text
    of its items, laid out as json.dump(indent=2) lays it out."""
    if not items:
        return brackets
    inner = "\n" + INDENT * (depth + 1)
    return "".join((brackets[0] + inner, ("," + inner).join(items),
                    "\n" + INDENT * depth + brackets[1]))


def _object(members, depth):
    """A JSON object from a map of keys to the JSON text of their values,
    keys sorted as sort_keys sorts them."""
    return _layout("{}", [encode_basestring_ascii(key) + ": " + text
                          for key, text in sorted(members.items())], depth)


def _table(keys, values, depth):
    """A JSON object of numbers, such as the alpha table."""
    return _object(dict(zip(keys, _numbers(list(values)))), depth)


@lru_cache(maxsize=16)
def _edge_template(n_from, n_to):
    """An edge entry whose ends have n_from and n_to coordinates, with a %s
    in place of each number."""
    return _object({"from": _layout("[]", ["%s"] * n_from, 3), "prob": "%s",
                    "to": _layout("[]", ["%s"] * n_to, 3)}, 2)


def _edge_list(probs):
    """The JSON text of the edge list, entries in key order; its working
    lists are freed before the document is written."""
    items = sorted(probs.items())
    template = _layout("[]", [_edge_template(len(u), len(v))
                              for (u, v), _ in items], 1)
    # in the template's order: sort_keys puts "prob" between "from" and "to"
    return template % tuple(
        _numbers([x for (u, v), p in items for x in (*u, p, *v)]))


def _write_doc(path, members):
    with open(path, "w") as f:
        f.write(_object(members, 0))
        f.write("\n")


def save_model(model, path):
    """Write the bytes json.dump(doc, f, indent=2, sort_keys=True) writes,
    then a newline: each edge entry from one template, its numbers from one
    json.dumps of the flat list of them all."""
    self_prob = model.self_prob
    if isinstance(self_prob, Mapping):
        self_text = _table(map(_state_key, self_prob), self_prob.values(), 1)
    else:
        self_text = _dumps(self_prob, 1)
    _write_doc(path, {
        "absorbing": _dumps(model.absorbing, 1),
        "edges": _edge_list(model.probs),
        "format_version": _dumps(FORMAT_VERSION, 1),
        "self": self_text,
        "shape": _dumps(_shape_doc(model.shape), 1),
    })


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
        c = _parse_key(key, "gamma", "'direction,offset,step'")
        if len(c) != 3:
            raise FormatError(
                "gamma key %r is not 'direction,offset,step'" % (key,)
            )
        gamma[c] = _number(g, "gamma %r" % key)
    try:
        return Parametrization(shape, alpha, gamma)
    except (DomainError, PositivityError) as exc:  # alpha or gamma table
        raise FormatError(str(exc)) from exc


def save_params(p, path):
    """Write the bytes json.dump(doc, f, indent=2, sort_keys=True) writes,
    then a newline."""
    _write_doc(path, {
        "alpha": _table(map(_state_key, p.alpha), p.alpha.values(), 1),
        "format_version": _dumps(FORMAT_VERSION, 1),
        "gamma": _table(("%d,%d,%d" % c for c in p.gamma), p.gamma.values(),
                        1),
        "shape": _dumps(_shape_doc(p.shape), 1),
    })


def state_label(u):
    return "(" + ",".join(str(c) for c in u) + ")"


def write_matrix_csv(f, labels, matrix):
    """Matrix as CSV: the header row is `state` then the state label of
    every column, and each row is its state label then its entries as
    "%.17g".  Labels are quoted by `csv` rules, that is in double quotes
    when they contain a comma: `"(0,1)"` but `(0)`.  Rows end in \\r\\n.

    A numpy kernel (`_spelling`) spells 0 and every 2^-30 <= |x| < 1, a
    chunk of rows at a time, and Python's "%.17g" every other value, only
    in the rows that hold one; labels never pass through "%".  Its
    digits are exact: for |x| = m 2^e in decade E, y = |x| 10^(16 - E) =
    m 5^s / 2^sh with sh <= 57, so the wrapping uint64 product m 5^s holds
    floor(y) mod 128 and y's fraction, and a float estimate of y within 32
    of it fixes floor(y) and its half-even rounding.
    """
    cells = io.StringIO()
    csv.writer(cells, lineterminator="\n").writerows(
        [state_label(u)] for u in labels)
    names = cells.getvalue().splitlines()
    f.write(",".join(["state"] + names) + "\r\n")
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    step = max(1, _CHUNK_VALUES // max(1, n_cols))
    for start in range(0, min(n_rows, len(names)), step):
        rows = matrix[start:start + step]
        values = rows.ravel()
        text, lengths, rest = spell(values)
        ends = lengths.reshape(rows.shape).sum(axis=1).cumsum().tolist()
        # row i's values outside are outside[cuts[i]:cuts[i + 1]]
        cuts = np.searchsorted(rest, np.arange(len(rows) + 1) * n_cols)
        cuts, outside = cuts.tolist(), values[rest].tolist()
        f.write("".join(
            name + (text[a:b] % tuple(outside[c:d]) if c < d else text[a:b])
            + "\r\n" for name, a, b, c, d in zip(
                names[start:start + step], [0, *ends], ends, cuts, cuts[1:])))


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

    m is an algebra.Nonzeros.  Writes prefix.txt, prefix.rows.txt and
    prefix.cols.txt; returns the three paths.
    """
    paths = prefix + ".txt", prefix + ".rows.txt", prefix + ".cols.txt"
    lines = (map("%d %d %d\n".__mod__, zip(m.row.tolist(), m.col.tolist(),
                                            m.value.tolist())),
             ("%s\n" % (label,) for label in m.row_labels),
             ("%s\n" % (label,) for label in m.col_labels))
    for path, text in zip(paths, lines):
        with open(path, "w") as f:
            f.writelines(text)
    return paths
