"""Property tests of the loaders on mutated model and parametrization files:
every fault is a FormatError, and the first faulty edge in file order is
the one reported."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbdp import (
    GridShape,
    build_model,
    load_model,
    load_params,
    normalize_stochastic,
    save_model,
    save_params,
)
from gbdp.errors import FormatError
from conftest import make_parametrization

SHAPE = GridShape((2, 1), 1, 1)
# derandomized, so every run checks the same examples
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

# ends that are no edge of SHAPE: off the grid below and above, a jump
# longer than l1, a diagonal, a self-loop, a wrong coordinate count and a
# coordinate beyond the double range
ILLEGAL_ENDS = [([0, 0], [-1, 0]), ([2, 1], [3, 1]), ([0, 0], [2, 0]),
                ([0, 0], [1, 1]), ([1, 1], [1, 1]), ([0, 0], [0, 0, 1]),
                ([0, 0], [10 ** 400, 0])]
NON_FINITE = [math.nan, math.inf, -math.inf, 10 ** 400]
# one value of every JSON type but numbers and booleans
WRONG_TYPES = [None, "0", [], {}, [0], {"0": 0}]


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Valid model and parametrization documents of SHAPE, and a file path
    to write mutants to."""
    tmp = tmp_path_factory.mktemp("fuzz")
    p = make_parametrization(SHAPE, np.random.default_rng(3))
    save_model(build_model(normalize_stochastic(p)), tmp / "model.json")
    save_params(p, tmp / "params.json")
    model, params = (json.loads((tmp / name).read_text())
                     for name in ("model.json", "params.json"))
    model.update(absorbing=True, self={"0,0": 0.25, "1,1": 0.0})
    return model, params, tmp / "mutant.json"


def _walk(doc, path=()):
    """(path, value) of every node below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _walk(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _replace(draw, doc, pick, values):
    """Set one node that `pick` accepts to one of `values`; False if no
    node qualifies."""
    paths = [path for path, value in _walk(doc) if pick(value)]
    if not paths:
        return False
    path = draw(st.sampled_from(paths))
    _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(values))
    return True


def drop_key(draw, doc):
    paths = [path for path, _ in _walk(doc)
             if isinstance(_at(doc, path[:-1]), dict)]
    if paths:
        path = draw(st.sampled_from(paths))
        del _at(doc, path[:-1])[path[-1]]


def wrong_type(draw, doc):
    path = draw(st.sampled_from([path for path, _ in _walk(doc)]))
    value = _at(doc, path)
    _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(
        [w for w in WRONG_TYPES if type(w) is not type(value)]))


def bool_for_int(draw, doc):
    return _replace(draw, doc, _is_int, [True, False])


def non_finite(draw, doc):
    return _replace(draw, doc, lambda x: isinstance(x, float) or _is_int(x),
                    NON_FINITE)


def illegal_edge(draw, doc):
    edges = doc.get("edges")
    if not isinstance(edges, list):
        return False
    u, v = draw(st.sampled_from(ILLEGAL_ENDS))
    edges.insert(draw(st.integers(0, len(edges))),
                 {"from": u, "to": v, "prob": 0.5})
    return True


def duplicate_edge(draw, doc):
    edges = doc.get("edges")
    if not isinstance(edges, list) or not edges:
        return False
    i = draw(st.integers(0, len(edges) - 1))
    edges.insert(draw(st.integers(i + 1, len(edges))), copy.deepcopy(edges[i]))
    return True


@FUZZ
@given(data=st.data())
def test_loaders_raise_only_format_errors(docs, data):
    """Up to two mutations that may keep a file valid, then possibly one
    that never does; nothing but a FormatError may escape the loader."""
    model, params, path = docs
    is_model = data.draw(st.booleans())
    doc = copy.deepcopy(model if is_model else params)
    for _ in range(data.draw(st.integers(0, 2))):
        data.draw(st.sampled_from([drop_key, wrong_type]))(data.draw, doc)
    breakers = [None, bool_for_int, non_finite]
    if is_model:
        breakers += [illegal_edge, duplicate_edge]
    breaker = data.draw(st.sampled_from(breakers))
    broken = breaker is not None and breaker(data.draw, doc)
    path.write_text(json.dumps(doc))
    load = load_model if is_model else load_params
    if broken:
        with pytest.raises(FormatError):
            load(path)
    else:
        try:
            load(path)
        except FormatError:
            pass


def _faulty_entry(draw, edges):
    """A faulty edge entry for SHAPE and the FormatError message that
    reports it; the ends of a legal one are drawn from `edges`."""
    legal = draw(st.sampled_from(edges))
    u, v = tuple(legal["from"]), tuple(legal["to"])
    kind = draw(st.sampled_from(
        ["ends", "range", "number", "missing", "unknown", "bool", "object"]))
    if kind == "ends":
        a, b = draw(st.sampled_from(ILLEGAL_ENDS))
        return ({"from": a, "to": b, "prob": 0.5},
                "edge %s->%s exits the grid or is not a legal jump"
                % (tuple(a), tuple(b)))
    if kind == "range":
        p = draw(st.sampled_from([0.0, -0.25, 1.5, 2]))
        return ({**legal, "prob": p},
                "edge %s->%s probability %r outside (0, 1]" % (u, v, p))
    if kind == "number":
        p = draw(st.sampled_from(NON_FINITE + [True, "0.5", None]))
        return ({**legal, "prob": p},
                "edge %s->%s probability must be a finite number, got %r"
                % (u, v, p))
    if kind == "missing":
        return ({"from": list(u), "to": list(v)},
                "edge is missing keys: ['prob']")
    if kind == "unknown":
        return {**legal, "weight": 1}, "edge has unknown keys: ['weight']"
    if kind == "bool":
        a = [True] + list(u[1:])
        return ({**legal, "from": a},
                "edge from must be a list of integers, got %r" % (a,))
    return 7, "edge must be an object, got int"


@FUZZ
@given(data=st.data())
def test_the_first_faulty_edge_in_file_order_is_reported(docs, data):
    model, _, path = docs
    edges = list(model["edges"])
    faults = [None] * len(edges)  # the message each entry is rejected with
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            entry, message = _faulty_entry(data.draw, model["edges"])
            at = data.draw(st.integers(0, len(edges)))
        else:  # a later copy of a legal entry
            i = data.draw(st.sampled_from(
                [i for i, f in enumerate(faults) if f is None]))
            entry = edges[i]
            message = "duplicate edge %s->%s" % (
                tuple(entry["from"]), tuple(entry["to"]))
            at = data.draw(st.integers(i + 1, len(edges)))
        edges.insert(at, entry)
        faults.insert(at, message)
    path.write_text(json.dumps({**model, "edges": edges}))
    with pytest.raises(FormatError) as exc:
        load_model(path)
    assert str(exc.value) == next(f for f in faults if f is not None)
