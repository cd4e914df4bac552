"""Reference implementations of production routes: slow (dense N x N, or
one Python object per entry), but written straight from the definitions
they check."""

import json
from collections.abc import Mapping

import numpy as np

from gbdp.commute import DEFAULT_TOL
from gbdp.model import directional_matrix


def commutes_direct(model, i, j, tol=DEFAULT_TOL):
    """(bool, max residual) for max-abs(P_i P_j - P_j P_i) <= tol, from
    the dense directional matrices."""
    model.shape.check_directions(i, j)
    pi = directional_matrix(model, i)
    pj = directional_matrix(model, j)
    residual = float(np.abs(pi @ pj - pj @ pi).max())
    return residual <= tol, residual


def _state_key(u):
    return ",".join(str(c) for c in u)


def _shape_doc(shape):
    return {"q": shape.q, "dims": list(shape.dims),
            "l1": shape.l1, "l2": shape.l2}


def _dump(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def save_model(model, path):
    """fileio.save_model as json.dump of the whole document, one dict per
    edge."""
    edges = [
        {"from": list(u), "to": list(v), "prob": p}
        for (u, v), p in sorted(model.probs.items())
    ]
    self_prob = model.self_prob
    if isinstance(self_prob, Mapping):
        self_prob = {_state_key(u): d for u, d in sorted(self_prob.items())}
    _dump({
        "format_version": 1,
        "shape": _shape_doc(model.shape),
        "self": self_prob,
        "edges": edges,
        "absorbing": model.absorbing,
    }, path)


def save_params(p, path):
    """fileio.save_params as json.dump of the whole document."""
    _dump({
        "format_version": 1,
        "shape": _shape_doc(p.shape),
        "alpha": {_state_key(u): a for u, a in sorted(p.alpha.items())},
        "gamma": {"%d,%d,%d" % c: g for c, g in sorted(p.gamma.items())},
    }, path)
