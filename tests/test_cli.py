"""End-to-end command-line checks, mostly in-process."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbdp import (
    GridShape,
    TransitionModel,
    build_model,
    directed_edges,
    full_matrix,
    matrix_power,
    normalize_stochastic,
    save_model,
    save_params,
)
from gbdp import algebra, cli, commute, model
from gbdp.cli import main
import oracles
from conftest import EXP_SHAPE, make_parametrization, one_more_free


@pytest.fixture
def stoch_params(tmp_path, rng):
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng))
    path = tmp_path / "params.json"
    save_params(p, path)
    return p, str(path)


@pytest.fixture
def good_model(tmp_path, stoch_params):
    p, _ = stoch_params
    path = tmp_path / "model.json"
    save_model(build_model(p), path)
    return str(path)


@pytest.fixture
def bad_model(tmp_path, stoch_params):
    p, _ = stoch_params
    model = build_model(p)
    probs = dict(model.probs)
    probs[((0, 0), (1, 0))] *= 0.5
    path = tmp_path / "bad_model.json"
    save_model(TransitionModel(model.shape, probs), path)
    return str(path)


def read_matrix_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return np.array([[float(x) for x in row[1:]] for row in rows[1:]])


def test_check_commute_affirms_a_commuting_model(good_model, capsys):
    assert main(["check-commute", "--model", good_model]) == 0
    out = capsys.readouterr().out
    assert "pair (1,2): commutator residual" in out
    assert "[commute]" in out and "FAIL" not in out


def test_check_commute_flags_a_broken_model(bad_model, capsys):
    assert main(["check-commute", "--model", bad_model]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "violated: family" in out


def test_check_commute_tolerance_sources(bad_model):
    assert main(["check-commute", "--model", bad_model, "--tol", "1.0"]) == 0
    assert main(["check-commute", "--model", bad_model,
                 "--tol", "1e-12"]) == 1
    assert main(["check-commute", "--model", bad_model]) == 1


@pytest.mark.parametrize("value", ["abc", "-1e-9", "-1", "nan", "inf"])
def test_a_malformed_tolerance_variable_is_an_input_error(
    good_model, capsys, value
):
    with pytest.raises(SystemExit) as exc:
        main(["check-commute", "--model", good_model, "--tol=" + value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --tol:" in err and repr(value) in err


def test_check_commute_is_vacuous_in_one_dimension(tmp_path, capsys):
    model = TransitionModel(
        GridShape((1,), 1, 1),
        {((0,), (1,)): 0.6, ((1,), (0,)): 0.4},
        self_prob={(0,): 0.4, (1,): 0.6},
    )
    path = tmp_path / "chain.json"
    save_model(model, path)
    assert main(["check-commute", "--model", str(path)]) == 0
    assert "vacuous" in capsys.readouterr().out


CHECK_COMMUTE_OUT = {
    1.0: "pair (1,2): commutator residual 0.000e+00, "
         "max constraint residual 0.000e+00 [commute]\n",
    1.5: "pair (1,2): commutator residual 1.250e-03, "
         "max constraint residual 1.250e-03 [FAIL]\n"
         + "".join("  violated: family %d at base %s: step %s along direction "
                   "1 vs step %s along direction 2\n" % line for line in [
                       (1, (0, 1), "+1", "+1"), (1, (0, 1), "+1", "+2"),
                       (2, (0, 1), "+1", "-1"), (1, (1, 0), "+1", "+1"),
                       (1, (1, 0), "+2", "+1"), (3, (1, 0), "-1", "+1"),
                       (2, (1, 2), "+1", "-1"), (2, (1, 2), "+2", "-1"),
                       (4, (1, 2), "-1", "-1"), (2, (1, 3), "+1", "-2")])
         + "  ... and 8 more\n",
}


@pytest.mark.parametrize("scale, code", [(1.0, 0), (1.5, 1)])
def test_check_commute_forms_no_dense_matrix(scale, code, tmp_path,
                                             monkeypatch, capsys):
    # every edge 0.05, and the edges out of (1, 1) times `scale`
    shape = GridShape((3, 3), 2, 2)
    probs = {(e.u, e.v): 0.05 * (scale if e.u == (1, 1) else 1.0)
             for e in directed_edges(shape)}
    path = tmp_path / "model.json"
    save_model(TransitionModel(shape, probs, absorbing=True), path)

    def refuse(*args):
        raise AssertionError("gbdp check-commute formed a dense matrix")

    for module in (model, commute, cli):
        monkeypatch.setattr(module, "full_matrix", refuse, raising=False)
    monkeypatch.setattr(oracles, "directional_matrix", refuse)
    monkeypatch.setattr(oracles, "commutes_direct", refuse)
    assert main(["check-commute", "--model", str(path)]) == code
    assert capsys.readouterr().out == CHECK_COMMUTE_OUT[scale]


def test_the_worst_constraint_may_be_the_last_of_its_pair(tmp_path, capsys):
    # every edge 0.05; both legs of the left path of the last constraint,
    # (3,3) -> (1,3) -> (1,1), times 1.5: only that constraint has both
    shape = GridShape((3, 3), 2, 2)
    scaled = {((3, 3), (1, 3)), ((1, 3), (1, 1))}
    probs = {(e.u, e.v): 0.05 * (1.5 if (e.u, e.v) in scaled else 1.0)
             for e in directed_edges(shape)}
    m = TransitionModel(shape, probs, absorbing=True)
    size = np.abs(commute.pair_residuals(m, 1, 2))
    assert size[-1] > size[:-1].max()
    path = tmp_path / "model.json"
    save_model(m, path)
    assert main(["check-commute", "--model", str(path)]) == 1
    assert capsys.readouterr().out == (
        "pair (1,2): commutator residual 3.125e-03, "
        "max constraint residual 3.125e-03 [FAIL]\n"
        + "".join("  violated: family %d at base %s: step %s along direction "
                  "1 vs step %s along direction 2\n" % line for line in [
                      (2, (0, 3), "+1", "-2"), (2, (1, 3), "+1", "-2"),
                      (2, (1, 3), "+2", "-2"), (4, (1, 3), "-1", "-2"),
                      (4, (2, 3), "-1", "-2"), (3, (3, 1), "-2", "+2"),
                      (3, (3, 2), "-2", "+1"), (4, (3, 3), "-2", "-1"),
                      (4, (3, 3), "-2", "-2")]))


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not-utf8", "deep"])
@pytest.mark.parametrize("command", [["check-commute", "--model"],
                                     ["kstep", "--k", "1", "--params"]],
                         ids=["check-commute", "kstep"])
def test_an_unparsable_file_is_an_input_error(data, command, tmp_path,
                                              capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert main(command + [str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_shape_beyond_the_edge_table_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "format_version": 1, "edges": [],
        "shape": {"q": 2, "dims": [2 ** 31, 2 ** 31], "l1": 1, "l2": 1}}))
    assert main(["check-commute", "--model", str(path)]) == 2
    assert "edge table" in capsys.readouterr().err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["check-commute", "--model", str(tmp_path / "no.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_kstep_zero_is_the_identity(stoch_params, tmp_path):
    _, path = stoch_params
    out = tmp_path / "k0.csv"
    assert main(["kstep", "--params", path, "--k", "0",
                 "--out", str(out)]) == 0
    assert np.abs(read_matrix_csv(out) - np.eye(9)).max() <= 1e-12


def test_out_of_memory_is_exit_2(stoch_params, monkeypatch, capsys):
    _, path = stoch_params

    def refuse(*args):
        raise MemoryError("Unable to allocate 80.3 GiB for an array")

    monkeypatch.setattr(cli, "k_step", refuse)
    assert main(["kstep", "--params", path, "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: out of memory: Unable to allocate "
                            "80.3 GiB for an array\n")


def test_kstep_writes_the_same_bytes_to_out_and_to_stdout(stoch_params,
                                                          tmp_path):
    _, path = stoch_params
    out = tmp_path / "k3.csv"
    args = ["kstep", "--params", path, "--k", "3"]
    assert main(args + ["--out", str(out)]) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "gbdp"] + args,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0
    assert proc.stdout == out.read_bytes()
    assert proc.stdout.startswith(b'state,"(0,0)","(0,1)"')


def test_kstep_methods_agree(stoch_params, tmp_path):
    # the CLI takes the spectral route; the dense power is its oracle
    p, path = stoch_params
    out = tmp_path / "k6.csv"
    assert main(["kstep", "--params", path, "--k", "6",
                 "--out", str(out)]) == 0
    dense = matrix_power(full_matrix(build_model(p)), 6)
    assert np.abs(read_matrix_csv(out) - dense).max() <= 1e-10


def test_kstep_self_mass_agrees_between_methods(tmp_path, rng):
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng), 0.3)
    path = tmp_path / "self_params.json"
    save_params(p, path)
    out = tmp_path / "s.csv"
    assert main(["kstep", "--params", str(path), "--k", "4",
                 "--self", "0.3", "--out", str(out)]) == 0
    spectral = read_matrix_csv(out)
    dense = matrix_power(full_matrix(build_model(p, 0.3)), 4)
    assert np.abs(spectral - dense).max() <= 1e-10
    assert np.abs(spectral.sum(axis=1) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("self_mass", [0.0, 0.3])
def test_kstep_takes_the_dense_route_on_unequal_bounds(tmp_path, rng,
                                                      self_mass):
    p = make_parametrization(GridShape((2, 2), 2, 1), rng)
    path = tmp_path / "skew.json"
    save_params(p, path)
    out = tmp_path / "skew.csv"
    assert main(["kstep", "--params", str(path), "--k", "2",
                 "--self", str(self_mass), "--out", str(out)]) == 0
    dense = matrix_power(full_matrix(build_model(p, self_mass or None)), 2)
    assert np.array_equal(read_matrix_csv(out), dense)


@pytest.mark.parametrize("self_mass", ["nan", "1.5", "-0.5"])
@pytest.mark.parametrize("bounds", [(2, 2), (2, 1)])
def test_kstep_rejects_a_bad_self_mass_on_both_routes(tmp_path, rng, capsys,
                                                     self_mass, bounds):
    p = make_parametrization(GridShape((2, 2), *bounds), rng)
    path = tmp_path / "params.json"
    save_params(p, path)
    out = tmp_path / "k.csv"
    assert main(["kstep", "--params", str(path), "--k", "2",
                 "--self", self_mass, "--out", str(out)]) == 2
    assert "outside [0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_kstep_has_no_method_option(stoch_params, capsys):
    _, path = stoch_params
    with pytest.raises(SystemExit) as exc:
        main(["kstep", "--params", path, "--k", "2", "--method", "power"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_ranks_on_a_unit_jump_grid(capsys):
    assert main(["ranks", "--dims", "1,1", "--l", "1"]) == 0
    out = capsys.readouterr().out
    assert (
        "Q: 4x8 rank 3 (formula 3); R: 6x8 rank 5 (formula 5); "
        "QR^T=0: yes; rank Q + rank R = columns: yes" in out
    )


def test_ranks_reports_the_multi_step_gap(capsys):
    assert main(["ranks", "--dims", "2,2", "--l", "2"]) == 1
    out = capsys.readouterr().out
    assert "Q: 36x36 rank 20 (formula 22)" in out
    assert "QR^T=0: yes" in out
    assert "rank Q + rank R = columns: NO" in out


def test_ranks_input_errors(capsys):
    assert main(["ranks", "--dims", "2,2", "--l", "3"]) == 2
    assert main(["ranks", "--dims", "two", "--l", "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "comma-separated integers" in err


def test_ranks_exits_2_when_the_rank_is_not_certified(monkeypatch, capsys):
    monkeypatch.setattr(algebra, "_propagate", one_more_free)
    assert main(["ranks", "--dims", "2,2", "--l", "2"]) == 2
    assert "rank of Q not certified" in capsys.readouterr().err


def test_ranks_dump_writes_triplets(tmp_path, capsys):
    prefix = str(tmp_path / "mats")
    assert main(["ranks", "--dims", "1,1", "--l", "1",
                 "--dump", prefix]) == 0
    assert "wrote" in capsys.readouterr().out
    for tag in (".Q", ".R"):
        for suffix in (".txt", ".rows.txt", ".cols.txt"):
            assert (tmp_path / ("mats" + tag + suffix)).exists()
    q_lines = (tmp_path / "mats.Q.txt").read_text().strip().splitlines()
    assert len(q_lines) == 16  # 4 rows x 4 entries


@pytest.mark.parametrize("dims", ["3,3", "2,2,2"])
def test_ranks_dump_forms_no_dense_matrix(dims, tmp_path, monkeypatch,
                                          capsys):
    shape = GridShape(tuple(map(int, dims.split(","))), 2, 2)
    oracles = {".Q": algebra.build_Q(shape), ".R": algebra.build_R(shape)}

    def refuse(*args):
        raise AssertionError("gbdp ranks formed or eliminated a dense matrix")

    for name in ("build_Q", "build_R", "integer_rank"):
        monkeypatch.setattr(algebra, name, refuse)
    prefix = str(tmp_path / "m")
    assert main(["ranks", "--dims", dims, "--l", "2", "--dump", prefix]) == 1
    capsys.readouterr()
    for tag, m in oracles.items():
        rows, cols = m.entries.nonzero()
        expected = {
            ".txt": zip(rows, cols, m.entries[rows, cols]),
            ".rows.txt": ((label,) for label in m.row_labels),
            ".cols.txt": ((label,) for label in m.col_labels),
        }
        for suffix, lines in expected.items():
            fmt = "%d %d %d\n" if suffix == ".txt" else "%s\n"
            text = (tmp_path / ("m" + tag + suffix)).read_text()
            assert text == "".join(fmt % line for line in lines)


def test_normalize_writes_a_stochastic_parametrization(tmp_path, rng, capsys):
    p = make_parametrization(EXP_SHAPE, rng)
    src = tmp_path / "raw.json"
    dst = tmp_path / "norm.json"
    save_params(p, src)
    assert main(["normalize", "--params", str(src), "--out", str(dst)]) == 0
    assert "row sums stochastic within 1e-10: yes" in capsys.readouterr().out
    from gbdp import full_matrix, load_params
    m = full_matrix(build_model(load_params(dst)))
    assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-10


def test_simulate_writes_deterministic_frequencies(good_model, tmp_path):
    out1 = tmp_path / "f1.csv"
    out2 = tmp_path / "f2.csv"
    args = ["simulate", "--model", good_model, "--from", "1,1", "--k", "3",
            "--trials", "2000", "--seed", "7"]
    for out in (out1, out2):
        assert main(args + ["--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "gbdp"] + args,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0 and proc.stdout == out1.read_bytes()
    with open(out1) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["state", "count", "frequency"]
    assert sum(int(r[1]) for r in rows[1:]) == 2000


def test_simulate_rejects_an_off_grid_start(good_model, capsys):
    assert main(["simulate", "--model", good_model, "--from", "5,5",
                 "--k", "1", "--trials", "10"]) == 2
    assert "not on the grid" in capsys.readouterr().err


def test_simulate_rejects_a_malformed_start(good_model, capsys):
    assert main(["simulate", "--model", good_model, "--from", "1,x",
                 "--k", "1", "--trials", "10"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--from must be comma-separated integers" in err


def test_module_entry_point_runs():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "gbdp", "ranks", "--dims", "1,1", "--l", "1"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert "rank Q + rank R = columns: yes" in proc.stdout


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
