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
    normalize_stochastic,
    save_model,
    save_params,
)
from gbdp.cli import main
from conftest import EXP_SHAPE, make_parametrization


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


def test_check_commute_tolerance_sources(bad_model, monkeypatch):
    monkeypatch.setenv("GBDP_TOL", "1.0")
    assert main(["check-commute", "--model", bad_model]) == 0
    assert main(["check-commute", "--model", bad_model,
                 "--tol", "1e-12"]) == 1
    monkeypatch.delenv("GBDP_TOL")
    assert main(["check-commute", "--model", bad_model]) == 1


@pytest.mark.parametrize("value", ["abc", "-1e-9", "nan", "inf"])
def test_a_malformed_tolerance_variable_is_an_input_error(
    good_model, monkeypatch, capsys, value
):
    monkeypatch.setenv("GBDP_TOL", value)
    assert main(["check-commute", "--model", good_model]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "GBDP_TOL" in err


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
    _, path = stoch_params
    a = tmp_path / "spectral.csv"
    b = tmp_path / "power.csv"
    for out, method in ((a, "spectral"), (b, "power")):
        assert main(["kstep", "--params", path, "--k", "6",
                     "--method", method, "--out", str(out)]) == 0
    assert np.abs(read_matrix_csv(a) - read_matrix_csv(b)).max() <= 1e-10


def test_kstep_self_mass_agrees_between_methods(stoch_params, tmp_path, rng):
    p = normalize_stochastic(make_parametrization(EXP_SHAPE, rng), 0.3)
    path = tmp_path / "self_params.json"
    save_params(p, path)
    a = tmp_path / "s.csv"
    b = tmp_path / "p.csv"
    for out, method in ((a, "spectral"), (b, "power")):
        assert main(["kstep", "--params", str(path), "--k", "4",
                     "--self", "0.3", "--method", method,
                     "--out", str(out)]) == 0
    spectral, power = read_matrix_csv(a), read_matrix_csv(b)
    assert np.abs(spectral - power).max() <= 1e-10
    assert np.abs(spectral.sum(axis=1) - 1.0).max() <= 1e-10


def test_kstep_spectral_refuses_unequal_bounds(tmp_path, rng, capsys):
    p = make_parametrization(GridShape((2, 2), 2, 1), rng)
    path = tmp_path / "skew.json"
    save_params(p, path)
    assert main(["kstep", "--params", str(path), "--k", "2"]) == 2
    assert "symmetric" in capsys.readouterr().err
    assert main(["kstep", "--params", str(path), "--k", "2",
                 "--method", "power", "--out",
                 str(tmp_path / "pw.csv")]) == 0


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
    for out in (out1, out2):
        assert main(["simulate", "--model", good_model, "--from", "1,1",
                     "--k", "3", "--trials", "2000", "--seed", "7",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
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
