import csv
import json
import math

import pytest

from hardyheat import cli
from hardyheat.cli import SWEEP_COLUMNS, SweepConfig, main, sweep_rows, write_sweep_outputs
from hardyheat.constants import ExponentBundle, lambda_max


def test_constants_prints_and_json(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    rc = main(["constants", "-N", "4", "-s", "1", "--lambda-frac", "0.5", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "lambda_max" in text and "= 1\n" in text.replace("1.0\n", "1\n")
    loaded = json.loads(out.read_text())
    assert loaded["lambda_max"] == pytest.approx(1.0, abs=1e-10)
    # round trip through the bundle type (finite-parameter case)
    rc = main(["constants", "-N", "3", "-s", "0.5", "--lambda-frac", "0.5",
               "--json", str(out)])
    assert rc == 0
    again = ExponentBundle.from_dict(json.loads(out.read_text()))
    again.validate()


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_constants_json_is_strict_at_s_one(tmp_path):
    out = tmp_path / "bundle.json"
    rc = main(["constants", "-N", "4", "-s", "1", "--lambda-frac", "0.5", "--json", str(out)])
    assert rc == 0
    loaded = _strict_loads(out.read_text())
    assert loaded["kappa_s"] == "inf"
    assert ExponentBundle.from_dict(loaded).kappa_s == math.inf


def test_sweep_summary_is_strict(tmp_path):
    row = dict.fromkeys(SWEEP_COLUMNS, 1.0)
    row.update(predicted="BlowUp", observed="ConvergedBelowCap", p=math.inf)
    _, json_path, _ = write_sweep_outputs([row], str(tmp_path))
    assert _strict_loads(json_path.read_text())["mismatches"][0]["p"] == "inf"


def test_constants_usage_error():
    assert main(["constants", "-N", "4", "-s", "1", "--lambda-frac", "1.5"]) == 2


def test_verify_single_check_and_unknown(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["verify", "--check", "algebra_ab", "--json", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep[0]["check_id"] == "algebra_ab" and rep[0]["passed"]
    assert main(["verify", "--check", "zzz"]) == 2


def test_verify_seed_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--check", "radial_K", "--seed", "7", "--json", str(a)])
    main(["verify", "--check", "radial_K", "--seed", "7", "--json", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_solve_writes_report(tmp_path):
    out = tmp_path / "run.json"
    rc = main([
        "solve", "-p", "2.0", "-M", "16", "-K", "16", "-L", "4", "-T", "4",
        "--max-n", "4", "--json", str(out),
    ])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] in ("ConvergedBelowCap", "NormEscape", "Stalled")
    assert len(rep["m_curve"]) == 16


def test_supersol_cli(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["supersol", "-N", "3", "-s", "0.5", "--lambda-frac", "0.5", "--json", str(out)])
    assert rc == 0
    capsys.readouterr()
    cert = json.loads(out.read_text())
    assert cert["interior_margin"] > 0 and cert["boundary_min_gap"] > 0
    # reload + reverify gives identical margins
    rc = main(["supersol", "-N", "3", "-s", "0.5", "--lambda-frac", "0.5", "--json", str(out)])
    assert json.loads(out.read_text()) == cert
    # above the non-existence exponent the search refuses
    b_pp = cert["p"] * 2.0
    assert main(["supersol", "-N", "3", "-s", "0.5", "--lambda-frac", "0.5",
                 "-p", str(b_pp)]) == 1


SWEEP_CFG = {
    "dim": 2,
    "s_values": [0.5],
    "lambda_fracs": [0.5],
    "p_per_band": 1,
    "lattice": {"L": 6.0, "M": 32, "T_neg": 0.0, "T": 6.0, "K": 48},
    "max_n": 48,
    "blowup_amplitude": 1.0,
    "conditional_fraction": 0.02,
    "nonexistence_amplitude": 2.0,
    "workers": 1,
}


def test_sweep_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = dict(SWEEP_CFG, out_dir=str(tmp_path / "out"))
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["sweep", str(cfg_path)])
    assert rc == 0
    with open(tmp_path / "out" / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_COLUMNS
    assert len(rows) == 1 + 3
    by_band = {r[8]: r for r in rows[1:]}
    assert by_band["BlowUp"][9] == "NormEscape"
    assert by_band["ConditionalGlobal"][9] == "ConvergedBelowCap"
    assert by_band["NonExistence"][9] == "NormEscape"
    # band sampling respects the open edges
    b_f = float(rows[1][6])
    b_pp = float(rows[1][5])
    for r in rows[1:]:
        p = float(r[3])
        assert abs(p - b_f) > 1e-3 * b_f and abs(p - b_pp) > 1e-3 * b_pp
    summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
    assert summary["rows"] == 3 and summary["mismatches"] == []


def test_sweep_rows_reproducible(tmp_path):
    cfg = SweepConfig(
        dim=2,
        s_values=(0.5,),
        lambda_fracs=(0.5,),
        p_per_band=1,
        lattice=SWEEP_CFG["lattice"],
        max_n=12,
    )
    rows_a = sweep_rows(cfg)
    rows_b = sweep_rows(cfg)
    assert rows_a == rows_b


def test_sweep_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["sweep", str(bad)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"lambda_fracs": [1.5]}))
    assert main(["sweep", str(bad2)]) == 2
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"no_such_key": 1}))
    assert main(["sweep", str(bad3)]) == 2


@pytest.mark.parametrize(
    "override",
    [
        {"lattice": {"M": 30}},
        {"s_values": [1.5]},
        {"dim": 3, "s_values": [1.0]},
        {"lattice": {"M": "32"}},
        {"s_values": ["0.5"]},
        {"max_n": "4"},
        {"lattice": {"m": 64, "KK": 3}},
        {"dim": 2, "lattice": {"dim": 3, "M": 16}},
        {"blowup_amplitude": -1.0},
        {"nonexistence_amplitude": -0.5},
        {"max_n": -2},
        {"p_per_band": 0},
        {"workers": 0},
        {"conditional_fraction": 0.0},
        {"conditional_fraction": 1.5},
        {"sup_tol": 0.0},
        {"escape_factor": 1.0},
        {"cap_factor": -1.0},
    ],
)
def test_sweep_config_bad_values_exit_2(tmp_path, capsys, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SWEEP_CFG, **override)))
    assert main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_exit_codes():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cid", ["hardy", "picone"])
def test_verify_json_round_trips(tmp_path, capsys, cid):
    # these checks compute their margin in numpy
    assert main(["verify", "--check", cid]) == 0
    table = capsys.readouterr().out
    out = tmp_path / "rep.json"
    assert main(["verify", "--check", cid, "--json", str(out)]) == 0
    assert capsys.readouterr().out == table + f"wrote {out}\n"
    rep = json.loads(out.read_text())
    assert rep[0]["check_id"] == cid and rep[0]["passed"] is True
    assert table.startswith(f"{cid:16s} pass  margin={rep[0]['worst_margin']:.3e}")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--lambda-frac", "1.5", "-p", "2.0"],
        ["solve", "-M", "33", "-p", "2.0"],
        ["solve", "-p", "0.9"],
        ["supersol", "--lambda-frac", "2"],
        ["constants", "-N", "1", "-s", "0.5", "--lambda-frac", "0.5"],
        ["verify", "--seed", "-1"],
        ["solve", "-p", "2.0", "--amplitude", "-1"],
        ["solve", "-p", "2.0", "--max-n", "-3"],
        ["solve", "-p", "2.0", "--max-n", "0"],
        ["solve", "-p", "2.0", "--escape-factor", "-1"],
        ["solve", "-p", "2.0", "--escape-factor", "1"],
        ["solve", "-p", "2.0", "--cap-factor", "0.5"],
        ["sweep", "cfg.json", "--workers", "0"],
    ],
)
def test_invalid_parameters_exit_2_before_computing(argv, capsys, monkeypatch):
    def computing(*args, **kwargs):
        raise AssertionError("computation started on invalid parameters")

    for name in ("run", "run_suite", "find_certificate", "exponents_from"):
        monkeypatch.setattr(cli, name, computing)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_runtime_value_error_in_solve_surfaces(monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("raised inside the solve")

    monkeypatch.setattr(cli, "run", failing)
    with pytest.raises(ValueError, match="inside the solve"):
        main(["solve", "-p", "2.0", "-M", "16", "-K", "16"])
