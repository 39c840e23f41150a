import csv
import importlib.util
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from hardyheat import cli
from hardyheat.cli import SWEEP_COLUMNS, SweepConfig, main, sweep_rows, write_sweep_outputs
from hardyheat.constants import ExponentBundle


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


def test_verify_repeated_check_runs_each_named_id_once(tmp_path, capsys):
    # --check repeats: every named id runs, once, in id order
    out = tmp_path / "rep.json"
    rc = main(["verify", "--check", "radial_K", "--check", "algebra_ab", "--json", str(out)])
    assert rc == 0
    assert [r["check_id"] for r in json.loads(out.read_text())] == ["algebra_ab", "radial_K"]
    rc = main(["verify", "--check", "algebra_ab", "--check", "algebra_ab", "--json", str(out)])
    assert rc == 0
    assert [r["check_id"] for r in json.loads(out.read_text())] == ["algebra_ab"]
    capsys.readouterr()
    # an unknown id among known ones is a usage error that names it
    assert main(["verify", "--check", "algebra_ab", "--check", "zzz", "--check", "radial_K"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown check 'zzz'") and err.count("\n") == 1


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


def test_sweep_config_errors(tmp_path, capsys):
    paths = []
    for i, text in enumerate(
        ["{ not json", json.dumps({"lambda_fracs": [1.5]}), json.dumps({"no_such_key": 1}),
         json.dumps([1, 2]), json.dumps("sweep")]
    ):
        paths.append(tmp_path / f"bad{i}.json")
        paths[-1].write_text(text)
    # a missing file and a directory are usage errors too
    paths += [tmp_path / "missing.json", tmp_path]
    for path in paths:
        assert main(["sweep", str(path)]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


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
        # the verdict thresholds are solver constants, not config keys
        {"sup_tol": 0.0},
        {"escape_factor": 1.0},
        {"cap_factor": -1.0},
        # json.loads reads NaN and Infinity; a lattice extent must be finite
        {"lattice": {"L": math.nan}},
        {"lattice": {"T": math.inf}},
        {"lattice": {"T_neg": math.inf}},
        # and the cell measure they give a finite normal float
        {"lattice": {"L": 1e300}},
        # and so must an amplitude
        {"blowup_amplitude": math.inf},
        {"nonexistence_amplitude": math.inf},
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
    # the battery runs serially, through one path
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--parallel"])
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
        # the verdict thresholds are solver constants, not flags
        ["solve", "-p", "2.0", "--escape-factor", "-1"],
        ["solve", "-p", "2.0", "--escape-factor", "1"],
        ["solve", "-p", "2.0", "--cap-factor", "0.5"],
        ["sweep", "cfg.json", "--workers", "0"],
        ["solve", "-p", "1.2", "-T", "inf", "--max-n", "2"],
        ["solve", "-p", "2.0", "-L", "nan"],
        ["supersol", "-p", "0.5"],
        # an amplitude or p must be finite
        ["solve", "-p", "2.0", "--amplitude", "inf"],
        ["solve", "-p", "inf"],
        ["supersol", "-p", "inf"],
        # without -p the instance is still checked before the search
        ["supersol", "-s", "1"],
        # extents whose cell measure hx^N ht or ht^2 leaves the normal
        # floats: NaN norms, an OverflowError or a subnormal time step
        ["solve", "-p", "1.2", "-L", "1e-200"],
        ["solve", "-p", "1.2", "-T", "1e308"],
        ["solve", "-p", "1.2", "-L", "1e300"],
        ["solve", "-N", "3", "-p", "1.2", "-L", "1e200"],
        ["solve", "-p", "1.2", "-T", "1e-320"],
    ],
)
def test_invalid_parameters_exit_2_before_computing(argv, capsys, monkeypatch):
    def computing(*args, **kwargs):
        raise AssertionError("computation started on invalid parameters")

    for name in ("run", "run_suite", "find_certificate", "exponents_from"):
        monkeypatch.setattr(cli, name, computing)
    if "--escape-factor" in argv or "--cap-factor" in argv:
        # argparse refuses an unknown flag itself, as in test_usage_exit_codes
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "-N", "3", "-s", "0.5", "--lambda-frac", "0.5",
         "--json", "{missing}/b.json"],
        ["verify", "--check", "algebra_ab", "--json", "{missing}/r.json"],
        ["verify", "--check", "algebra_ab", "--json", "{dir}"],
        ["solve", "-p", "2.0", "--json", "{missing}/run.json"],
        ["supersol", "--json", "{missing}/cert.json"],
        ["sweep", "{cfg}", "--out-dir", "{file}"],
        ["sweep", "{cfg_out_under_file}"],
    ],
)
def test_unwritable_output_exits_2_before_computing(argv, tmp_path, capsys, monkeypatch):
    # an output that cannot be written is a usage error, found before the run
    def computing(*args, **kwargs):
        raise AssertionError("computation started with an unwritable output")

    for name in ("run", "run_suite", "find_certificate", "exponents_from", "sweep_rows"):
        monkeypatch.setattr(cli, name, computing)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "file": a_file}
    for name, out_dir in (("cfg", tmp_path / "out"), ("cfg_out_under_file", a_file / "out")):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(dict(SWEEP_CFG, out_dir=str(out_dir))))
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_runtime_value_error_in_solve_surfaces(monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("raised inside the solve")

    monkeypatch.setattr(cli, "run", failing)
    with pytest.raises(ValueError, match="inside the solve"):
        main(["solve", "-p", "2.0", "-M", "16", "-K", "16"])


ROOT = Path(__file__).resolve().parent.parent


def _readme_blocks(lang: str) -> list:
    """The bodies of README's fenced code blocks tagged lang ("" untagged)."""
    text = (ROOT / "README.md").read_text()
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```", text, re.S | re.M)
            if tag == lang]


def test_readme_sweep_config_and_commands(tmp_path):
    # README's sweep config is the benchmark's sweep2d config and a valid
    # config, and every command it shows parses and validates
    (block,) = _readme_blocks("json")
    passrun_py = ROOT / "perfbench" / "passrun.py"
    spec = importlib.util.spec_from_file_location("perfbench_passrun", passrun_py)
    passrun = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(passrun)
    assert json.loads(block) == passrun.README_SWEEP
    path = tmp_path / "sweep.json"
    path.write_text(block)
    SweepConfig.from_file(str(path))
    (commands,) = [b for b in _readme_blocks("") if b.startswith("hardyheat ")]
    lines = commands.splitlines()
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "hardyheat", line
        cli._validate_args(cli.build_parser().parse_args(argv[1:]))
