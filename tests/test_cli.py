import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from conftest import run_capped_child
from xorsatlab.cli import main
from xorsatlab.instances import Instance
from xorsatlab.peel import two_core


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout, stderr and the exit code,
    also the code of a usage error argparse raises as SystemExit."""
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_threshold_constants():
    code, out, err = run_cli(["threshold", "--k", "3"])
    assert code == 0
    data = json.loads(out)
    assert 0.9179 < data["c_star"] < 0.9180
    assert 2.149 < data["lambda"] < 2.151
    assert err.startswith("config:")


_THRESHOLD_STDOUT = {
    ("--k", "3"): (
        '{"k": 3, "c": 1.0, "lambda": 2.1491257999070683, "gamma": 2.43275053327138, '
        '"alpha_k": 0.10067710475774241, "c_hat": 0.8184691607613759, "mu": 2.5496483293345644, '
        '"c_star": 0.917935276658087, "core_frac_vars": 0.7227400576816053, "core_frac_eqs": 0.7834991722925326}\n'
    ),
    ("--k", "4", "--c", "0.9"): (
        '{"k": 4, "c": 0.9, "lambda": 3.0568354041088526, "gamma": 4.811571687784588, '
        '"alpha_k": 0.16989261427869035, "c_hat": 0.7722798398025085, "mu": 3.1616658358130967, '
        '"c_star": 0.9767701648780421, "core_frac_vars": 0.8237321208403204, "core_frac_eqs": 0.7569382705620679}\n'
    ),
    # below the core threshold: no mu and no core
    ("--k", "3", "--c", "0.7"): (
        '{"k": 3, "c": 0.7, "lambda": 0.2861038456888707, "gamma": 1.1498639191703612, '
        '"alpha_k": 0.10067710475774241, "c_hat": 0.8184691607613759, "mu": null, '
        '"c_star": 0.917935276658087, "core_frac_vars": null, "core_frac_eqs": null}\n'
    ),
}


@pytest.mark.parametrize("argv", list(_THRESHOLD_STDOUT), ids=" ".join)
def test_threshold_stdout_pinned(argv):
    """Keys, their order and every value of the printed report."""
    code, out, _ = run_cli(["threshold", *argv])
    assert (code, out) == (0, _THRESHOLD_STDOUT[argv])


@pytest.mark.parametrize("argv, message", [
    (["--k", "2"], "error: k must be >= 3\n"),
    (["--k", "3", "--c", "0.5"], "error: need c > 2/k\n"),
])
def test_threshold_domain_errors(argv, message):
    code, out, err = run_cli(["threshold", *argv])
    assert (code, out) == (1, "")
    assert err.splitlines(keepends=True)[-1] == message


@pytest.mark.parametrize("argv, message", [
    (["threshold", "--k", "3", "--c", "nan"], "error: c must be finite, got nan"),
    (["threshold", "--k", "3", "--c", "inf"], "error: c must be finite, got inf"),
    (["threshold", "--k", "3", "--c", "400"], "error: math range error"),
    (["gen", "--k", "3", "--n", "10", "--c", "inf"], "error: cannot convert float infinity to integer"),
    (["experiment", "--kind", "core_check", "--k", "3", "--n", "100", "--trials", "1", "--c-grid", "inf"],
     "error: c_grid densities must be finite"),
], ids=["threshold_nan", "threshold_inf", "threshold_400", "gen_inf", "experiment_inf"])
def test_non_finite_or_huge_density_exits_1(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if not line.startswith("config:")] == [message]


def test_core_check_past_a_root_of_512_exits_0():
    # at c = 171 the root of g_3 that predicts the core passes 512, where
    # adjacent doubles lie more than the bisection's 1e-13 apart: the
    # bisection looped forever there, so the command runs in a capped child
    code = (
        "import sys\n"
        "from xorsatlab.cli import main\n"
        "sys.exit(main(['experiment', '--kind', 'core_check', '--k', '3', '--n', '100', '--trials', '1',"
        " '--c-grid', '171']))\n"
    )
    proc = run_capped_child(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["aggregates"][0]["predicted_core_vars_frac"] == 1.0


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(["gen", "--model", "constrained", "--k", "4", "--n", "100", "--m", "90", "--seed", "7", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_solve_round_trip(tmp_path):
    path = tmp_path / "inst.bin"
    code, _, _ = run_cli(["gen", "--k", "3", "--n", "60", "--c", "0.8", "--seed", "5", "--out", str(path)])
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    code, out, _ = run_cli(["solve", "--in", str(path), "--solution"])
    assert code == 0
    res = json.loads(out)
    assert res["consistent"] in (True, False)
    if res["consistent"]:
        assert len(res["one_solution"]) == 60
    # solving must not touch the file
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_peel_subcommand(tmp_path):
    path = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    run_cli(["gen", "--k", "3", "--n", "80", "--m", "60", "--seed", "2", "--out", str(path)])
    code, out, _ = run_cli(["peel", "--in", str(path), "--solve", "--trace-out", str(trace)])
    assert code == 0
    res = json.loads(out)
    assert res["consistent"] is True and res.get("solution_checked") is True
    assert trace.exists() and json.loads(trace.read_text())["n"] == 80
    inst = Instance.loads(path.read_text())
    assert trace.read_text() == two_core(inst)[1].dumps(inst)


def test_peel_flags_choose_the_path(tmp_path):
    path = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    run_cli(["gen", "--k", "3", "--n", "80", "--m", "60", "--seed", "2", "--out", str(path)])
    inst = Instance.loads(path.read_text())
    code, out, _ = run_cli(["peel", "--in", str(path), "--trace-out", str(trace)])
    assert code == 0 and "consistent" not in json.loads(out)
    assert trace.read_text() == two_core(inst)[1].dumps(inst)
    code, plain, _ = run_cli(["peel", "--in", str(path)])
    assert code == 0 and list(json.loads(plain)) == ["core_vars", "core_eqs", "ratio"]
    assert json.loads(plain) == json.loads(out)
    assert run_cli(["peel", "--stats-only", "--in", str(path)])[0] == 2


_PEEL_STDOUT = {
    # below the core threshold: an empty core, so no ratio
    "0.7": (
        '{"core_vars": 0, "core_eqs": 0, "ratio": null}\n',
        '{"core_vars": 0, "core_eqs": 0, "ratio": null, "consistent": true, "solution_checked": true}\n',
        "1a5a5e564684e381fdcc3ee065e30a5074a17362017a1ca5805befe8d95b6658",
    ),
    # above c*_3: the core has more equations than variables and no solution
    "0.95": (
        '{"core_vars": 292, "core_eqs": 301, "ratio": 1.0308219178082192}\n',
        '{"core_vars": 292, "core_eqs": 301, "ratio": 1.0308219178082192, "consistent": false}\n',
        "d0f626e6d9ce9aeee14e5cdcd21c2f6e586c220bf748c8afbe3beb778d9a0d52",
    ),
}


@pytest.mark.parametrize("c", list(_PEEL_STDOUT))
def test_peel_stdout_pinned(tmp_path, c):
    """Keys, their order and every value printed by plain `peel`, `--solve`
    and `--trace-out` (k=3, n=400, seed 21), and the trace file's sha256."""
    path, trace = tmp_path / "inst.bin", tmp_path / "trace.json"
    assert run_cli(["gen", "--k", "3", "--n", "400", "--c", c, "--seed", "21", "--out", str(path)])[0] == 0
    plain, solved, digest = _PEEL_STDOUT[c]
    assert run_cli(["peel", "--in", str(path)])[:2] == (0, plain)
    assert run_cli(["peel", "--in", str(path), "--solve"])[:2] == (0, solved)
    assert run_cli(["peel", "--in", str(path), "--trace-out", str(trace)])[:2] == (0, plain)
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


_SOLVE_STDOUT = {
    # below c*_3: 24 free columns, so the printed solution is the canonical one
    "0.8": (
        '{"consistent": true, "rank": 96, "solution_count_log2": 24}\n',
        "de6c4b13aa98f306a1c038713da55b11e997ca9c31a7e325311acf803b248e3f",
    ),
    # above c*_3: no solution, so `--solution` prints the same line
    "1.1": (
        '{"consistent": false, "rank": 118, "solution_count_log2": null}\n',
        "0f0b1cd3fa7c8c2a20dd9b1e23065609276e2c9b654af6aebcb54d93675221ca",
    ),
}


@pytest.mark.parametrize("c", list(_SOLVE_STDOUT))
def test_solve_stdout_pinned(tmp_path, c):
    """Every byte printed by `solve` (k=3, n=120, seed 30), and by
    `solve --solution` as the sha256 of its stdout."""
    path = tmp_path / "inst.bin"
    assert run_cli(["gen", "--k", "3", "--n", "120", "--c", c, "--seed", "30", "--out", str(path)])[0] == 0
    plain, solved = _SOLVE_STDOUT[c]
    assert run_cli(["solve", "--in", str(path)])[:2] == (0, plain)
    code, out, _ = run_cli(["solve", "--in", str(path), "--solution"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, solved)


def test_certify_exit_codes(tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(["certify", "--claim", "amed", "--k", "4", "--out", str(cert_path)])
    assert code == 0
    assert json.loads(out)["verified"] is True
    stored = json.loads(cert_path.read_text())
    assert stored["claim_id"] == "amed" and stored["verified"] is True
    # unreachable target -> unverified -> exit 1
    code, out, _ = run_cli(["certify", "--claim", "amed", "--k", "4", "--target", "-1.0"])
    assert code == 1
    assert json.loads(out)["verified"] is False


@pytest.mark.parametrize("argv,message", [
    (["--claim", "alarge", "--target", "5"], "error: the alarge claim takes no target"),
    (["--claim", "k3grid", "--k", "5"], "error: the k3grid claim takes no k"),
    (["--claim", "monotone", "--c-range", "0.5", "0.6"], "error: the monotone claim takes no c_range"),
], ids=["alarge_target", "k3grid_k", "monotone_c_range"])
def test_certify_rejects_flags_the_claim_does_not_take(tmp_path, argv, message):
    cert_path = tmp_path / "cert.json"
    code, out, err = run_cli(["certify", *argv, "--out", str(cert_path)])
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config:")] == [message]
    assert not cert_path.exists()


def test_certify_amed_huge_k_exits_1(tmp_path):
    # 1 / k and -2.0 * k overflow a float far below this k
    cert_path = tmp_path / "cert.json"
    code, out, err = run_cli(["certify", "--claim", "amed", "--k", "1" + "0" * 400, "--out", str(cert_path)])
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config:")] == [
        "error: the s_k negativity claim needs an integer k with 4 <= k <= 2**53"
    ]
    assert not cert_path.exists()


def test_experiment_flags_and_config_file(tmp_path):
    out_csv = tmp_path / "s.csv"
    code, out, _ = run_cli([
        "experiment", "--kind", "sat_sweep", "--k", "3", "--n", "120", "--trials", "4",
        "--seed", "9", "--c-grid", "0.8,1.0", "--out", str(out_csv),
    ])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["aggregates"]) == 2
    assert out_csv.exists() and (tmp_path / "s.csv.summary.json").exists()
    # config-file path with a flag override
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "collision_check", "k": 3, "n": 50, "trials": 60,
        "master_seed": 4, "m_list": [60],
    }))
    code, out, _ = run_cli(["experiment", "--config", str(cfg_path), "--trials", "80"])
    assert code == 0
    assert json.loads(out)["aggregates"]["samples"] == 80


@pytest.mark.parametrize("config,message", [
    ({"kind": "collision_check", "k": 3, "n": 60, "trials": 5, "master_seed": 4, "m_list": [80, 90]},
     "error: collision_check takes exactly one density (one c_grid or m_list entry)"),
    ({"kind": "collision_check", "k": 3, "n": 60, "trials": 50, "master_seed": 4, "m_list": [40]},
     "error: collision_check needs k >= 3 and km > 2n, got k=3, m=40, n=60"),
    ({"kind": "collision_check", "k": 2, "n": 60, "trials": 50, "master_seed": 4, "m_list": [80]},
     "error: collision_check needs k >= 3 and km > 2n, got k=2, m=80, n=60"),
    ({"kind": "sat_sweep", "k": 3, "n": 60, "master_seed": 4, "c_grid": [0.8]},
     "error: config JSON has no 'trials'"),
    ([1, 2], "error: config JSON must be an object, not list"),
    ({"kind": "sat_sweep", "k": "3", "n": 60, "trials": 2, "c_grid": [0.8]},
     "error: config field 'k' must be int, got '3'"),
    ({"kind": "sat_sweep", "k": 3, "n": 60, "trials": 2.5, "c_grid": [0.8]},
     "error: config field 'trials' must be int, got 2.5"),
    ({"kind": "sat_sweep", "k": 3, "n": 60, "trials": 2, "c_grid": [0.8], "worker": 2},
     "error: unknown config keys: worker"),
    ({"kind": "sat_sweep", "k": 3, "n": 60, "trials": 2, "m_list": [True, 50]},
     "error: config field 'm_list' must be list[int] | None, got [True, 50]"),
    ({"kind": "sat_sweep", "k": 3, "n": 60, "trials": 2, "c_grid": [0.8], "model": "unconstraned"},
     "error: unknown model 'unconstraned'; expected unconstrained or constrained"),
    ({"kind": "critical_census", "k": 3, "n": 8, "trials": 2, "m_list": [8], "tiny_identity_max": 10},
     "error: unknown config keys: tiny_identity_max"),
    ({"kind": "core_check", "k": 3, "n": 60, "trials": 2, "c_grid": [0.8, float("inf")]},
     "error: c_grid densities must be finite"),
    ({"kind": "core_check", "k": 3, "n": 60, "trials": 2, "c_grid": [float("nan")]},
     "error: c_grid densities must be finite"),
], ids=["two_densities", "collision_km_2n", "collision_k2", "missing_trials", "not_object", "str_k", "float_trials",
        "unknown_key", "bool_in_list", "unknown_model", "retired_key", "infinite_density", "nan_density"])
def test_bad_experiment_config_exits_1(tmp_path, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_csv = tmp_path / "c.csv"
    code, out, err = run_cli(["experiment", "--config", str(cfg_path), "--out", str(out_csv)])
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config:")] == [message]
    assert not out_csv.exists()


def test_experiment_model_contradicting_the_kind_exits_1(tmp_path):
    out_csv = tmp_path / "c.csv"
    code, out, err = run_cli(["experiment", "--kind", "core_check", "--model", "constrained", "--k", "3", "--n", "100",
                              "--trials", "2", "--c-grid", "0.5", "--out", str(out_csv)])
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config:")] == [
        "error: core_check runs the unconstrained model, not 'constrained'"]
    assert not out_csv.exists()


@pytest.mark.parametrize("args, message", [
    (["--kind", "sat_sweep", "--m-list", "50,-5"], "error: m_list entry -5 is negative"),
    (["--kind", "core_check", "--c-grid=-0.1,0.5"], "error: c_grid density -0.1 is negative"),
    (["--kind", "window_check", "--w-list", "1,150"],
     "error: w_list window 150 exceeds n=100: the point m = n - |w| would be negative"),
    (["--kind", "window_check", "--w-list=1,-150"],
     "error: w_list window -150 exceeds n=100: the point m = n - |w| would be negative"),
], ids=["m_list", "c_grid", "w_list", "w_list_negative"])
def test_experiment_negative_point_size_exits_1_before_any_trial(tmp_path, monkeypatch, args, message):
    from xorsatlab import experiments

    trials = []
    monkeypatch.setattr(experiments, "_run_one", trials.append)
    out_csv = tmp_path / "c.csv"
    code, out, err = run_cli(["experiment", *args, "--k", "3", "--n", "100", "--trials", "3", "--out", str(out_csv)])
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("config:")] == [message]
    assert trials == []
    assert not out_csv.exists()


def test_plot_subcommand(tmp_path):
    out_csv = tmp_path / "s.csv"
    run_cli([
        "experiment", "--kind", "sat_sweep", "--k", "3", "--n", "100", "--trials", "3",
        "--seed", "1", "--c-grid", "0.8,0.95", "--out", str(out_csv),
    ])
    svg = tmp_path / "chart.svg"
    code, _, _ = run_cli(["plot", "sweep", "--csv", str(out_csv), "--out", str(svg)])
    assert code == 0 and svg.read_text().startswith("<svg")
    svg2 = tmp_path / "hk.svg"
    code, _, _ = run_cli(["plot", "hk", "--k", "4", "--c-list", "0.51,1.0,1.1", "--out", str(svg2)])
    assert code == 0 and svg2.exists()


def test_plot_refuses_a_column_the_csv_lacks(tmp_path):
    out_csv = tmp_path / "s.csv"
    out_csv.write_text("c,n,core_vars\n0.9,100,0\n")
    svg = tmp_path / "chart.svg"
    for argv, message in ((["--csv", str(out_csv), "--y", "core_vars", "--series", "nn"], "error: CSV lacks columns 'nn'"),
                          (["--csv", str(out_csv)], "error: CSV lacks columns 'sat'")):
        code, out, err = run_cli(["plot", "sweep", *argv, "--out", str(svg)])
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if not line.startswith("config:")] == [message]
        assert not svg.exists()


@pytest.mark.parametrize("argv, message", [
    (["--m", "4", "--c", "2.0"], "error: argument --c: not allowed with argument --m"),
    ([], "error: one of the arguments --m --c is required"),
], ids=["both", "neither"])
def test_gen_takes_one_of_m_or_c(tmp_path, argv, message):
    path = tmp_path / "inst.json"
    code, out, err = run_cli(["gen", "--k", "3", "--n", "10", *argv, "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(message)
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["plot", "hk", "--k", "4", "--c-list", "1.0", "--csv", "s.csv", "--out", "r.svg"],
    ["plot", "sweep", "--csv", "s.csv", "--k", "4", "--out", "r.svg"],
    ["plot", "sweep", "--out", "r.svg"],
    ["plot", "hk", "--c-list", "1.0", "--out", "r.svg"],
    ["plot", "--out", "r.svg"],
    ["certify", "--claim", "k3grid", "--c-range", "0.999", "--out", "r.json"],
], ids=["plot_hk_csv", "plot_sweep_k", "plot_sweep_no_csv", "plot_hk_no_k", "plot_no_chart", "certify_one_c"])
def test_a_flag_the_command_does_not_take_or_lacks_is_a_usage_error(tmp_path, monkeypatch, argv):
    """The parser owns each command's flags: a foreign, missing or short flag exits 2 and writes
    nothing (`gen` with both or neither of --m and --c: `test_gen_takes_one_of_m_or_c`)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("c,n,sat\n0.9,100,1\n")
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: xorsatlab ") and "error: " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_cli_and_charts_import_no_xml_sax():
    """Escaping chart text takes three `str.replace` calls, not `xml.sax`, which pulls in `urllib` and `ssl`."""
    code = "import sys, xorsatlab.cli, xorsatlab.svg; print(sorted({'xml.sax', 'urllib.request', 'ssl'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_experiment_grid_flag_beside_a_file_grid_exits_1_before_any_trial(tmp_path, monkeypatch):
    from xorsatlab import experiments

    trials = []
    monkeypatch.setattr(experiments, "_run_one", trials.append)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "sat_sweep", "k": 3, "n": 100, "trials": 3, "master_seed": 4, "m_list": [50]}))
    out_csv = tmp_path / "c.csv"
    code, out, err = run_cli(["experiment", "--config", str(cfg_path), "--c-grid", "0.9", "--out", str(out_csv)])
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if not line.startswith("config:")] == [
        "error: sat_sweep takes one grid, c_grid or m_list; got c_grid and m_list"]
    assert trials == []
    assert not out_csv.exists()


def test_experiment_workers_below_one_exits_1_before_any_trial(tmp_path, monkeypatch):
    from xorsatlab import experiments

    trials = []
    monkeypatch.setattr(experiments, "_run_one", trials.append)
    out_csv = tmp_path / "c.csv"
    code, out, err = run_cli(["experiment", "--kind", "core_check", "--k", "3", "--n", "100", "--trials", "3",
                              "--c-grid", "0.9", "--workers", "0", "--out", str(out_csv)])
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if not line.startswith("config:")] == ["error: workers must be >= 1"]
    assert trials == []
    assert not out_csv.exists()


def test_readme_command_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "xorsatlab"]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run_cli(argv)
        assert code == 0, (argv, err)
    for svg in ("sweep.svg", "rate.svg"):
        assert ElementTree.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_domain_error_exit_1():
    code, _, err = run_cli(["gen", "--model", "constrained", "--k", "3", "--n", "50", "--m", "5"])
    assert code == 1
    assert "error:" in err


def test_corrupt_instance_files_exit_1(tmp_path):
    good = tmp_path / "inst.bin"
    run_cli(["gen", "--k", "3", "--n", "40", "--c", "0.8", "--seed", "1", "--out", str(good)])
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(good.read_bytes()[:-7])
    no_m = tmp_path / "no_m.json"
    no_m.write_text(json.dumps({"k": 3, "n": 4}))
    for cmd in ("solve", "peel"):
        for path in (truncated, no_m):
            code, out, err = run_cli([cmd, "--in", str(path)])
            assert code == 1 and out == ""
            config, *rest = err.splitlines()
            assert config.startswith("config:")
            assert len(rest) == 1 and rest[0].startswith("error: "), err


def test_absurd_n_exits_1_without_traceback(tmp_path):
    import os
    import resource

    import xorsatlab
    from xorsatlab.instances import MODEL_UNCONSTRAINED, Instance

    path = tmp_path / "huge.bin"
    path.write_bytes(Instance(3, 1 << 50, 0, [], [], MODEL_UNCONSTRAINED).to_bytes())
    limit = 1 << 30

    def cap_address_space():  # no allocation in the child can reach the machine
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xorsatlab.__file__)), OPENBLAS_NUM_THREADS="1")
    for args in (["solve"], ["peel"], ["peel", "--solve"]):
        proc = subprocess.run(
            [sys.executable, "-m", "xorsatlab.cli", *args, "--in", str(path)],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 1 and proc.stdout == "", proc.stderr
        config, *rest = proc.stderr.splitlines()
        assert config.startswith("config:")
        assert len(rest) == 1 and rest[0].startswith("error: instance too large for memory"), proc.stderr


def test_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "xorsatlab.cli", "frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_help_mentions_every_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "xorsatlab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("gen", "solve", "peel", "threshold", "certify", "experiment", "plot"):
        assert name in proc.stdout
