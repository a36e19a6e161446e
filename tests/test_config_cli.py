"""Config grammar, artifact writers, and the command line end to end."""

import ast
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluxstab
from fluxstab import cli
from fluxstab.cli import build_parser, main
from fluxstab.config import (ConfigError, apply_overrides, get_value,
                             parse_config_text, resolve_check, resolve_datum,
                             resolve_flux, resolve_matrix)
from fluxstab.report import svg_line_plot, write_csv


# -- config grammar ---------------------------------------------------------------

def test_parse_comments_and_blank_lines():
    cfg = parse_config_text(
        "# top comment\n"
        "flux = burgers\n"
        "\n"
        "T = 0.5\n"
        "datum = riemann 1 0\n")
    assert cfg == {"flux": "burgers", "T": "0.5", "datum": "riemann 1 0"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("this is not a key value line\n")
    # section headers are not part of the grammar
    for header in ("[]\n", "[run]\nT = 0.5\n"):
        with pytest.raises(ConfigError, match="line 1: expected"):
            parse_config_text(header)
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_overrides_win():
    cfg = apply_overrides({"a": "1", "b": "2"}, ["b=3", "c = 4"])
    assert cfg == {"a": "1", "b": "3", "c": "4"}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["novalue"])


def test_get_value_types():
    cfg = {"n": "3", "x": "0.5", "s": "hi"}
    assert get_value(cfg, "n", int) == 3
    assert get_value(cfg, "x", float) == 0.5
    assert get_value(cfg, "s") == "hi"
    assert get_value(cfg, "missing", int, 7) == 7
    with pytest.raises(ConfigError, match="missing"):
        get_value(cfg, "absent", int)
    with pytest.raises(ConfigError):
        get_value(cfg, "s", int)


def test_resolve_datum_specs(tmp_path):
    fn = resolve_datum("riemann 1 0 0.5")
    np.testing.assert_allclose(fn.breakpoints, [0.5])
    np.testing.assert_allclose(fn.values[:, 0], [1.0, 0.0])
    fn = resolve_datum("pulse 2 0 1")
    np.testing.assert_allclose(fn.values[:, 0], [0.0, 2.0, 0.0])
    fn = resolve_datum("steps 0 -1 0.5 1 0")
    np.testing.assert_allclose(fn.breakpoints, [-1.0, 1.0])
    path = tmp_path / "datum.txt"
    path.write_text("dim 1\n0.0 1.0\ninf -1.0\n")
    fn = resolve_datum(f"file {path}")
    np.testing.assert_allclose(fn.values[:, 0], [1.0, -1.0])
    for bad in ("", "pulse 1 2 1", "riemann 1", "nonsense 1 2"):
        with pytest.raises(ConfigError):
            resolve_datum(bad)


def test_resolve_matrix_specs():
    np.testing.assert_allclose(resolve_matrix("diag 0 2"), np.diag([0.0, 2.0]))
    np.testing.assert_allclose(resolve_matrix("[[0, 1], [1, 0]]"),
                               [[0.0, 1.0], [1.0, 0.0]])
    for bad in ("diag", "[[1, 2, 3]]", "[1, 2]", "nonsense"):
        with pytest.raises(ConfigError):
            resolve_matrix(bad)


def test_resolve_check_grammar():
    pred, desc = resolve_check("<= 2.0")
    assert pred(2.0) and not pred(2.1) and "<=" in desc
    pred, _ = resolve_check(">= 1")
    assert pred(1.0) and not pred(0.5)
    pred, _ = resolve_check("== 1 0.25")
    assert pred(1.2) and pred(0.8) and not pred(1.3) and not pred(0.5)
    pred, _ = resolve_check("in -1 1")
    assert pred(0.0) and not pred(1.5)
    pred, _ = resolve_check("in 1 1")
    assert pred(1.0) and not pred(1.5)
    # a spec that no value can pass is a typo, not a failed check
    for bad in ("~= 1", "== 1", "in 1", "within 1 from 2", "in 2 1",
                "== 1 -1", "within -1 of 1", "<= nan", ">= nan", "== 1 nan",
                "in nan 1",
                "within 0.25 of 1"):  # a second spelling of "== 1 0.25"
        with pytest.raises(ConfigError):
            resolve_check(bad)


def test_resolve_flux_wraps_errors():
    flux = resolve_flux("tilted_burgers 0.25", (-1.0, 1.0))
    assert flux.kappa > 0.0
    with pytest.raises(ConfigError):
        resolve_flux("nosuch", (-1.0, 1.0))


# -- artifact writers ----------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    rows = [{"name": "a", "x": 0.1 + 0.2, "n": 3, "ok": True},
            {"name": "b", "x": -1.5e-300, "n": -1, "ok": False}]
    meta = {"command": "demo", "cfg.T": "0.5", "spec": "diag 0, 2"}
    path = tmp_path / "t.csv"
    write_csv(path, rows, meta)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# cfg.T = 0.5", "# command = demo",
                         "# spec = diag 0, 2"]
    back = list(csv.DictReader(lines[3:]))
    assert back == [{"name": "a", "x": "0.30000000000000004", "n": "3",
                     "ok": "true"},
                    {"name": "b", "x": "-1.5e-300", "n": "-1", "ok": "false"}]
    # repr floats round-trip exactly
    assert [float(r["x"]) for r in back] == [r["x"] for r in rows]


def test_csv_rejects_corrupting_values(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", [])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", [{"a": "has,comma"}])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", [{"a": 1}, {"b": 2}])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", [{"a": 1}], {"k": "two\nlines"})


def test_csv_is_deterministic(tmp_path):
    rows = [{"x": 1.0 / 3.0, "y": 2}]
    write_csv(tmp_path / "a.csv", rows, {"b": 1, "a": 2})
    write_csv(tmp_path / "b.csv", rows, {"a": 2, "b": 1})
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_svg_plot_basics(tmp_path):
    path = tmp_path / "p.svg"
    svg_line_plot(path, [1, 2, 3], {"demo": [1.0, 4.0, 9.0]},
                  title="t", xlabel="x", ylabel="y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "<!-- fluxstab" in text
    assert "polyline" in text
    with pytest.raises(ValueError):
        svg_line_plot(path, [1, 2], {"s": [1.0]})
    with pytest.raises(ValueError):
        svg_line_plot(path, [0, 1], {"s": [1.0, 2.0]}, loglog=True)


def test_svg_is_deterministic(tmp_path):
    for name in ("a.svg", "b.svg"):
        svg_line_plot(tmp_path / name, [1, 2, 4], {"gap": [1.0, 0.5, 0.25]},
                      loglog=True)
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


# -- command line ---------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "built-in fluxes:" in out
    assert "datum specs:" in out


@pytest.mark.parametrize("argv, command, config, out, seed, overrides", [
    (["riemann", "left=1", "right=0"], "riemann", None, None, None,
     ["left=1", "right=0"]),
    (["hatd", "flux_f=nosuch", "flux_g=burgers", "out=d"], "hatd", None,
     "d", None, ["flux_f=nosuch", "flux_g=burgers", "out=d"]),
    (["rexp", "n_min=3", "out=d", "n_max=3"], "rexp", None, "d", None,
     ["n_min=3", "out=d", "n_max=3"]),
    (["classical-limit", "--config", "c.cfg", "out="], "classical-limit",
     "c.cfg", None, None, ["out="]),
    (["osl", "datum=sawtooth 1", "t=0.5", "--seed", "5"], "osl", None, None,
     5, ["datum=sawtooth 1", "t=0.5"]),
    (["suite", "segments=32", "out=d", "--seed", "7"], "suite", None,
     "d", 7, ["segments=32", "out=d"]),
    (["riemann", "--config", "r.cfg", "right=-0.5"], "riemann", "r.cfg", None,
     None, ["right=-0.5"]),
    (["jac-gap"], "jac-gap", None, None, None, []),
])
def test_cli_parses_intermixed_flags_and_overrides(argv, command, config,
                                                   out, seed, overrides):
    args = build_parser().parse_intermixed_args(argv)
    # the artifact directory is the out key; an empty value names none
    named_out = apply_overrides({}, args.overrides).get("out") or None
    assert (args.command, args.config, named_out, args.seed,
            args.overrides) == (command, config, out, seed, overrides)


@pytest.mark.parametrize("argv", [
    ["--list"],  # the list command prints the grammars
    ["list", "--list"],
    ["rexp", "n_min=3", "n_max=3", "--out", "d"],  # out=d names the directory
])
def test_cli_deleted_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_riemann(capsys):
    assert main(["riemann", "left=1", "right=0"]) == 0
    assert "riemann burgers" in capsys.readouterr().out


def test_cli_hatd_lin_worked_example(capsys):
    code = main(["hatd-lin", "A=[[0,0],[0,1]]", "B=[[0,0],[0,2]]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value=1.0" in out
    assert "opnorm(B-A)=1.0" in out
    assert "argmax direction:" in out
    first = out.splitlines()[0]
    upper = float(first.split("upper=")[1].split()[0])
    assert 1.0 <= upper <= 1.0 + 1e-14
    assert "argmax direction: 0.0 1.0" in out


def test_cli_hatd_lin_rejects_sizes_above_three(capsys):
    code = main(["hatd-lin", "A=diag 0 1 2 3", "B=diag 0 1 2 4"])
    assert code == 2
    assert "up to 3" in capsys.readouterr().err


def test_hatd_lin_does_not_import_scipy():
    # scipy is a test-only dependency; the package must run without it
    src = str(Path(fluxstab.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import fluxstab\n"
        "from fluxstab.cli import main\n"
        "res = fluxstab.hat_d_lin([[0, 1, 0], [1, 0, 0], [0, 0, 2]],\n"
        "                         [[1, 0, 0], [0, 2, 1], [0, 1, 0]])\n"
        "assert res.value <= res.upper\n"
        "assert main(['hatd-lin', 'A=diag 0 1 3', 'B=diag 0 2 3.5']) == 0\n"
        "print('scipy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"


def test_cli_hatd_lin_missing_matrix(capsys):
    assert main(["hatd-lin", "A=diag 0 1"]) == 2
    assert main(["hatd-lin", "matrix_a=diag 0 1", "matrix_b=diag 0 2"]) == 2


def test_cli_embedded_check_pass_and_fail(capsys):
    args = ["hatd-lin", "A=diag 0 1", "B=diag 0 2"]
    assert main(args + ["check=== 1.0 1e-6"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] hatd-lin value:" in out
    assert main(args + ["check=<= 0.5"]) == 1
    assert "[FAIL] hatd-lin value:" in capsys.readouterr().out
    # bad grammar is a config problem, not a check failure
    assert main(args + ["check=approximately 1"]) == 2


def test_cli_evolve_embedded_check(capsys):
    args = ["evolve", "flux=burgers", "segments=64",
            "datum=pulse 1.0 0.0 1.0", "T=0.5"]
    assert main(args + ["check=== 1.0 1e-12"]) == 0
    assert "[PASS] evolve tv_integral:" in capsys.readouterr().out
    assert main(args + ["check=>= 2.0"]) == 1


@pytest.mark.parametrize("argv", [
    ["hatd-lin", "A=diag 0 1", "B=diag 0 2", "check=in 2 1"],
    ["hatd-lin", "A=diag 0 1", "B=diag 0 2", "check=within 1e-6 of 1.0"],
    ["evolve", "datum=pulse 1.0 0.0 1.0", "T=0.5", "check=== 1.0 -1"],
    ["evolve", "datum=pulse 1.0 0.0 1.0", "T=0.5", "check=approximately 1"],
])
def test_cli_bad_check_spec_exits_2_before_solving(argv, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a solver ran before the check spec was read")

    monkeypatch.setattr(cli, "hat_d_lin", never)
    monkeypatch.setattr(cli, "ft_evolve", never)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and "check spec" in err


def test_cli_unknown_flux_exits_2_without_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["hatd", "flux_f=nosuch", "flux_g=burgers",
                 "out=" + str(out)])
    assert code == 2
    assert not out.exists() or not list(out.iterdir())


def test_cli_rexp_single_n(tmp_path, capsys):
    out = tmp_path / "rexp_out"
    code = main(["rexp", "n_min=3", "n_max=3", "out=" + str(out)])
    assert code == 0
    assert "[PASS] rexp n=3" in capsys.readouterr().out
    lines = (out / "rexp.csv").read_text().splitlines()
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    assert len(rows) == 1
    assert abs(float(rows[0]["l1_distance"]) - 1.0) <= 1e-3
    assert rows[0]["n"] == "3"
    assert "# command = rexp" in lines
    assert "# cfg.n_min = 3" in lines
    assert f"# cfg.out = {out}" in lines
    assert (out / "rexp.svg").exists()


def test_cli_rexp_deterministic_reruns(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["rexp", "n_min=2", "n_max=2", "out=" + str(out)]) == 0
        outs.append(out)
    a_csv = (outs[0] / "rexp.csv").read_text()
    b_csv = (outs[1] / "rexp.csv").read_text()
    assert a_csv.replace(str(outs[0]), "OUT") == b_csv.replace(str(outs[1]), "OUT")
    assert (outs[0] / "rexp.svg").read_bytes() == (outs[1] / "rexp.svg").read_bytes()


def test_cli_evolve_writes_profile(tmp_path, capsys):
    out = tmp_path / "evo"
    code = main(["evolve", "datum=riemann 1 0", "T=0.5", "out=" + str(out)])
    assert code == 0
    lines = (out / "profile.csv").read_text().splitlines()
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    assert rows[0]["x"] == "-inf"
    assert "# cfg.datum = riemann 1 0" in lines
    assert "# flux = pl[burgers]" in lines


def test_cli_tmain_pass(capsys):
    code = main(["tmain", "flux_f=burgers", "flux_g=tilted_burgers 0.25",
                 "datum=pulse 1 0 1", "T=1", "segments=128"])
    assert code == 0
    assert "[PASS] tmain" in capsys.readouterr().out


def test_cli_osl_with_seed(capsys):
    code = main(["osl", "datum=sawtooth 1", "t=0.5", "a=0", "b=1",
                 "n_pairs=500", "--seed", "5"])
    assert code == 0
    assert "[PASS] osl" in capsys.readouterr().out


def test_cli_failing_check_exits_1(capsys):
    code = main(["classical-limit", "c_values=8 16", "cells=200", "T=0.05",
                 "slope_lo=-0.1", "slope_hi=0.1"])
    assert code == 1
    assert "[FAIL] classical-limit" in capsys.readouterr().out


def test_cli_evolve_samples_nonconvex_polynomial(capsys):
    code = main(["evolve", "flux=convex_poly 0.1 0.5 0",
                 "datum=riemann 0.5 -0.5", "T=0.5", "segments=64"])
    assert code == 0
    assert "evolved pl[" in capsys.readouterr().out


def test_cli_hatd_samples_nonconvex_polynomial(capsys):
    # f'' = 1 + 0.6 u dips below zero on [-2, 1], so the Riemann solver
    # cannot take the smooth flux; hatd samples it
    assert main(["hatd", "flux_f=burgers", "flux_g=convex_poly 0.5 0.1 0",
                 "k_lo=-2"]) == 0
    assert capsys.readouterr().out.startswith("[PASS] pgeneral: sampled hat_d=")


def test_cli_hatd_keeps_convex_fluxes_smooth(capsys):
    # a convex pair is solved as given, with its exact derivative gap
    argv = ["hatd", "flux_f=burgers", "flux_g=tilted_burgers 0.25",
            "n_grid=16", "n_near=16"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "[PASS] pgeneral: sampled hat_d=0.25000000000000044 vs "
        "max|f'-g'|=0.25 (ratio=1.000000, sup at large-jump)\n")


def test_cli_runtime_error_exits_3(capsys):
    code = main(["evolve", "flux=burgers", "segments=0",
                 "datum=riemann -1 1", "T=0.1"])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_cli_superluminal_state_mid_run_exits_3(capsys):
    # the data lie outside the default box and move faster than the shared
    # wave bound 5, so the scheme overshoots |q| < c E: NaN flux, exit 3
    code = main(["classical-limit", "c_values=8 16", "left=1 7.9",
                 "right=1 -7.9", "cells=200"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "nan" in err
    assert err == ("runtime error: state left admissible region at "
                   "t=0.0045, cell 96: U=[0.98613937        nan]\n")


@pytest.mark.parametrize("argv", [
    ["classical-limit", "c_values=0.5 8"],  # slower than sound
    ["jac-gap", "c_values=0.5"],
    ["osl", "flux=linear 0.3", "datum=pulse 1 0 1", "t=0.5", "a=0", "b=1"],
    # the default box reaches |q| / E = 4, beyond these light speeds
    ["jac-gap", "c_values=1.5 3"],
    ["classical-limit", "c_values=3 8"],
    # a constant datum: every gap is 0, so there is no log-log slope
    ["classical-limit", "c_values=8 16", "left=1 0", "right=1 0", "cells=50"],
    ["classical-limit", "left=2 0 1 0", "right=1 0 1 0", "cells=50"],
])
@pytest.mark.filterwarnings("error")
def test_cli_bad_solver_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["rexp", "n_min=3", "n_max=2"],
    ["jac-gap", "c_values="],
    ["osl", "flux=burgers", "datum=pulse 1 0 1", "t=0.5", "a=0", "b=1",
     "n_pairs=0"],
    ["osl", "flux=burgers", "datum=pulse 1 0 1", "t=0.5", "a=1", "b=1"],
    # an empty or reversed window has no L1 gap and no variation to bound
    ["linfty", "flux_f=burgers", "flux_g=tilted_burgers 0.1",
     "datum=pulse 1 0 1", "t=0.5", "a=1", "b=0"],
    ["oleinik-tv", "datum=pulse 1 0 1", "t=0.5", "a=1", "b=0"],
])
def test_cli_sweep_with_nothing_to_check_exits_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tilt", ["nan", "inf", "-inf"])
@pytest.mark.filterwarnings("error")
def test_cli_rexp_rejects_non_finite_tilt(tilt, capsys):
    assert main(["rexp", f"tilt={tilt}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: tilt must be finite, got {float(tilt)!r}\n"


def test_cli_suite(tmp_path, capsys):
    out = tmp_path / "suite_out"
    code = main(["suite", "segments=32", "T=0.5", "n_grid=8", "n_near=8",
                 "out=" + str(out), "--seed", "7"])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS] suite: 6 pairs" in text
    lines = (out / "stability_report.csv").read_text().splitlines()
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    assert len(rows) == 12  # six pairs, two data each
    assert "# cfg.seed = 7" in lines
    assert rows[0]["pair"] == "tilt-quarter"
    assert all(r["tmain_holds"] == r["pgeneral_holds"] == "true" for r in rows)


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("left = 1\nright = 0\nflux = burgers\n")
    assert main(["riemann", "--config", str(cfg), "right=-0.5"]) == 0
    assert "uR=-0.5" in capsys.readouterr().out


# -- verdict lines ----------------------------------------------------------------

def test_pass_and_fail_are_spelled_in_one_function():
    # every check states its outcome through report.verdict_line, so no
    # other code of the package spells the two words; docstrings may
    found = set()
    for path in sorted(Path(fluxstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef,
                                           ast.FunctionDef))
                      and ast.get_docstring(node) is not None}

        def visit(node, where):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                where = f"{where}.{node.name}"
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and ("PASS" in node.value or "FAIL" in node.value)):
                found.add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, path.stem)
    assert found == {"report.verdict_line"}
