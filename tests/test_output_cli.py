import argparse
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lorentzbilliards import cli, output
from lorentzbilliards.errors import ConfigError


# -- CSV ----------------------------------------------------------------------


def test_csv_byte_identical(tmp_path):
    header = ["a", "b"]
    rows = [[1, 0.1], [2, np.float64(1.0 / 3.0)]]
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    output.write_csv(p1, header, rows)
    output.write_csv(p2, header, rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_format(tmp_path):
    p = tmp_path / "f.csv"
    output.write_csv(p, ["x", "note"], [[0.5, 'has,comma and "quote"']])
    text = p.read_bytes().decode()
    assert text == 'x,note\n0.5,"has,comma and ""quote"""\n'


def test_csv_repr_floats_roundtrip(tmp_path):
    p = tmp_path / "r.csv"
    val = 0.1 + 0.2
    output.write_csv(p, ["v"], [[val]])
    line = p.read_text().splitlines()[1]
    assert float(line) == val


def test_csv_numpy_scalars_format_as_plain_numbers(tmp_path):
    p = tmp_path / "n.csv"
    output.write_csv(p, ["a", "b"], [[np.float64(0.5), np.int64(3)]])
    assert p.read_text() == "a,b\n0.5,3\n"


# -- SVG ----------------------------------------------------------------------


def test_svg_structure(tmp_path):
    p = tmp_path / "c.svg"
    canvas = output.SvgCanvas(width=100, height=100, world=(-1, 1, -1, 1))
    canvas.polyline([(-1, -1), (1, 1)], stroke="red")
    canvas.circle((0, 0), 0.5)
    canvas.dot((0.5, 0.5))
    canvas.cell(-1.0, -1.0, 0.5, 0.5, "#cccccc")
    canvas.save(p)
    text = p.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text
    assert "<polyline" in text and "<circle" in text and "<rect" in text
    assert text.rstrip().endswith("</svg>")


def test_count_color_ramp():
    assert output.count_color(0) == output.GRAY_RAMP[0]
    assert output.count_color(99) == output.GRAY_RAMP[-1]
    assert output.count_color(-1) == "#ff0000"


# -- config parsing -----------------------------------------------------------


def test_parse_config_basics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nbounces = 7\naxes=2,1  # trailing\n\n")
    values = cli.parse_config(cfg)
    assert values == {"bounces": "7", "axes": "2,1"}


def test_parse_config_duplicate_key_errors(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("bounces=1\nbounces=2\n")
    with pytest.raises(ConfigError):
        cli.parse_config(cfg)


def test_parse_config_missing_equals(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(ConfigError):
        cli.parse_config(cfg)


def test_config_fills_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(f"bounces=3\nout={out}\nmystery=1\n")
    rc = cli.main(["billiard", "--config", str(cfg)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "unknown config key 'mystery'" in captured.err
    assert len(out.read_text().splitlines()) == 1 + 3

    out2 = tmp_path / "out2.csv"
    cfg2 = tmp_path / "b2.cfg"
    cfg2.write_text(f"bounces=3\nout={out2}\n")
    rc = cli.main(["billiard", "--config", str(cfg2), "--bounces", "5"])
    assert rc == 0
    assert len(out2.read_text().splitlines()) == 1 + 5


def test_config_malformed_number_names_key(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("bounces=three\n")
    rc = cli.main(["billiard", "--config", str(cfg)])
    assert rc == 2
    assert "bounces" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["billiard", "--start", "nan,0"],
        ["billiard", "--direction", "inf,1"],
        ["billiard", "--axes", "2,x"],
        ["diameters", "--signs", "1,x"],
        ["geodesic", "--length", "nan"],
        ["revolution", "--length", "inf"],
        ["geodesic", "--tol", "inf"],
        ["eigen-sweep", "--phi", "nan"],
    ],
)
def test_malformed_numbers_are_config_errors(tmp_path, capsys, argv):
    rc = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_wrong_length_vector_is_an_error(tmp_path, capsys):
    rc = cli.main(["billiard", "--start", "0.1,0,0", "--out", str(tmp_path / "b.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: vector of dimension 3")


def _exit_code(argv):
    """main's return code; a SystemExit out of main (argparse's own usage
    exit) fails the test instead of passing as a code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        pytest.fail(f"main raised SystemExit({exc.code}) instead of returning")


def test_config_yields_to_abbreviated_flag(tmp_path):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "b.csv"
    cfg.write_text(f"bounces=7\nout={out}\n")
    assert cli.main(["billiard", "--config", str(cfg), "--boun", "3"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize(
    "command, line", [("billiard", "start=nan,0"), ("revolution", "profile=cone")]
)
def test_bad_config_value_is_config_error(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\nout={tmp_path / 'o.csv'}\n")
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_seed_only_on_commands_that_read_it(tmp_path, capsys):
    outs = ["--out-csv", str(tmp_path / "k.csv"), "--out-svg", str(tmp_path / "k.svg")]
    assert _exit_code(["caustic", "--seed", "5", *outs]) == 2
    assert capsys.readouterr().err == "config error: unrecognized arguments: --seed 5\n"


@pytest.mark.parametrize(
    "argv", [[], ["nosuch"], ["billiard", "--bounces", "x"], ["billiard", "--bounces"]]
)
def test_every_command_line_mistake_returns_a_config_error(capsys, argv):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "usage:" not in captured.err + captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["billiard", "--axes", "2,1,3"],
        ["billiard", "--axes", "2,0"],
        ["confocal-count", "--signs", "1,2"],
        ["confocal-count", "--a", "1,1", "--signs", "1,1"],
        ["geodesic", "--axes-sq", "3,2,0"],
        ["geodesic", "--signs", "1,1"],
        ["diameters", "--axes", "2"],
        ["diameters", "--axes", "2,0"],
        ["eigen-sweep", "--phi", "0"],
        ["eigen-sweep", "--r2-min", "0"],
        ["revolution", "--x0", "0,0,0"],
        ["revolution", "--profile", "cylinder", "--radius", "0"],
        ["revolution", "--offset", "1"],
        ["geodesic", "--record-every", "0"],
        ["revolution", "--record-every", "0"],
        ["geodesic", "--tol", "-1"],
        ["geodesic", "--length", "-1"],
        ["eigen-sweep", "--r2-min", "-10", "--r2-max", "-1"],
        ["eigen-sweep", "--r2-min", "5", "--r2-max", "5"],
        ["eigen-sweep", "--count", "1"],
        ["eigen-sweep", "--count", "0"],
    ],
    ids=" ".join,
)
def test_library_rejections_print_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err + captured.out
    assert list(tmp_path.iterdir()) == []


def test_profile_on_the_axis_is_rejected_not_run(tmp_path):
    """The zero profile puts the whole surface on the axis: its constructor
    refuses it, so no run steps off the surface without end (a subprocess,
    so that a hang fails)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "lorentzbilliards.cli",
         "revolution", "--profile", "polynomial", "--coeffs", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr + proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_every_option_is_read_by_its_command():
    """No knob that nothing reads: each option of a subcommand appears as
    args.<dest> in the source of the function the subcommand runs."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        unread = [
            a.dest
            for a in sub._actions
            if a.dest not in ("config", "help")
            and not re.search(rf"\bargs\.{a.dest}\b", source)
        ]
        assert unread == [], name


def test_no_option_is_a_bare_float():
    """Every float option, scalar or list, rejects a non-finite value: none
    takes argparse's plain `float`, which accepts nan and inf."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [
        f"{name} {a.option_strings[0]}"
        for name, sub in commands.choices.items()
        for a in sub._actions
        if a.type is float
    ]
    assert bare == []


@pytest.mark.parametrize("flag", [["--grid", "1"], ["--window", "0"]], ids=" ".join)
def test_confocal_raster_shape_is_a_config_error(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(["confocal-count", *flag]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(tmp_path.iterdir()) == []


def test_confocal_overflow_is_an_error(tmp_path, capsys):
    outs = ["--out-csv", str(tmp_path / "c.csv"), "--out-svg", str(tmp_path / "c.svg")]
    rc = cli.main(["confocal-count", "--window", "1e200", "--grid", "2", *outs])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


# -- subcommand smoke runs ----------------------------------------------------


def test_cmd_billiard(tmp_path):
    out = tmp_path / "b.csv"
    rc = cli.main(["billiard", "--bounces", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("bounce_index,x0,x1,v0,v1,energy")
    assert len(lines) == 6


def test_cmd_circle_phase(tmp_path):
    rc = cli.main(
        [
            "circle-phase",
            "--grid",
            "24",
            "--orbit-len",
            "10",
            "--out-csv",
            str(tmp_path / "p.csv"),
            "--out-svg",
            str(tmp_path / "p.svg"),
            "--out-orbit-svg",
            str(tmp_path / "o.svg"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "p.csv").exists()
    assert "<svg" in (tmp_path / "p.svg").read_text()
    assert "<svg" in (tmp_path / "o.svg").read_text()


def test_cmd_confocal_count(tmp_path):
    rc = cli.main(
        [
            "confocal-count",
            "--a",
            "1,1",
            "--grid",
            "20",
            "--window",
            "2",
            "--out-csv",
            str(tmp_path / "c.csv"),
            "--out-svg",
            str(tmp_path / "c.svg"),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "c.csv").read_text().splitlines()
    assert rows[0] == "x,y,count,degenerate"
    counts = {int(r.split(",")[2]) for r in rows[1:]}
    assert counts <= {0, 1, 2}


def test_cmd_geodesic(tmp_path):
    out = tmp_path / "g.csv"
    rc = cli.main(["geodesic", "--length", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2,v0,v1,v2,F0,F1,F2,J"


def test_cmd_revolution(tmp_path):
    out = tmp_path / "r.csv"
    rc = cli.main(["revolution", "--length", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,z,vx,vy,vz,cr,invariant,m"
    assert len(lines) > 2


def test_cmd_diameters(tmp_path):
    out = tmp_path / "d.csv"
    rc = cli.main(["diameters", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,x1,y0,y1,causal,f_value"
    assert len(lines) == 3  # the Lorentz ellipse has exactly two diameters


def test_cmd_caustic(tmp_path):
    rc = cli.main(
        [
            "caustic",
            "--grid",
            "90",
            "--out-csv",
            str(tmp_path / "k.csv"),
            "--out-svg",
            str(tmp_path / "k.svg"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "k.csv").exists()


def test_cmd_eigen_sweep(tmp_path, capsys):
    out = tmp_path / "e.csv"
    rc = cli.main(
        ["eigen-sweep", "--r2-min", "10", "--r2-max", "10000", "--out", str(out)]
    )
    assert rc == 0
    msg = capsys.readouterr().out
    assert "slopes" in msg
    assert out.exists()


def test_cmd_checks_passes(capsys):
    rc = cli.main(["checks"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    assert "[pass]" in out and "[FAIL]" not in out
