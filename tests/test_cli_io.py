import json
import math
import subprocess
import sys

import numpy as np
import pytest

from principal_config import catalog, cli, foliation
from principal_config.cli import (load_config_file, main,
                                  parse_quadric_spec, parse_surface_spec)
from principal_config.geometry import MAXIMAL, MINIMAL, ImplicitSurface
from principal_config.report import (CSV_COLUMNS, ReportDocument, RunConfig,
                                     trajectories_csv)
from principal_config.svg_render import render_svg


def run_cli(args):
    return main(list(args))


def test_parse_surface_spec():
    s = parse_surface_spec("ellipsoid:3,2,1")
    assert s.params == {"a": 3.0, "b": 2.0, "c": 1.0}
    t = parse_surface_spec("torus:2,1")
    assert t.params == {"R": 2.0, "r": 1.0}


def test_parse_quadric_spec_with_fractions():
    q = parse_quadric_spec("diag:1/9,1/4,1")
    assert q.matrix[0, 0] == pytest.approx(1.0 / 9.0)
    q2 = parse_quadric_spec("sym:1,1,1,0,0,0")
    assert np.allclose(q2.matrix, np.eye(3))
    with pytest.raises(Exception):
        parse_quadric_spec("diag:1,2")


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ngrid = 20\nsvg = true\n")
    opts = load_config_file(cfg)
    assert opts == {"grid": "20", "svg": "true"}


def test_report_document_roundtrip():
    doc = ReportDocument(RunConfig("umbilics", "torus:2,1",
                                   {"grid": 24}, 7),
                         results={"umbilics": [], "x": 1.5},
                         work={"steps": 10})
    text = doc.to_json()
    parsed = ReportDocument.parse(text)
    assert parsed["schema_version"] == 1
    assert parsed["config"]["seed"] == 7
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text


def test_csv_columns(torus):
    traj = foliation.trace(torus, (0.3, 0.9), MAXIMAL,
                           foliation.TraceOptions())
    text = trajectories_csv([traj])
    header = text.splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    row = text.splitlines()[1].split(",")
    assert row[-1] == MAXIMAL
    assert len(row) == 5


def test_render_svg_deterministic_and_structured(torus):
    traj = foliation.trace(torus, (0.3, 0.9), MAXIMAL,
                           foliation.TraceOptions())
    svg1 = render_svg([traj], view="+y")
    svg2 = render_svg([traj], view="+y")
    assert svg1 == svg2
    assert svg1.startswith("<?xml")
    assert "<polyline" in svg1
    with pytest.raises(ValueError):
        render_svg([], view="+y")
    with pytest.raises(ValueError):
        render_svg([traj], view="sideways")


def test_cli_strata_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "o1"
    assert run_cli(["strata", "--quadric", "diag:1/9,1/4,1",
                    "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["stratum"]["tag"] == "E3_triaxial"

    assert run_cli(["strata", "--quadric", "bogus",
                    "--out", str(out)]) == 2
    assert run_cli(["umbilics", "--surface", "nosuch:1",
                    "--out", str(out)]) == 2


def test_cli_umbilics_torus_empty(tmp_path):
    out = tmp_path / "o2"
    assert run_cli(["umbilics", "--surface", "torus:2,1", "--grid", "20",
                    "--svg", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["umbilics"] == []
    assert rep["results"]["index_sum"]["sum"] == 0


def test_cli_cycles_work_counts_every_trace(tmp_path):
    reports = []
    for attempt in ("a", "b"):
        out = tmp_path / f"cyc{attempt}"
        assert run_cli(["cycles", "--surface", "torus:2,1", "--seeds",
                        "0.3,0.9;1.5,0.9", "--foliation", "maximal",
                        "--out", str(out)]) == 0
        reports.append((out / "report.json").read_text())
    assert reports[0] == reports[1]
    work = json.loads(reports[0])["work"]
    assert work["cycles_found"] == 1
    # the closed curve of the parallel takes 72 steps; the search,
    # the FD return map and the duplicate's search take several times that
    assert work["steps"] > 300
    # six stages per step, plus starts and closure refinement
    assert work["evals"] > 6 * work["steps"]
    assert work["dropped_seeds"] == [{
        "foliation": "maximal", "seed": [1.5, 0.9],
        "reason": "duplicate of an earlier cycle"}]


def test_cli_umbilics_sphere_marker(tmp_path):
    out = tmp_path / "o3"
    assert run_cli(["umbilics", "--surface", "sphere:1", "--grid", "20",
                    "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["all_umbilic"] is True


def test_cli_trace_writes_csv_and_svg(tmp_path):
    out = tmp_path / "o4"
    assert run_cli(["trace", "--surface", "torus:2,1", "--start", "0.3,0.9",
                    "--foliation", "maximal", "--svg",
                    "--out", str(out)]) == 0
    assert (out / "trajectories.csv").exists()
    assert (out / "scene.svg").exists()
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["traces"][0]["termination"] == "Closed"
    # six stages per step, plus the start and the closure refinement
    assert rep["work"]["evals"] > 6 * rep["work"]["steps"]


def test_cli_rerun_byte_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli(["umbilics", "--surface", "ellipsoid:3,2,1",
                        "--grid", "24", "--svg",
                        "--out", str(out), "--seed", "5"]) == 0
        outs.append((out / "report.json").read_bytes()
                    + (out / "scene.svg").read_bytes())
    assert outs[0] == outs[1]


def test_cli_config_file_merges(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("grid = 20\nsvg = true\n")
    out = tmp_path / "o5"
    assert run_cli(["umbilics", "--surface", "torus:2,1",
                    "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["options"]["grid"] == 20


def test_cli_config_file_unknown_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("gird = 20\n")
    out = tmp_path / "o6"
    assert run_cli(["umbilics", "--surface", "torus:2,1",
                    "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: unknown key 'gird'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_bad_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid = abc\n")
    out = tmp_path / "o7"
    assert run_cli(["umbilics", "--surface", "torus:2,1",
                    "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: grid = 'abc' is not int" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_rho_rejects_options_it_does_not_read(tmp_path, capsys):
    sweep = ["rotation", "--sweep-rho=0.05", "--n-seeds", "1"]
    for extra in (["--surface", "ellipsoid:3,2,1"], ["--tol", "1e-3"],
                  ["--length", "5"], ["--crossings", "2"],
                  ["--section", "v=0.1"], ["--foliation", MINIMAL]):
        out = tmp_path / extra[0].lstrip("-")
        assert run_cli(sweep + extra + ["--out", str(out)]) == 2, extra
        assert extra[0] in capsys.readouterr().err
        assert not out.exists()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("surface = ellipsoid:3,2,1\ntol = 1e-3\n")
    assert run_cli(sweep + ["--config", str(cfg),
                            "--out", str(tmp_path / "cfg")]) == 2
    assert "--surface, --tol" in capsys.readouterr().err
    # the options it does read, as the benchmark passes them
    out = tmp_path / "ok"
    assert run_cli(sweep + ["--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["surface"] == "s_rho"
    assert [row["rho"] for row in rep["results"]["rho_sweep"]] == [0.05]


def test_cli_entrypoint_subprocess(tmp_path):
    out = tmp_path / "entry"
    r = subprocess.run([sys.executable, "-m", "principal_config.cli",
                        "strata", "--quadric", "diag:1,1,1",
                        "--out", str(out)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0
    assert "Sphere" in r.stdout
    assert (out / "report.json").is_file()


def test_cli_scene_options_only_where_a_scene_is_drawn(tmp_path, capsys):
    # rotation, strata and stability draw no scene: --svg and --view are
    # usage errors there, and so is an svg key in a config file
    cfg = tmp_path / "svg.cfg"
    cfg.write_text("svg = true\n")
    for cmd in (["rotation", "--sweep-rho=0.05"],
                ["strata", "--quadric", "diag:1,2,3"],
                ["stability", "--surface", "ellipsoid:3,2,1"]):
        out = tmp_path / cmd[0]
        for extra in (["--svg"], ["--view", "+x"]):
            assert run_cli(cmd + extra + ["--out", str(out)]) == 2, extra
        assert run_cli(cmd + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: unknown key 'svg'" in capsys.readouterr().err
        assert not out.exists()


_TRACE = ["trace", "--surface", "torus:2,1", "--start", "0.1,0.2"]


@pytest.mark.parametrize("argv, config", [
    pytest.param(["trace", "--surface", "torus:2,1", "--start", "0.1,abc"],
                 None, id="start-not-a-number"),
    pytest.param(["trace", "--surface", "torus:2,x", "--start", "0.1,0.2"],
                 None, id="surface-not-a-number"),
    pytest.param(["rotation", "--surface", "torus:2,1",
                  "--section", "meridian:abc"], None, id="section"),
    pytest.param(["rotation", "--sweep-rho=abc"], None, id="sweep-rho"),
    pytest.param(["strata", "--quadric", "diag:1,2,x"], None, id="quadric"),
    pytest.param(["cycles", "--surface", "torus:2,1", "--seeds", "1/0,2"],
                 None, id="seed-division-by-zero"),
    pytest.param(["trace", "--surface", "torus:2,1", "--start", "0.1"],
                 None, id="chart-start-size"),
    pytest.param(["trace", "--surface", "s_rho:0.05", "--start", "1,2"],
                 None, id="level-set-start-size"),
    pytest.param(["cycles", "--surface", "torus:2,1", "--seeds", "0.1"],
                 None, id="seed-size"),
    pytest.param(["stability", "--surface", "torus:2,1", "--grid", "8"],
                 None, id="stability-grid"),
    pytest.param(["umbilics", "--surface", "torus:2,1", "--grid", "8"],
                 None, id="umbilics-grid"),
    pytest.param(_TRACE, "fn = x", id="config-fn"),
    pytest.param(_TRACE, "command = umbilics", id="config-command"),
    pytest.param(_TRACE, "config = other.cfg", id="config-config"),
])
def test_cli_input_errors_exit_2_with_one_line(tmp_path, capsys, argv,
                                               config):
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = argv + ["--config", str(cfg)]
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not (out / "report.json").exists()


# the parameters that build each catalog surface; the rest have defaults
_SPEC_PARAMS = {"sphere": (1.0,), "ellipsoid": (3.0, 2.0, 1.0),
                "monge_graph": (1.0, 4.0, 1.0, 0.0), "e_theta": (0.3,),
                "s_rho": (0.05,)}
# the equator of the spherical charts and of the rotated cap
_EQUATORS = {"sphere": 0.5 * math.pi, "ellipsoid": 0.5 * math.pi,
             "perturbed_ellipsoid": 0.5 * math.pi, "e_theta": 0.0}


@pytest.mark.parametrize("name", sorted(catalog._BUILDERS))
def test_equator_section_of_every_catalog_surface(name):
    surface = catalog.make_surface(name, _SPEC_PARAMS.get(name, ()))
    section = cli._build_section(surface, "equator")
    if isinstance(surface, ImplicitSurface):
        assert section.normal == (0.0, 0.0, 1.0)
        assert section.offset_value == 0.0
        return
    (v0, v1) = surface.domain[1]
    assert section.axis == "v"
    assert section.value == _EQUATORS.get(name, 0.5 * (v0 + v1))
