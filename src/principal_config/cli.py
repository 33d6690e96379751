"""Command-line interface.

Subcommands mirror the library pipelines: umbilics, trace, cycles,
rotation, strata, stability.  Every run writes a JSON report (plus CSV
polylines and an SVG scene where applicable) into the output directory;
reruns with identical config and seed are byte-identical.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import catalog, cycles, foliation, umbilics
from .errors import ParamError, PrincipalConfigError
from .geometry import MAXIMAL, MINIMAL, ImplicitSurface
from .report import ReportDocument, RunConfig, trajectories_csv
from .svg_render import render_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_number(text):
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def parse_surface_spec(spec):
    """"name:p1,p2,..." -> catalog surface."""
    if ":" in spec:
        name, rest = spec.split(":", 1)
        params = tuple(_parse_number(t) for t in rest.split(",") if t)
    else:
        name, params = spec, ()
    return catalog.make_surface(name.strip(), params)


def parse_quadric_spec(spec, level=1.0):
    """"diag:a,b,c" or "sym:m11,m22,m33,m12,m13,m23" -> QuadricSpec.

    The coefficients describe the quadratic form x^T M x = level.
    """
    if ":" not in spec:
        raise ParamError("quadric spec needs a kind prefix, e.g. diag:...")
    kind, rest = spec.split(":", 1)
    vals = [_parse_number(t) for t in rest.split(",") if t]
    kind = kind.strip().lower()
    if kind == "diag":
        if len(vals) != 3:
            raise ParamError("diag quadric needs 3 values")
        M = np.diag(vals)
    elif kind == "sym":
        if len(vals) != 6:
            raise ParamError("sym quadric needs 6 values")
        m11, m22, m33, m12, m13, m23 = vals
        M = np.array([[m11, m12, m13], [m12, m22, m23], [m13, m23, m33]])
    else:
        raise ParamError(f"unknown quadric kind {kind!r}")
    return catalog.QuadricSpec(M, np.zeros(3), -float(level))


def load_config_file(path):
    """Simple key = value lines; '#' starts a comment."""
    options = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        options[key.replace("-", "_")] = value
    return options


def _write_outputs(args, report, trajectories=None, scene=None):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json())
    if trajectories:
        (out / "trajectories.csv").write_text(
            trajectories_csv(trajectories))
    if scene is not None:
        (out / "scene.svg").write_text(scene)
    print(f"wrote {out / 'report.json'}")


def _surface_arg(args):
    surface = parse_surface_spec(args.surface)
    return surface


def _records_payload(records):
    if isinstance(records, umbilics.AllUmbilicSurface):
        return {"all_umbilic": True, "detail": records.detail,
                "umbilics": []}
    return {"all_umbilic": False,
            "umbilics": [r.to_dict() for r in records]}


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_umbilics(args):
    surface = _surface_arg(args)
    records = umbilics.analyze_umbilics(surface, grid=args.grid)
    results = _records_payload(records)
    work = {}
    if not results["all_umbilic"]:
        recs = records
        try:
            check = umbilics.index_sum_check(surface, recs)
            results["index_sum"] = {
                "sum": check.index_sum,
                "euler_characteristic": check.euler_characteristic,
                "consistent": check.consistent,
            }
        except PrincipalConfigError as exc:
            results["index_sum"] = {"inconclusive": str(exc)}
    config = RunConfig("umbilics", args.surface, {"grid": args.grid},
                       args.seed)
    report = ReportDocument(config, results, work)
    scene = None
    if args.svg and not results["all_umbilic"] and records:
        scene = render_svg([], records, view=args.view)
    _write_outputs(args, report, scene=scene)
    return EXIT_OK


def cmd_trace(args):
    surface = _surface_arg(args)
    start = tuple(_parse_number(t) for t in args.start.split(","))
    opts = foliation.TraceOptions(
        rel_tol=args.tol,
        max_length=args.length if args.length > 0 else None)
    foliations = ([MINIMAL, MAXIMAL] if args.foliation == "both"
                  else [args.foliation])
    trajs = [foliation.trace(surface, start, fol, opts)
             for fol in foliations]
    results = {"traces": [{
        "foliation_id": t.foliation_id,
        "termination": t.termination,
        "length": t.length,
        "closed_length": t.closed_length,
        "points": len(t.points_xyz),
    } for t in trajs]}
    work = {k: sum(t.meta[k] for t in trajs) for k in ("steps", "evals")}
    config = RunConfig("trace", args.surface,
                       {"start": list(start), "foliation": args.foliation,
                        "tol": args.tol, "length": args.length}, args.seed)
    report = ReportDocument(config, results, work)
    scene = render_svg(trajs, view=args.view) if args.svg else None
    _write_outputs(args, report, trajectories=trajs, scene=scene)
    return EXIT_OK


def _seed_points(surface, n, seed):
    rng = np.random.default_rng(seed)
    return catalog._low_discrepancy_seeds(surface, n, rng, [])


def cmd_cycles(args):
    surface = _surface_arg(args)
    seeds = ([tuple(_parse_number(t) for t in chunk.split(","))
              for chunk in args.seeds.split(";") if chunk]
             if args.seeds else _seed_points(surface, args.n_seeds,
                                             args.seed))
    foliations = ([MINIMAL, MAXIMAL] if args.foliation == "both"
                  else [args.foliation])
    found = []
    log = cycles.SearchLog()
    for fol in foliations:
        found.extend(cycles.find_cycles(surface, seeds, fol, log=log))
    results = {"cycles": [c.to_dict() for c in found],
               "verdicts": [cycles.hyperbolicity(c) for c in found]}
    work = {"cycles_found": len(found), "steps": log.steps,
            "evals": log.evals,
            "dropped_seeds": [{"foliation": fol, "seed": list(seed),
                               "reason": reason}
                              for fol, seed, reason in log.dropped]}
    config = RunConfig("cycles", args.surface,
                       {"seeds": args.seeds or f"auto:{args.n_seeds}",
                        "foliation": args.foliation}, args.seed)
    report = ReportDocument(config, results, work)
    trajs = [c.curve for c in found]
    scene = render_svg(trajs, view=args.view) if (args.svg and trajs) \
        else None
    _write_outputs(args, report, trajectories=trajs, scene=scene)
    return EXIT_OK


def _build_section(surface, spec):
    spec = spec.strip().lower()
    if spec == "equator":
        if isinstance(surface, ImplicitSurface):
            return foliation.WorldPlaneSection(
                "equator", normal=(0, 0, 1), offset=0.0,
                axes=((1, 0, 0), (0, 1, 0)))
        return foliation.DomainSection("equator", "v",
                                       _equator_value(surface))
    if spec.startswith("meridian"):
        value = 0.0
        if ":" in spec:
            value = _parse_number(spec.split(":", 1)[1])
        return foliation.DomainSection(f"meridian:{value}", "u", value)
    if spec == "z0":
        return foliation.WorldPlaneSection(
            "z0", normal=(0, 0, 1), offset=0.0,
            axes=((1, 0, 0), (0, 1, 0)))
    raise ParamError(f"unknown section spec {spec!r}")


def _equator_value(surface):
    (v0, v1) = surface.domain[1]
    if surface.name in ("sphere", "ellipsoid", "perturbed_ellipsoid"):
        return 0.5 * math.pi
    if surface.name == "e_theta":
        return 0.0
    return 0.5 * (v0 + v1)


# rotation options with their defaults; a --sweep-rho run reads none of them
_ROTATION_DEFAULTS = {"surface": "", "section": "equator",
                      "foliation": MAXIMAL, "crossings": 60, "tol": 1e-7,
                      "length": 400.0}


def cmd_rotation(args):
    if args.sweep_rho:
        unread = [k for k, d in _ROTATION_DEFAULTS.items()
                  if getattr(args, k) != d]
        if unread:
            raise ParamError("--sweep-rho traces S_rho with fixed options "
                             "and does not read "
                             + ", ".join(f"--{k}" for k in unread))
        rhos = [_parse_number(t) for t in args.sweep_rho.split(",")]
        table = catalog.rho_sweep(rhos, n_seeds=args.n_seeds)
        results = {"rho_sweep": [
            {"rho": row["rho"], **row["estimate"].to_dict()}
            for row in table]}
        config = RunConfig("rotation", "s_rho",
                           {"sweep_rho": args.sweep_rho,
                            "n_seeds": args.n_seeds}, args.seed)
        _write_outputs(args, ReportDocument(config, results,
                                            {"rhos": len(rhos)}))
        return EXIT_OK

    surface = _surface_arg(args)
    section = _build_section(surface, args.section)
    seeds = catalog.section_seeds(surface, section, args.n_seeds)
    known = ()
    if not isinstance(surface, ImplicitSurface):
        found = umbilics.locate_umbilics(surface, grid=32)
        if not isinstance(found, umbilics.AllUmbilicSurface):
            known = found
    opts = foliation.TraceOptions(rel_tol=args.tol,
                                  max_step_factor=0.1,
                                  max_length=args.length,
                                  max_crossings=args.crossings,
                                  detect_closure=False,
                                  known_umbilics=known)
    est = catalog.rotation_estimate(surface, section, seeds,
                                    foliation_id=args.foliation,
                                    opts=opts)
    results = {"rotation": est.to_dict()}
    config = RunConfig("rotation", args.surface,
                       {"section": args.section, "n_seeds": args.n_seeds,
                        "foliation": args.foliation,
                        "crossings": args.crossings}, args.seed)
    _write_outputs(args, ReportDocument(config, results,
                                        {"crossings": est.crossing_count}))
    return EXIT_OK


def cmd_strata(args):
    quadric = parse_quadric_spec(args.quadric, level=args.level)
    stratum = catalog.quadric_stratum(quadric, tol=args.tol)
    results = {"stratum": {
        "tag": stratum.tag,
        "multiplicities": list(stratum.multiplicities),
        "margin": stratum.margin,
        "semi_axes": list(stratum.semi_axes),
    }}
    config = RunConfig("strata", args.quadric,
                       {"tol": args.tol, "level": args.level}, args.seed)
    _write_outputs(args, ReportDocument(config, results))
    print(stratum.tag)
    return EXIT_OK


def cmd_stability(args):
    surface = _surface_arg(args)
    budget = catalog.StabilityBudget(
        grid=args.grid, cycle_seeds=args.cycle_seeds,
        omega_seeds=args.omega_seeds,
        trace_length_factor=args.length_factor, seed=args.seed)
    rep = catalog.stability_report(surface, budget)
    results = {
        "overall": rep.overall,
        "caveat": rep.caveat,
        "conditions": {c.name: {
            "status": c.status, "detail": c.detail,
            "witnesses": c.witnesses} for c in rep.conditions()},
    }
    config = RunConfig("stability", args.surface,
                       {"grid": args.grid, "cycle_seeds": args.cycle_seeds,
                        "omega_seeds": args.omega_seeds,
                        "length_factor": args.length_factor}, args.seed)
    _write_outputs(args, ReportDocument(config, results))
    print(rep.overall)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="principal-config",
        description="Principal curvature configurations: umbilics, "
                    "foliations, cycles, stability audits.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, surface=True, scene=False):
        if surface:
            sp.add_argument("--surface", required=True,
                            help="name:p1,p2,... e.g. ellipsoid:3,2,1")
        sp.add_argument("--out", default="pc-out",
                        help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", default=None,
                        help="key = value config file; command-line "
                             "flags override it")
        if scene:
            sp.add_argument("--view", default="+y",
                            help="SVG view axis (+x..-z)")
            sp.add_argument("--svg", action="store_true")

    sp = sub.add_parser("umbilics", help="locate and classify umbilics")
    common(sp, scene=True)
    sp.add_argument("--grid", type=int, default=32)
    sp.set_defaults(fn=cmd_umbilics)

    sp = sub.add_parser("trace", help="integrate principal lines")
    common(sp, scene=True)
    sp.add_argument("--start", required=True, help="u,v (or x,y,z)")
    sp.add_argument("--foliation", default="both",
                    choices=[MINIMAL, MAXIMAL, "both"])
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--length", type=float, default=-1.0)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("cycles", help="find principal cycles and T'")
    common(sp, scene=True)
    sp.add_argument("--seeds", default="",
                    help="semicolon-separated u,v pairs")
    sp.add_argument("--n-seeds", type=int, default=8)
    sp.add_argument("--foliation", default="both",
                    choices=[MINIMAL, MAXIMAL, "both"])
    sp.set_defaults(fn=cmd_cycles)

    sp = sub.add_parser("rotation", help="second-return rotation estimate")
    common(sp, surface=False)
    rot = _ROTATION_DEFAULTS
    sp.add_argument("--surface", default=rot["surface"],
                    help="required unless --sweep-rho is given")
    sp.add_argument("--section", default=rot["section"])
    sp.add_argument("--foliation", default=rot["foliation"],
                    choices=[MINIMAL, MAXIMAL])
    sp.add_argument("--n-seeds", type=int, default=6)
    sp.add_argument("--crossings", type=int, default=rot["crossings"])
    sp.add_argument("--tol", type=float, default=rot["tol"])
    sp.add_argument("--length", type=float, default=rot["length"])
    sp.add_argument("--sweep-rho", default="",
                    help="comma list of rho values for the cubic family")
    sp.set_defaults(fn=cmd_rotation)

    sp = sub.add_parser("strata", help="quadric stability stratum")
    common(sp, surface=False)
    sp.add_argument("--quadric", required=True,
                    help="diag:a,b,c or sym:m11,m22,m33,m12,m13,m23")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--level", type=float, default=1.0)
    sp.set_defaults(fn=cmd_strata)

    sp = sub.add_parser("stability", help="audit the four conditions")
    common(sp)
    sp.add_argument("--grid", type=int, default=28)
    sp.add_argument("--cycle-seeds", type=int, default=8)
    sp.add_argument("--omega-seeds", type=int, default=4)
    sp.add_argument("--length-factor", type=float, default=30.0)
    sp.set_defaults(fn=cmd_stability)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "config", None):
        try:
            file_opts = load_config_file(args.config)
        except (OSError, ParamError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        specified = {a.split("=")[0].lstrip("-").replace("-", "_")
                     for a in (argv or sys.argv[1:])
                     if a.startswith("--")}
        for key, value in file_opts.items():
            if not hasattr(args, key):
                print(f"config error: unknown key {key!r}", file=sys.stderr)
                return EXIT_USAGE
            if key in specified:
                continue
            current = getattr(args, key)
            if isinstance(current, bool):
                value = value.lower() in ("1", "true", "yes")
            elif isinstance(current, (int, float)):
                try:
                    value = type(current)(value)
                except ValueError:
                    print(f"config error: {key} = {value!r} is not "
                          f"{type(current).__name__}", file=sys.stderr)
                    return EXIT_USAGE
            setattr(args, key, value)
    try:
        return args.fn(args)
    except ParamError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrincipalConfigError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
