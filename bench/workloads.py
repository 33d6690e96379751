"""The benchmark's workloads: their inputs, operations and checks.

An operation is one surface (``umbilic-scan``), one ``cycles``
invocation (``torus-cycles``) or one rho (``levelset-rotation``).  A
workload uses the CLI's ``main`` where a subcommand covers the whole task
and the library functions where none does.  Operations call the program
through module attributes, so wrappers installed by ``spans`` see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import checks


class Workload:
    name = ""
    stage = None        # metric name for the time of a whole operation

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir) / self.name
        from principal_config import cli, foliation, umbilics
        self.cli, self.foliation, self.umbilics = cli, foliation, umbilics

    def ops(self):
        """Operation names in their canonical order."""
        raise NotImplementedError

    def run(self, op, stages):
        """Run one operation; record stage seconds in ``stages``; return
        what ``check`` needs."""
        raise NotImplementedError

    def check(self, op, output):
        """Failure messages for one operation's output."""
        raise NotImplementedError

    def check_pass(self, outputs):
        """Failure messages per operation from checks across operations."""
        return {}

    def _cli(self, op, argv):
        out = self.out_dir / op
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"principal-config {argv[0]} exited {code}")
        return json.loads((out / "report.json").read_text())


class UmbilicScan(Workload):
    """Condition (a) and (c) after a perturbation: locate and classify the
    umbilics, then scan their separatrices for connections (acceptance
    criterion 8)."""

    name = "umbilic-scan"
    SURFACES = ("perturbed_ellipsoid:3,2,1,0.008,0",)
    GRID = 32

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.surfaces = {spec: self.cli.parse_surface_spec(spec)
                         for spec in self.SURFACES}
        for surface in self.surfaces.values():
            surface.diameter()          # fills the chart's cached diameter

    def ops(self):
        return list(self.surfaces)

    def run(self, op, stages):
        surface = self.surfaces[op]
        t0 = time.perf_counter()
        records = self.umbilics.analyze_umbilics(surface, grid=self.GRID)
        t1 = time.perf_counter()
        scan = self.foliation.separatrix_connection_scan(surface, records)
        t2 = time.perf_counter()
        stages.setdefault("umbilics_s", []).append(t1 - t0)
        stages.setdefault("scan_s", []).append(t2 - t1)
        return records, scan

    def check(self, op, output):
        records, scan = output
        if not isinstance(records, list):
            return [f"{op}: no umbilic list ({type(records).__name__})"]
        out = checks.check_index_sum([r.type for r in records])
        out += checks.check_umbilic_gaps(self.surfaces[op].point,
                                         [r.uv for r in records])
        if len(records) != 4:
            out.append(f"{len(records)} umbilics, expected 4")
        if scan.connections:
            out.append(f"connections {scan.connections} after the "
                       "perturbation")
        if scan.undetermined:
            out.append(f"{len(scan.undetermined)} undetermined separatrices")
        out += checks.check_gaps_decided(scan.gaps)
        return [f"{op}: {msg}" for msg in out]


class TorusCycles(Workload):
    """Condition (b): principal cycles and T' on tori (criterion 5)."""

    name = "torus-cycles"
    stage = "cycles_s"
    # (surface, foliation, seed) -- one ``cycles`` invocation each
    INVOCATIONS = (
        ("torus:2,1", "maximal", "0.3,0.9"),
        ("perturbed_torus:2,1,0.05", "maximal", "0.4,4.6"),
    )

    def ops(self):
        return [f"{s.split(':')[0]}-{f}-{seed}"
                for s, f, seed in self.INVOCATIONS]

    def _invocation(self, op):
        return self.INVOCATIONS[self.ops().index(op)]

    def run(self, op, stages):
        surface, fol, seed = self._invocation(op)
        return self._cli(op, ["cycles", "--surface", surface,
                              "--seeds", seed, "--foliation", fol])

    def check(self, op, report):
        round_torus = self._invocation(op)[0].startswith("torus:")
        found = report["results"]["cycles"]
        out = ([] if len(found) == 1
               else [f"{len(found)} cycles from one seed, expected 1"])
        for cyc in found:
            if round_torus:
                out += checks.check_torus_parallel(
                    cyc["period_length"], cyc["anchor_xyz"],
                    cyc["tprime_fd"])
            else:
                out += checks.check_tprime_estimators(cyc)
        return [f"{op}: {msg}" for msg in out]


class LevelsetRotation(Workload):
    """Rotation of the maximal lines on the cubic level sets S_rho
    (criterion 10), one ``rotation --sweep-rho`` invocation per rho."""

    name = "levelset-rotation"
    stage = "rotation_s"
    RHOS = (0.0, 0.05, -0.05)
    N_SEEDS = 1

    def ops(self):
        return [f"rho={rho:g}" for rho in self.RHOS]

    def run(self, op, stages):
        rho = op.split("=", 1)[1]
        return self._cli(op, ["rotation", f"--sweep-rho={rho}",
                              "--n-seeds", str(self.N_SEEDS)])

    @staticmethod
    def _row(report):
        rows = report["results"]["rho_sweep"]
        return rows[0] if len(rows) == 1 else {}

    def check(self, op, report):
        rho = float(op.split("=", 1)[1])
        return [f"{op}: {msg}"
                for msg in checks.check_rotation_row(rho, self._row(report))]

    def check_pass(self, outputs):
        failures = {}
        for rho in self.RHOS:
            plus, minus = f"rho={rho:g}", f"rho={-rho:g}"
            if rho <= 0.0 or plus not in outputs or minus not in outputs:
                continue
            msgs = checks.check_mirror_pair(
                rho, self._row(outputs[plus]).get("mean_rotation"),
                self._row(outputs[minus]).get("mean_rotation"))
            if msgs:
                failures[plus] = failures[minus] = msgs
        return failures


WORKLOADS = {w.name: w for w in (UmbilicScan, TorusCycles, LevelsetRotation)}
