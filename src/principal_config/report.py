"""Report documents: JSON schema, CSV polylines, determinism discipline.

Reports embed the config echo and seed; two runs with identical inputs
must serialize byte-identically, so every value is converted to plain
Python types and the timing block holds deterministic work counters
(trace steps, crossing counts) rather than wall-clock times.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__

SCHEMA_VERSION = 1
CSV_COLUMNS = ["x", "y", "z", "arclength", "foliation_id"]


def _plain(value):
    """Recursively convert numpy scalars/arrays to plain Python types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, float) and value != value:   # NaN
        return None
    return value


@dataclass
class RunConfig:
    command: str
    surface: str = ""
    options: dict = field(default_factory=dict)
    seed: int = 0

    def echo(self):
        return _plain({
            "command": self.command,
            "surface": self.surface,
            "options": dict(sorted(self.options.items())),
            "seed": self.seed,
        })


@dataclass
class ReportDocument:
    config: RunConfig
    results: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": "principal-config", "version": __version__},
            "config": self.config.echo(),
            "results": _plain(self.results),
            "work": _plain(self.work),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def parse(text):
        return json.loads(text)


def trajectories_csv(trajectories):
    """CSV polylines with the fixed column set."""
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for traj in trajectories:
        for p, s in zip(traj.points_xyz, traj.arclength):
            buf.write(f"{p[0]:.12g},{p[1]:.12g},{p[2]:.12g},"
                      f"{s:.12g},{traj.foliation_id}\n")
    return buf.getvalue()
