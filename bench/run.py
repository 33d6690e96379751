"""Benchmark of principal-config: three workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh process
(``worker.py``) with the program's thread option unset and BLAS/OpenMP held
to one thread; set-up is timed in further fresh processes and reported as
the median.  Times are at the reference pace of ``pace.py``.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Raw results, CLI outputs and span
dumps go to ``bench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_PROCESSES = 2          # plus the set-up of the run's own worker
RUN_LIMIT_S = 175            # the whole run, set-up processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env.pop("PRINCIPAL_CONFIG_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_worker(args, env, deadline):
    """Run worker.py to its end and return the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metrics(res, setups, trace):
    """The run's metrics by the names and units of BENCHMARK.json."""
    if trace:
        kind = "per_layer"
        values = dict(res["layers"], **{
            "trace.overhead_s": res["overhead_s"],
            "pass_raw_s": res["pass_raw_s"],
            "setup_raw_s": statistics.median(s["setup_raw_s"]
                                             for s in setups),
            "pace.slowdown": res["slowdown"]})
        for stage in ("umbilics_s", "scan_s", "cycles_s", "rotation_s"):
            values[stage] = res["stages"].get(stage, 0.0)
    else:
        kind = "end_to_end"
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "pass_s": res["pass_s"],
                  "peak_rss_mib": res["peak_rss_mib"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "principal_config" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'principal_config'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    env = worker_env()
    setups = [run_worker(["setup", "--workload", args.workload], env,
                         deadline)
              for _ in range(SETUP_PROCESSES)]
    res = run_worker(["run", "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], env, deadline)
    setups.append(res)
    for msg in res["messages"]:
        print(f"check failed: {msg}", file=sys.stderr)

    correct = res["failed"] == 0 and res.get("counts_repeat", True)
    out = {"correct": correct, "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": metrics(res, setups, args.trace)}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(
        {**out, "raw": res, "setups": setups[:-1]}, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
