"""One workload in a fresh process; ``run.py`` starts it.

    python3 bench/worker.py setup --workload NAME
    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1

``setup`` times the imports and the building of the workload's surfaces.
``run`` then repeats whole passes over the workload's operations, in an
order drawn from the seed, for as many passes as fit in ``--seconds`` (at
least ``MIN_PASSES``), checks every output, and prints one JSON object as
its last line.  With ``--trace 1`` a round is one untraced pass followed
by one traced pass, and one round is enough.

Set-up and untraced passes run under a ``pace.Pacer``: every time is
reported both raw and at the reference pace.  ``pass_s`` adds up each
operation's median time at the reference pace over the passes.
"""

import time

T0 = time.perf_counter()

import pace  # noqa: E402

PACER = pace.Pacer()
PACER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3      # a median over passes that one odd pass cannot move


def run_pass(workload, ops, paced=True):
    """One pass over ``ops``; timings first, checks after the timed part.
    ``paced`` passes run under ``PACER`` and also get times at the
    reference pace."""
    stages, outputs, failures, op_times, op_paced = {}, {}, {}, {}, {}
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            out = workload.run(op, stages)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failures[op] = [f"{op}: raised {exc!r}"]
            continue
        end = time.perf_counter()
        op_times[op] = end - t
        if paced:
            op_paced[op] = PACER.normalized(t, end)
        if workload.stage:
            stages.setdefault(workload.stage, []).append(end - t)
        outputs[op] = out
    wall = time.perf_counter() - start
    for op, out in outputs.items():
        msgs = workload.check(op, out)
        if msgs:
            failures[op] = msgs
    for op, msgs in workload.check_pass(outputs).items():
        failures.setdefault(op, []).extend(msgs)
    return {"wall_s": wall, "op_s": op_times, "op_paced_s": op_paced,
            "stages": stages,
            "failed": len(failures),
            "messages": [m for msgs in failures.values() for m in msgs]}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    import workloads
    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    setup_end = time.perf_counter()
    setup = {"setup_s": PACER.normalized(T0, setup_end),
             "setup_raw_s": setup_end - T0}
    if args.mode == "setup":
        PACER.stop()
        print(json.dumps(setup))
        return 0

    ops = workload.ops()
    random.Random(args.seed).shuffle(ops)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.SpanRecorder()

    untraced, traced, layers = [], [], None
    consistent = True
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, ops))
        if recorder is not None:
            PACER.stop()
            recorder.clear()
            recorder.install()
            try:
                traced.append(run_pass(workload, ops, paced=False))
            finally:
                recorder.uninstall()
                PACER.start()
            metrics = spans.layer_metrics(recorder)
            if layers is None:
                layers = metrics
                recorder.dump(OUT_DIR / f"spans-{args.workload}"
                              f"-seed{args.seed}.npz")
            elif spans.count_metrics(metrics) != spans.count_metrics(layers):
                consistent = False
        elapsed = time.perf_counter() - start
        rounds = len(untraced)
        if (rounds >= (1 if args.trace else MIN_PASSES)
                and elapsed + elapsed / rounds > args.seconds):
            break

    PACER.stop()

    def per_op_median(key):
        return sum(_median(p[key][op] for p in untraced if op in p[key])
                   for op in ops)

    passes = untraced + traced
    result = {
        **setup,
        "attempted": len(ops) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "messages": [m for p in passes for m in p["messages"]],
        "passes": len(untraced),
        "pass_s": per_op_median("op_paced_s"),
        "pass_raw_s": per_op_median("op_s"),
        "slowdown": PACER.slowdown(),
        "op_s": [p["op_s"] for p in untraced],
        "op_paced_s": [p["op_paced_s"] for p in untraced],
        "stages": {k: _median(t for p in untraced
                              for t in p["stages"].get(k, []))
                   for k in untraced[0]["stages"]},
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["layers"] = layers
        result["counts_repeat"] = consistent
        result["overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                - statistics.median(p["wall_s"]
                                                    for p in untraced))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
