"""End-to-end benchmark of the active rule database.

Run from the repository root::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced and
                                        # traced, plus the layers-off
                                        # reference (each its own process)

Workloads (perfbench/records.json records why each exists, what it
stresses and bypasses, and its sizes):

* ``oltp``    in-process, one caller: one-row rule transactions and point
              reads on a 2047-employee org chart;
* ``cascade`` in-process, one caller: the paper's set-oriented cascades
              (Examples 3.1, 3.2, 4.1) on a 63-employee org chart;
* ``server``  ``python -m repro.server`` in its own process, durable with
              fsync and group commit, driven by two client sessions that
              take turns request by request (one writes, one reads).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics (CPU times at reference speed, see perfbench/measure.py;
``error_rate`` is its ``failed``/``attempted``); with ``--trace 1`` it
holds the per-layer metrics of a second, traced window (spans from
wrapping each layer's public functions). Every op's result and the final
state are checked against a Python model of the workload; a failed check
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("oltp", "cascade", "server")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _import_program():
    """Put the checkout's sources on the path; fail if they are absent."""
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        sys.exit(2)


def run_workload(workload, seed, seconds, trace, reference=False):
    if workload == "server":
        from perfbench import serverload

        return serverload.run(seed, seconds, OUT_DIR, trace=trace)
    from perfbench import inproc

    return inproc.run(workload, seed, seconds, trace=trace,
                      reference=reference)


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_end_to_end(workload, result):
    from perfbench.measure import END_TO_END_UNITS

    print(f"== {workload}: end-to-end (untraced window; CPU times at "
          f"reference speed, wall clock in brackets)")
    for name, unit in END_TO_END_UNITS.items():
        line = f"  {name:<14} {_fmt(result[name]):>14} {unit}"
        if name in result["raw"]:
            line += f"  [{_fmt(result['raw'][name])}]"
        if name == "tail_ms":
            line += (f"   (p{result['tail_percentile']:.3f}: 10 of "
                     f"{result['samples']} ops beyond it; median of "
                     f"{result['slices']} slices)")
        print(line)
    counters = result["counters"]
    scope = ("per set-up, repeated exactly" if result.get("deterministic")
             else "not checked for repeats")
    print(f"  counters over the {result['warmup_ops']} warm-up ops ({scope}):")
    for name, value in counters.items():
        print(f"    {name:<18} {value}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")


def report_layers(workload, result):
    from perfbench.measure import LAYER_UNITS

    print(f"== {workload}: per layer (traced window, "
          f"{result['traced_ops']} ops)")
    layers = result["layers"]
    for name, unit in LAYER_UNITS.items():
        print(f"  {name:<42} {_fmt(layers.get(name)):>12} {unit}")
    traced = result["traced"]
    print(f"  tracing overhead: p50 {traced['p50_ms']:.4g} ms traced vs "
          f"{result['p50_ms']:.4g} ms untraced; ops/s "
          f"{traced['ops_per_s']:.4g} vs {result['ops_per_s']:.4g}")
    select_ms = layers["relational.select_self_ms_per_op"]
    op_ms = traced["raw"]["mean_op_ms"]
    print(f"  evaluate_select self time is {select_ms / op_ms:.1%} of the "
          f"mean traced op ({op_ms:.4g} ms wall clock)")


def write_spans(workload, seed, result):
    from perfbench.trace import write_spans

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv")
    write_spans(path, result.pop("spans"))
    print(f"  spans written to {os.path.relpath(path, ROOT)}")


def metric_json(result, names, units):
    return {name: {"value": float(result[name]), "unit": units[name]}
            for name in names}


def single(args):
    from perfbench.measure import (
        COMMON_LAYERS,
        END_TO_END_UNITS,
        LAYER_UNITS,
        one_cpu,
    )

    with one_cpu():
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.reference)
    label = args.workload + (" (every optimisation layer off)"
                             if args.reference else "")
    report_end_to_end(label, result)
    if args.trace:
        report_layers(args.workload, result)
        write_spans(args.workload, args.seed, result)
        metrics = metric_json(result["layers"], COMMON_LAYERS, LAYER_UNITS)
    else:
        names = [n for n in END_TO_END_UNITS if n != "error_rate"]
        metrics = metric_json(result, names, END_TO_END_UNITS)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def everything(args):
    """Every workload untraced and traced, then the layers-off reference,
    each run in its own process so peak RSS and heap state are its own."""
    failed = attempted = 0
    results = {}

    def child(workload, *flags):
        nonlocal failed, attempted
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), *flags]
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        summary = json.loads(lines[-1])
        failed += summary["failed"] + (completed.returncode != 0)
        attempted += summary["attempted"]
        return summary["metrics"]

    for workload in WORKLOADS:
        results[workload] = child(workload, "--trace", "0")
        child(workload, "--trace", "1")
    print("== reference: every optimisation layer off (informational, "
          "not gated)")
    rows = []
    for workload in ("oltp", "cascade"):
        reference = child(workload, "--trace", "0", "--reference")
        for name in ("p50_ms", "ops_per_s"):
            rows.append((workload, name, results[workload][name]["value"],
                         reference[name]["value"]))
    print(f"  {'workload':<9} {'metric':<10} {'all layers':>12} "
          f"{'interpreter':>12}")
    for workload, name, on, off in rows:
        print(f"  {workload:<9} {name:<10} {on:>12.5g} {off:>12.5g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{workload}.{name}": metric
            for workload, metrics in results.items()
            for name, metric in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of each measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="turn every optimisation layer of "
                             "ActiveDatabase.database off (oltp, cascade)")
    args = parser.parse_args(argv)
    if args.reference and args.workload not in ("oltp", "cascade"):
        parser.error("--reference needs --workload oltp or cascade")
    _import_program()
    if args.workload is None:
        return everything(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
