"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sanitize --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with every span off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and writes a Chrome/Perfetto trace plus a self-time table under
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 on a
result, 2 when the environment or checkout is unusable, 3 when the run is
invalid (the load generator fell behind), 4 on an unexpected error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from harness import HostProbe, beyond, percentile
from spans import Spans, self_time_table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sanitize", "deforest", "conflicts", "serve")

#: Each of these selects a different program (execution tier, artifact
#: cache, observability, fault injection), so a run under any of them
#: would not measure the program the benchmark names.
_REFUSED_ENV = ("REPRO_EXEC", "REPRO_CACHE", "REPRO_OBS", "REPRO_CHAOS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _refused_env() -> list[str]:
    return sorted(k for k in os.environ if k.startswith(_REFUSED_ENV))


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def end_to_end(outcome, wspec: dict, slowness: float = 1.0, setup_slowness: float = 1.0) -> dict:
    """metric -> (value, samples, note); times divided, rates multiplied by
    the host's slowness in their phase (1.0 gives the raw figures)."""
    lat_ms = [s * 1e3 / slowness for s in outcome.latencies]
    pct = wspec["tail_pct"]
    n = len(lat_ms)
    tail_note = f"p{pct:g}" + ("" if beyond(n, pct) >= 10 else f", only {beyond(n, pct):.1f} samples beyond")
    return {
        "setup_s": (outcome.setup_s / setup_slowness, wspec["setups"], "median of set-ups"),
        "ops_per_s": (outcome.ops_per_s * slowness, outcome.attempted, wspec["ops_per_s_is"]),
        "p50_ms": (statistics.median(lat_ms) if lat_ms else float("nan"), n, wspec["latency_is"]),
        "tail_ms": (percentile(lat_ms, pct), n, tail_note),
        "peak_rss_mb": (outcome.peak_rss_mb, 1, wspec["rss_is"]),
        "ok_frac": (
            (outcome.attempted - outcome.failed) / outcome.attempted if outcome.attempted else 0.0,
            outcome.attempted,
            f"failed_frac = {outcome.failed}/{outcome.attempted}",
        ),
    }


def main(argv: list[str] | None = None, corrupt=None) -> int:
    args = _parse(argv)
    refused = _refused_env()
    if refused:
        print(f"error: refusing to run with {', '.join(refused)} set: each "
              "selects a different program", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load_json(os.path.join(HERE, "spec.json"))
    wspec = spec["workloads"][args.workload]
    args.root = ROOT
    args.work_dir = os.path.join(HERE, "out")
    args.corrupt = corrupt
    args.probe = HostProbe(spec["probe_reference_ms"], spec["probe_elasticity"])

    module = importlib.import_module(f"wl_{args.workload}")
    spans = Spans(bool(args.trace))
    started = time.time()
    try:
        outcome = module.run(args, wspec, spans)
    except getattr(module, "InvalidRun", ()) as exc:
        print(f"invalid run, not reported: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        outcome.layers["host_probe_ms"] = args.probe.median_ms()
        values = {
            name: (outcome.layers.get(name, 0.0), 1,
                   "measured" if name in outcome.layers else "layer not entered by this workload")
            for name in wanted
        }
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if wspec["scale_by_host_probe"]:
            values = end_to_end(outcome, wspec, args.probe.slowness(), args.probe.slowness("setup"))
        else:
            values = end_to_end(outcome, wspec)

    stem = os.path.join(args.work_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "started": started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong,
        "info": outcome.info,
        "host_probe_ms": {phase: args.probe.median_ms(phase) for phase in args.probe.samples},
        "host_probe_samples": {phase: len(v) for phase, v in args.probe.samples.items()},
        "raw": {k: v for k, (v, _n, _note) in end_to_end(outcome, wspec).items()}
        if not args.trace else None,
        "metrics": {k: {"value": v, "samples": n, "note": note, "unit": units[k]}
                    for k, (v, n, note) in values.items()},
    }
    os.makedirs(args.work_dir, exist_ok=True)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  commit {record['git_commit'][:12]}  "
          f"nproc {record['nproc']}  python {record['python']}")
    probes = ", ".join(
        f"{phase} {record['host_probe_ms'][phase]:.3f} ms (n={record['host_probe_samples'][phase]})"
        for phase in args.probe.samples
    )
    print(f"  host probe medians: {probes}; reference {spec['probe_reference_ms']} ms; "
          + ("times and rates below are scaled to the reference, raw ones are in the record"
             if wspec["scale_by_host_probe"] and not args.trace else "no scaling"))
    for name, (value, samples, note) in values.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]:<7} n={samples:<6} {note}")
    if args.trace:
        table = self_time_table(spans.self_times(), len({r[4] for r in spans.records if r[4] >= 0}))
        spans.write_chrome_trace(stem + ".trace.json", f"perfbench {args.workload}")
        with open(stem + ".selftime.txt", "w") as f:
            f.write(table + "\n")
        print(table)
        print(f"  trace: {stem}.trace.json")

    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _n, _note) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the result line must never be a half-measured run
        import traceback

        traceback.print_exc()
        sys.exit(4)
