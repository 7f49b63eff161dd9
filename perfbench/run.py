"""End-to-end benchmark of the QBP partitioner, its baselines and its service.

Run from the repository root::

    python3 perfbench/run.py --workload table2-full --seconds 50 --trace 0

One run is one workload in this fresh process: set up its instances
from ``--seed`` (the median of several set-ups is ``setup_s``), do an
untimed warm-up, then repeat the workload's deterministic unit of work
back to back until ``--seconds`` would be exceeded (at least twice) and
report the median of each metric over the units.  Times are rescaled to
the machine's reference speed by the probe in ``speed.py``.  Every
unit's outputs are checked.  ``--trace 1`` then runs one more unit with
the layer tracer installed (``layers.py``) and reports the per-layer
metrics.  The metric names and units are those of ``BENCHMARK.json``.
The last line of standard output is the JSON result.  See ``NOTES.md``.
"""

from __future__ import annotations

import os
import sys

# Steadiness: no REPRO_* knobs from the caller and single-threaded
# BLAS/OpenMP pools, set before numpy is first imported.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
for _name in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"

SETUP_REPEATS = 20
"""Set-ups per run; ``setup_s`` is their median (each is 0.05-0.2 s)."""

MIN_UNITS = 2
"""Units per timed phase at the least: the checks compare units."""

UNTRACED_LAYER_METRICS = {
    "paper.bootstrap_s": "bootstrap_s",
    "paper.qbp_s": "qbp_s",
    "paper.gfm_s": "gfm_s",
    "paper.gkl_s": "gkl_s",
    "paper.qbp_cost": "qbp_cost",
    "paper.gfm_cost": "gfm_cost",
    "service.solve_p50_ms": "solve_p50_ms",
    "raw.wall_s": "raw_wall_s",
    "raw.cpu_s": "raw_cpu_s",
    "raw.setup_s": "raw_setup_s",
    "probe.kernel_ms": "probe_kernel_ms",
}
"""Per-layer metrics taken from the untraced units of a traced run.

The ``paper.*`` columns exist on the table workloads only and read 0
elsewhere; ``raw.*`` are the gated times before rescaling."""

TRACE_DIR = ".perfbench"
"""Where traced runs write their spans, relative to the working directory."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: repro.eval.workloads.BASE_SEED, Table I's)",
    )
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken instances, for the self-test"
    )
    return parser.parse_args(argv)


def metric_units(section: str) -> dict:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``, in order."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def timed_phase(workload, seconds: float) -> list:
    """Units back to back until the next one would pass ``seconds``."""
    units = []
    started = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        units.append(workload.unit())
        now = time.perf_counter()
        if len(units) >= MIN_UNITS and (now - started) + (now - unit_start) > seconds:
            return units


def traced_unit(workload):
    """One more unit with every layer wrapped; returns (unit, tracer, counters)."""
    from layers import COUNTERS, ROOT, LayerTracer, install
    from repro.obs.telemetry import Telemetry, use_telemetry

    ambient = Telemetry(enabled=True)
    sources = [ambient] + workload.telemetry()
    before = [tel.metrics_snapshot()["counters"] for tel in sources]
    tracer = LayerTracer()
    install(tracer)
    try:
        with use_telemetry(ambient):
            with tracer.span(ROOT) as root:
                tracer.root = root
                unit = workload.unit(span=tracer.span)
    finally:
        tracer.restore()
    counters = {name: 0.0 for name in COUNTERS}
    for tel, start in zip(sources, before):
        after = tel.metrics_snapshot()["counters"]
        for name in COUNTERS:
            counters[name] += after.get(name, 0) - start.get(name, 0)
    return unit, tracer, counters


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from repro.eval.workloads import BASE_SEED
    from speed import SpeedProbe
    from workloads import WORKLOADS, make_workload

    seed = BASE_SEED if args.seed is None else args.seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    workload = make_workload(args.workload, tiny=args.tiny)
    probe = SpeedProbe()
    try:
        with probe:
            stamps = [workload.setup(seed) for _ in range(SETUP_REPEATS)]
            workload.start()
            workload.warm_up()
            probed = len(probe.samples)
            units = timed_phase(workload, args.seconds)
            timed = probe.samples[probed:]
            traced = traced_unit(workload) if args.trace else None
        checked = units + ([traced[0]] if traced else [])
        problems = workload.check(checked)
    finally:
        workload.stop()
    if any(unit.costs != units[0].costs for unit in checked):
        problems.append(f"costs differ between repeats: {[u.costs for u in checked]}")

    median = statistics.median

    def rescaled(unit, seconds):
        return probe.rescale(unit.started, unit.started + unit.wall_s, seconds)

    measured = {
        "wall_s": median([rescaled(u, u.wall_s) for u in units]),
        "cpu_s": median([rescaled(u, u.cpu_s) for u in units]),
        "setup_s": median([probe.rescale(t0, t2, t2 - t0) for t0, _, t2 in stamps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_wall_s": median([u.wall_s for u in units]),
        "raw_cpu_s": median([u.cpu_s for u in units]),
        "raw_setup_s": median([t2 - t0 for t0, _, t2 in stamps]),
        "probe_kernel_ms": 1000 * median(t for _, t in timed),
        **{k: median([u.phases[k] for u in units]) for k in units[0].phases},
        **units[0].costs,
        **{k: median([u.extra[k] for u in units]) for k in units[0].extra},
    }
    for solver in ("qbp", "gfm"):
        measured[f"{solver}_vs_gkl"] = measured[f"{solver}_cost"] / measured["gkl_cost"]
    print(f"{args.workload} seed={seed}: {len(units)} unit(s)")
    for name, value in measured.items():
        print(f"  {name:<16} {value:>14.6g}")

    if traced:
        from layers import layer_metrics

        unit, tracer, counters = traced
        layer = layer_metrics(tracer, counters)
        layer["workloads.build_s"] = median(
            [probe.rescale(t0, t1, t1 - t0) for t0, t1, _ in stamps]
        )
        layer["trace.overhead_s"] = rescaled(unit, unit.wall_s) - measured["wall_s"]
        for name, source in UNTRACED_LAYER_METRICS.items():
            layer[name] = measured.get(source, 0.0)
        out_dir = Path(TRACE_DIR)
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"trace-{args.workload}-{seed}.jsonl"
        tracer.write_jsonl(spans_path, tracer.all_spans())
        print(f"  spans written to {spans_path}")
        units_of = metric_units("per_layer")
        for name, unit_name in units_of.items():
            print(f"  {name:<32} {layer[name]:>14.6g} {unit_name}")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in units_of.items()}
    else:
        units_of = metric_units("end_to_end")
        metrics = {n: {"value": measured[n], "unit": u} for n, u in units_of.items()}

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(u.attempted for u in checked),
        "failed": sum(u.failed for u in checked),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
