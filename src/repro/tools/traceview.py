"""Trace inspector for the combined JSONL traces the CLIs write.

Reads a trace produced by ``--trace`` (spans + events in one JSONL
file, see ``docs/OBSERVABILITY.md``) and renders, in order:

* a **span summary**: the top spans aggregated by name, ranked by
  *self time* (wall time minus the wall time of direct children), with
  call counts and CPU seconds - the text-mode flamegraph,
* a **convergence table** per solver, built from ``iteration`` events:
  iterations run, first/best/final cost, improvement count,
* a **fallback audit**: every non-ok fallback-ladder try (ladder, rung,
  status, error), so a degraded run explains how it degraded,
* a **checkpoint summary**: snapshot count, bytes written, last
  iteration captured.

Examples
--------
::

    python -m repro.tools.partition circuit.json --trace out.jsonl
    python -m repro.tools.traceview out.jsonl
    python -m repro.tools.traceview out.jsonl --top 10 --no-events

The ``flame`` subcommand renders the collapsed-stack profile written by
``--prof-out`` (see :mod:`repro.obs.prof`) as a text-mode flamegraph::

    python -m repro.tools.eval run ... --profile --prof-out prof.txt
    python -m repro.tools.traceview flame prof.txt
    python -m repro.tools.traceview flame prof.txt --min-percent 2 --depth 12
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import validate_trace_line


def load_trace(path) -> Tuple[List[dict], List[dict]]:
    """Parse a combined JSONL trace into ``(spans, events)``.

    Every line is schema-validated; a malformed line raises
    ``ValueError`` naming the offending line number.
    """
    spans: List[dict] = []
    events: List[dict] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = validate_trace_line(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if record["type"] == "span":
            spans.append(record)
        elif record["type"] == "event":
            events.append(record)
        # "meta" records (epoch/clock header) carry no spans or events.
    return spans, events


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def self_times(spans: List[dict]) -> Dict[int, float]:
    """Wall self-time per span id: own wall minus direct children's wall."""
    own = {span["id"]: float(span["wall"]) for span in spans}
    selfs = dict(own)
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in selfs:
            selfs[parent] -= float(span["wall"])
    return selfs


def aggregate_spans(spans: List[dict]) -> List[dict]:
    """Per-name aggregate: calls, total wall, total self, total CPU."""
    selfs = self_times(spans)
    groups: Dict[str, dict] = {}
    for span in spans:
        g = groups.setdefault(
            span["name"], {"name": span["name"], "calls": 0, "wall": 0.0,
                           "self": 0.0, "cpu": 0.0}
        )
        g["calls"] += 1
        g["wall"] += float(span["wall"])
        g["self"] += selfs[span["id"]]
        g["cpu"] += float(span["cpu"])
    return sorted(groups.values(), key=lambda g: g["self"], reverse=True)


def span_coverage(spans: List[dict]) -> Optional[float]:
    """Fraction of the trace's wall extent covered by root spans.

    The extent is ``max(end) - min(start)`` over all spans; the cover is
    the summed wall of parentless spans (roots never overlap in a
    single-threaded run).  ``None`` when the trace has no spans.
    """
    if not spans:
        return None
    start = min(float(s["start"]) for s in spans)
    end = max(float(s["start"]) + float(s["wall"]) for s in spans)
    extent = end - start
    if extent <= 0:
        return 1.0
    cover = sum(float(s["wall"]) for s in spans if s.get("parent") is None)
    return min(cover / extent, 1.0)


def render_span_summary(spans: List[dict], top: int) -> str:
    """The self-time-ranked span table plus the coverage line."""
    if not spans:
        return "no spans in trace"
    rows = aggregate_spans(spans)[:top]
    width = max(len(r["name"]) for r in rows)
    lines = [
        f"{'span':<{width}}  {'calls':>6}  {'self s':>9}  {'total s':>9}  {'cpu s':>9}"
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<{width}}  {r['calls']:>6}  {r['self']:>9.4f}  "
            f"{r['wall']:>9.4f}  {r['cpu']:>9.4f}"
        )
    coverage = span_coverage(spans)
    lines.append(f"span coverage: {100.0 * coverage:.1f}% of trace wall time")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Event analysis
# ----------------------------------------------------------------------
def render_convergence(events: List[dict]) -> str:
    """Per-solver convergence table from ``iteration`` events."""
    by_solver: Dict[str, List[dict]] = defaultdict(list)
    for event in events:
        if event["event"] == "iteration":
            by_solver[event["solver"]].append(event)
    if not by_solver:
        return "no iteration events in trace"
    lines = [
        f"{'solver':<10}  {'iters':>6}  {'first cost':>12}  {'best cost':>12}  "
        f"{'final cost':>12}  {'improved':>8}"
    ]
    for solver in sorted(by_solver):
        entries = by_solver[solver]
        best = min(float(e["best_cost"]) for e in entries)
        improved = sum(1 for e in entries if e.get("improved"))
        lines.append(
            f"{solver:<10}  {len(entries):>6}  {float(entries[0]['cost']):>12.4g}  "
            f"{best:>12.4g}  {float(entries[-1]['cost']):>12.4g}  {improved:>8}"
        )
    return "\n".join(lines)


def render_fallbacks(events: List[dict]) -> str:
    """Audit of non-ok fallback-ladder tries (``fallback`` events)."""
    fallbacks = [e for e in events if e["event"] == "fallback"]
    if not fallbacks:
        return "no fallbacks recorded (every supervised attempt succeeded)"
    lines = [f"{'ladder':<18}  {'rung':<20}  {'try':>3}  {'status':<8}  error"]
    for e in fallbacks:
        lines.append(
            f"{e['ladder']:<18}  {e['rung']:<20}  {e['try_index']:>3}  "
            f"{e['status']:<8}  {e.get('error') or '-'}"
        )
    return "\n".join(lines)


def render_checkpoints(events: List[dict]) -> str:
    """Checkpoint write summary from ``checkpoint`` events."""
    checkpoints = [e for e in events if e["event"] == "checkpoint"]
    if not checkpoints:
        return "no checkpoints written"
    total = sum(int(e["bytes"]) for e in checkpoints)
    last = checkpoints[-1]
    return (
        f"{len(checkpoints)} checkpoint write(s), {total} bytes total; "
        f"last at iteration {last['iteration']} -> {last['path']}"
    )


def render_restarts(events: List[dict]) -> str:
    """Multi-start progress from ``restart`` events (empty if none)."""
    restarts = [e for e in events if e["event"] == "restart"]
    if not restarts:
        return ""
    lines = [f"{'restart':>7}  {'best cost':>12}  {'best feasible':>14}  stop"]
    for e in restarts:
        feas = e.get("best_feasible_cost")
        lines.append(
            f"{e['index'] + 1:>4}/{e['restarts']:<2}  {float(e['best_cost']):>12.4g}  "
            f"{(f'{float(feas):.4g}' if feas is not None else '-'):>14}  "
            f"{e.get('stop_reason', 'completed')}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flamegraph rendering (collapsed-stack profiles from --prof-out)
# ----------------------------------------------------------------------
def parse_collapsed(path) -> Dict[Tuple[str, ...], int]:
    """Parse a collapsed-stack file into ``{stack tuple: sample count}``.

    The format is FlameGraph's: one ``frame;frame;... count`` line per
    distinct stack.  Malformed lines raise ``ValueError`` naming the
    offending line number.
    """
    counts: Dict[Tuple[str, ...], int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, _, raw = line.rpartition(" ")
        try:
            count = int(raw)
        except ValueError:
            count = -1
        if not stack or count < 0:
            raise ValueError(
                f"{path}:{lineno}: expected 'frame;frame;... count', got {line!r}"
            )
        frames = tuple(stack.split(";"))
        counts[frames] = counts.get(frames, 0) + count
    return counts


def flame_tree(counts: Dict[Tuple[str, ...], int]) -> dict:
    """Fold collapsed-stack counts into a call tree.

    Each node is ``{"name", "count", "children"}`` where ``count`` is
    the number of samples passing through the node (inclusive).
    """
    root: dict = {"name": "all", "count": 0, "children": {}}
    for stack, n in counts.items():
        root["count"] += n
        node = root
        for frame in stack:
            child = node["children"].setdefault(
                frame, {"name": frame, "count": 0, "children": {}}
            )
            child["count"] += n
            node = child
    return root


def render_flame(
    counts: Dict[Tuple[str, ...], int],
    *,
    min_percent: float = 1.0,
    max_depth: Optional[int] = None,
    bar_width: int = 30,
) -> str:
    """Text-mode flamegraph: indented tree, hottest branches first."""
    root = flame_tree(counts)
    total = root["count"]
    if total <= 0:
        return "no samples in profile"
    lines = [f"{total} samples, {len(counts)} distinct stacks"]

    def walk(node: dict, depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        children = sorted(
            node["children"].values(), key=lambda c: (-c["count"], c["name"])
        )
        for child in children:
            pct = 100.0 * child["count"] / total
            if pct < min_percent:
                continue
            bar = "█" * max(1, round(bar_width * child["count"] / total))
            lines.append(
                f"{'  ' * depth}{child['name']}  "
                f"{child['count']} ({pct:.1f}%)  {bar}"
            )
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def build_flame_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.traceview flame",
        description="Render a collapsed-stack profile (--prof-out) as a "
        "text-mode flamegraph.",
    )
    parser.add_argument(
        "profile", help="collapsed-stack profile written by --prof-out"
    )
    parser.add_argument(
        "--min-percent", type=float, default=1.0, metavar="P",
        help="hide branches below this percentage of samples (default 1.0)",
    )
    parser.add_argument(
        "--depth", type=int, default=None, metavar="D",
        help="maximum stack depth to render (default: unlimited)",
    )
    parser.add_argument(
        "--width", type=int, default=30, metavar="W",
        help="bar width in characters (default 30)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the rendering to a file instead of stdout",
    )
    return parser


def flame_main(argv: Optional[List[str]] = None) -> int:
    args = build_flame_parser().parse_args(argv)
    try:
        counts = parse_collapsed(args.profile)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_flame(
        counts,
        min_percent=args.min_percent,
        max_depth=args.depth,
        bar_width=args.width,
    )
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.traceview",
        description="Summarise a combined JSONL telemetry trace "
        "(spans by self-time, solver convergence, fallback audit).",
    )
    parser.add_argument("trace", help="combined JSONL trace written by --trace")
    parser.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="span-name groups to show in the self-time table (default 15)",
    )
    parser.add_argument(
        "--no-events", action="store_true",
        help="only show the span summary (skip event-derived sections)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the aggregates as JSON instead of tables",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "flame":
        return flame_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        spans, events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        payload: Dict[str, Any] = {
            "spans": aggregate_spans(spans)[: args.top],
            "coverage": span_coverage(spans),
        }
        if not args.no_events:
            payload["events"] = {
                "iterations": sum(1 for e in events if e["event"] == "iteration"),
                "restarts": sum(1 for e in events if e["event"] == "restart"),
                "fallbacks": sum(1 for e in events if e["event"] == "fallback"),
                "checkpoints": sum(1 for e in events if e["event"] == "checkpoint"),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"trace: {args.trace} ({len(spans)} spans, {len(events)} events)")
    print()
    print(render_span_summary(spans, args.top))
    if not args.no_events:
        print()
        print("convergence")
        print(render_convergence(events))
        restarts = render_restarts(events)
        if restarts:
            print()
            print("restarts")
            print(restarts)
        print()
        print("fallbacks")
        print(render_fallbacks(events))
        print()
        print(render_checkpoints(events))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
