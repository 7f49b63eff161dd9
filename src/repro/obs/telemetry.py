"""The telemetry bundle: one handle for spans, metrics, and events.

Solvers take an optional ``telemetry=`` keyword; ``None`` resolves to
the *ambient* :class:`Telemetry` (module global, like the stdlib
``logging`` root).  The ambient default is :data:`DISABLED` - a shared
instance whose ``span`` returns the no-op singleton, whose ``emit`` is
a single boolean check, and whose instruments are the null instruments,
so un-instrumented runs pay nothing.

Enable telemetry either by installing an enabled instance::

    tel = Telemetry.enabled_default()
    with use_telemetry(tel):
        solve_qbp(problem)
    tel.tracer.export_jsonl("out.jsonl")

or with the one-stop :func:`telemetry_session` used by the CLIs, which
opens a root span, wires an eager JSONL sink, and writes every requested
artifact on exit::

    with telemetry_session(trace_path="out.jsonl",
                           metrics_path="metrics.json") as tel:
        solve_qbp(problem)
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, List, Optional, Sequence

from repro.obs.events import EventLog, JsonlEventSink, event_to_dict
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsRegistry,
    empty_snapshot,
)
from repro.obs.prof import (
    DEFAULT_INTERVAL,
    MemorySpan,
    Profiler,
    clear_profile_env,
    set_profile_env,
)
from repro.obs.trace import NULL_SPAN, Tracer


class Telemetry:
    """Tracer + metrics registry + event sinks behind one enabled flag.

    ``profiler`` is an optional attached :class:`~repro.obs.prof.Profiler`;
    when its memory tracker is armed, :meth:`span` wraps spans so each
    closes with a ``mem_peak_kb`` attribute.  The disabled fast path is
    untouched: the first ``self.enabled`` check short-circuits before
    any profiler lookup.
    """

    __slots__ = ("enabled", "tracer", "metrics", "sinks", "profiler")

    def __init__(
        self,
        *,
        enabled: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Sequence[Any] = (),
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.enabled = enabled
        self.tracer = tracer if tracer is not None else (Tracer() if enabled else None)
        self.metrics = (
            metrics if metrics is not None else (MetricsRegistry() if enabled else None)
        )
        self.sinks: List[Any] = list(sinks)
        self.profiler = profiler

    @classmethod
    def enabled_default(cls) -> "Telemetry":
        """A fresh enabled bundle with an in-memory :class:`EventLog` sink."""
        return cls(enabled=True, sinks=[EventLog()])

    @classmethod
    def metrics_only(cls) -> "Telemetry":
        """A fresh enabled bundle that keeps metrics but no spans or events.

        For long-lived holders such as the partitioning service: counters
        and gauges stay bounded, while a tracer and an event log would
        grow with every solve.
        """
        telemetry = cls(enabled=True)
        telemetry.tracer = None
        return telemetry

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """A tracing span, or the shared no-op span when disabled."""
        if not self.enabled or self.tracer is None:
            return NULL_SPAN
        span = self.tracer.span(name, **attrs)
        profiler = self.profiler
        if profiler is not None and profiler.memory is not None:
            return MemorySpan(span, profiler.memory)
        return span

    def emit(self, event) -> None:
        """Deliver ``event`` to every sink (no-op when disabled)."""
        if not self.enabled:
            return
        for sink in self.sinks:
            sink.emit(event)

    def counter(self, name: str):
        """A named counter, or the null counter when disabled."""
        if not self.enabled or self.metrics is None:
            return NULL_COUNTER
        return self.metrics.counter(name)

    def gauge(self, name: str):
        """A named gauge, or the null gauge when disabled."""
        if not self.enabled or self.metrics is None:
            return NULL_GAUGE
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        """A named histogram, or the null histogram when disabled."""
        if not self.enabled or self.metrics is None:
            return NULL_HISTOGRAM
        return self.metrics.histogram(name)

    # ------------------------------------------------------------------
    def events(self) -> List[Any]:
        """Every event held by in-memory sinks (first :class:`EventLog` wins)."""
        for sink in self.sinks:
            if isinstance(sink, EventLog):
                return list(sink.events)
        return []

    def metrics_snapshot(self) -> dict:
        """The registry snapshot (empty-form when disabled)."""
        if self.metrics is None:
            return empty_snapshot()
        return self.metrics.snapshot()


DISABLED = Telemetry(enabled=False, tracer=None, metrics=None)
"""The shared inert bundle; the ambient default."""

_current: Telemetry = DISABLED


def current() -> Telemetry:
    """The ambient telemetry (the :data:`DISABLED` singleton by default)."""
    return _current


def resolve(telemetry: Optional[Telemetry]) -> Telemetry:
    """``telemetry`` if given, else the ambient instance.

    The one-liner every instrumented function starts with, so explicit
    injection (tests) and ambient configuration (CLIs) share one code
    path.
    """
    return telemetry if telemetry is not None else _current


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the ambient instance for the block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous


@contextmanager
def telemetry_session(
    *,
    trace_path=None,
    chrome_path=None,
    metrics_path=None,
    events_path=None,
    profile=False,
    prof_out=None,
    profile_memory: bool = True,
    ledger_path=None,
    progress: bool = False,
    root_span: str = "session",
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    config=None,
    install: bool = True,
) -> Iterator[Telemetry]:
    """A fully wired telemetry scope that writes its artifacts on exit.

    Opens an enabled :class:`Telemetry` (with an in-memory event log and,
    when ``events_path`` is given, an eager :class:`JsonlEventSink`),
    wraps the block in one ``root_span`` so traces cover the whole run,
    installs it as the ambient instance (unless ``install=False``), and
    on exit writes:

    * ``trace_path`` - the combined JSONL trace: every span *and* every
      event, the file ``repro.tools.traceview`` reads,
    * ``chrome_path`` - the Chrome ``chrome://tracing`` JSON,
    * ``metrics_path`` - the ``metrics-snapshot-v1`` registry dump,
    * ``events_path`` - events-only JSONL (streamed live, crash-safe),
    * ``prof_out`` - collapsed-stack profile (FlameGraph/Speedscope
      format; render with ``python -m repro.tools.traceview flame``),
    * ``ledger_path`` - appends one ``run-ledger-v1`` record (manifest,
      metrics, peak RSS, wall time) for cross-run regression history.

    ``profile`` arms the sampling profiler for the scope: ``True`` uses
    the default interval, a float is the interval in seconds.  Giving
    ``prof_out`` implies ``profile``; ``--profile`` without ``prof_out``
    prints a top-frames summary to stderr instead.  While armed, the
    interval is advertised through the ``REPRO_PROFILE`` environment so
    forked pool workers sample themselves and merge back through the
    worker-telemetry path.  ``progress`` attaches a
    :class:`~repro.obs.progress.ProgressReporter` status-line sink.

    ``seed``/``workers``/``config`` only annotate the ledger manifest.
    """
    tel = Telemetry.enabled_default()
    jsonl_sink = None
    if events_path is not None:
        jsonl_sink = JsonlEventSink(events_path)
        tel.sinks.append(jsonl_sink)
    reporter = None
    if progress:
        from repro.obs.progress import ProgressReporter

        reporter = ProgressReporter()
        tel.sinks.append(reporter)
    if prof_out is not None and not profile:
        profile = True
    profiler = None
    if profile:
        interval = float(profile) if not isinstance(profile, bool) else DEFAULT_INTERVAL
        profiler = Profiler(interval=interval, memory=profile_memory)
        tel.profiler = profiler
        set_profile_env(interval, profile_memory)
        profiler.start()
    started = time.perf_counter()
    try:
        if install:
            with use_telemetry(tel):
                with tel.span(root_span):
                    yield tel
        else:
            with tel.span(root_span):
                yield tel
    finally:
        elapsed = time.perf_counter() - started
        if profiler is not None:
            profiler.stop()
            clear_profile_env()
        if reporter is not None:
            reporter.close()
        if jsonl_sink is not None:
            jsonl_sink.close()
        if trace_path is not None:
            write_combined_trace(tel, trace_path)
        if chrome_path is not None and tel.tracer is not None:
            tel.tracer.export_chrome(chrome_path)
        if metrics_path is not None:
            Path(metrics_path).write_text(
                json.dumps(tel.metrics_snapshot(), indent=2, sort_keys=True)
            )
        if profiler is not None:
            if prof_out is not None:
                profiler.write_collapsed(prof_out)
            else:
                print("\n".join(profiler.summary_lines()), file=sys.stderr)
        if ledger_path is not None:
            from repro.obs.ledger import append_record, make_record, run_manifest

            record = make_record(
                manifest=run_manifest(
                    label=root_span, seed=seed, workers=workers, config=config
                ),
                metrics=tel.metrics_snapshot(),
                elapsed_seconds=elapsed,
                profile_samples=(
                    profiler.total_samples if profiler is not None else None
                ),
            )
            append_record(ledger_path, record)


def add_telemetry_arguments(parser) -> None:
    """Attach the standard telemetry flags to an :mod:`argparse` parser.

    Shared by the CLIs: ``--trace/--trace-chrome/--metrics-out/
    --events-out`` select artifact outputs; ``--profile/--prof-out``
    arm the sampling profiler; ``--ledger`` appends a run-ledger record;
    ``--progress`` renders a live status line for pool sweeps.
    """
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a combined spans+events JSONL trace here "
        "(view with: python -m repro.tools.traceview PATH)",
    )
    group.add_argument(
        "--trace-chrome",
        default=None,
        metavar="PATH",
        help="also write a Chrome chrome://tracing / Perfetto JSON trace",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the final metrics-snapshot-v1 registry dump here",
    )
    group.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="stream solver events to this JSONL file as they happen",
    )
    group.add_argument(
        "--profile",
        nargs="?",
        const=True,
        default=None,
        type=float,
        metavar="SECONDS",
        help="arm the sampling profiler (optional sampling interval in "
        "seconds, default 0.005); without --prof-out a top-frames "
        "summary is printed to stderr on exit",
    )
    group.add_argument(
        "--prof-out",
        default=None,
        metavar="PATH",
        help="write the collapsed-stack profile here (implies --profile; "
        "render with: python -m repro.tools.traceview flame PATH, or "
        "feed to flamegraph.pl / Speedscope)",
    )
    group.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append one run-ledger-v1 record (manifest, metrics, peak "
        "RSS, wall time) to this JSONL history; inspect with "
        "python -m repro.tools.runledger",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        default=False,
        help="render a live rows-done/ETA status line on stderr while "
        "worker pools run",
    )


TELEMETRY_ARG_KEYS = frozenset(
    {
        "trace",
        "trace_chrome",
        "metrics_out",
        "events_out",
        "profile",
        "prof_out",
        "ledger",
        "progress",
    }
)
"""Argparse dests owned by :func:`add_telemetry_arguments`.

Excluded from the ledger's config digest: turning observability on or
off must not make two otherwise-identical runs incomparable.
"""


def session_from_args(args, *, root_span: str):
    """A :func:`telemetry_session` configured from parsed CLI flags.

    Telemetry stays :data:`DISABLED` (zero overhead) unless at least one
    of the flags added by :func:`add_telemetry_arguments` was given.
    Flags are looked up tolerantly (``getattr``), so parsers built
    before the profiling/ledger flags existed keep working.
    """
    profile = getattr(args, "profile", None)
    prof_out = getattr(args, "prof_out", None)
    ledger_path = getattr(args, "ledger", None)
    progress = bool(getattr(args, "progress", False))
    wants = (
        args.trace,
        args.trace_chrome,
        args.metrics_out,
        args.events_out,
        profile,
        prof_out,
        ledger_path,
        progress or None,
    )
    if all(value is None for value in wants):
        return use_telemetry(DISABLED)
    return telemetry_session(
        trace_path=args.trace,
        chrome_path=args.trace_chrome,
        metrics_path=args.metrics_out,
        events_path=args.events_out,
        profile=profile or False,
        prof_out=prof_out,
        ledger_path=ledger_path,
        progress=progress,
        root_span=root_span,
        seed=getattr(args, "seed", None),
        workers=getattr(args, "workers", None),
        config={
            key: value
            for key, value in sorted(vars(args).items())
            if key not in TELEMETRY_ARG_KEYS
            and isinstance(value, (type(None), bool, int, float, str))
        },
    )


def write_combined_trace(telemetry: Telemetry, path) -> int:
    """Write spans + events as one JSONL file; returns the line count.

    A ``meta`` header (the tracer's wall-clock epoch) leads, spans
    follow ordered by start time, and events ride behind them in
    emission order - ``repro.tools.traceview`` and
    ``scripts/check_trace.py`` accept all three record types in any
    order.
    """
    lines: List[str] = []
    if telemetry.tracer is not None:
        lines.append(telemetry.tracer.meta_line())
        lines.extend(telemetry.tracer.to_jsonl_lines())
    for event in telemetry.events():
        lines.append(json.dumps(event_to_dict(event), sort_keys=True))
    Path(path).write_text("".join(line + "\n" for line in lines))
    return len(lines)
