"""``repro obs watch`` — a self-refreshing terminal telemetry dashboard.

Tails the snapshot file a running triage loop publishes atomically
(``repro triage --snapshot-out live.json``; ``--metrics-out`` writes the
same document once, at exit) and redraws a compact dashboard on every
change: every counter by its full name with its per-window sparkline,
per-signature convergence sparklines (rank-of-true-cause trajectories),
stage-latency quantiles, and the executor section.  Because
publication is atomic (temp file + rename) the watcher never sees a
torn document; it simply re-reads when the mtime moves.

Zero dependencies: plain ANSI clear codes and Unicode block sparklines,
degrading to ASCII when the output stream is not a TTY.  ``--once``
renders a single frame and exits — the mode tests and CI use.
"""

import os
import time

from repro.obs.timeseries import NotASnapshot, QuantileSketch, read_snapshot

#: Unicode spark levels, low to high.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Refresh cadence of the live loop (seconds between mtime polls).
DEFAULT_INTERVAL = 1.0


def sparkline(values, levels=SPARK_LEVELS):
    """Render *values* (numbers; None = gap) as a spark string."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    low, high = min(present), max(present)
    span = high - low
    chars = []
    for value in values:
        if value is None:
            chars.append(" ")
        elif span == 0:
            chars.append(levels[0])
        else:
            index = int((value - low) / span * (len(levels) - 1))
            chars.append(levels[index])
    return "".join(chars)


def _rank_spark(points, width=24):
    """Sparkline of a rank trajectory: rank 1 renders *high*.

    Ranks improve downward (1 is best), so the trajectory is inverted —
    a cluster converging to rank 1 shows a rising sparkline.
    """
    values = [value for _tick, value in points if value is not None]
    if not values:
        return ""
    tail = values[-width:]
    worst = max(tail)
    return sparkline([worst - value for value in tail])


def _format_age(seconds):
    if seconds < 1.5:
        return "now"
    if seconds < 90:
        return "%ds ago" % int(seconds)
    return "%dm ago" % int(seconds / 60)


def render_dashboard(snapshot, now=None, width=72):
    """Render one dashboard frame from *snapshot*; returns text."""
    series = snapshot.get("series", {})
    lines = []
    state = "complete" if snapshot.get("complete") else "running"
    updated = snapshot.get("updated_at")
    age = ""
    if updated is not None:
        age = ", updated %s" % _format_age(
            (now if now is not None else time.time()) - updated)
    lines.append("repro fleet telemetry — %s (clock %s%s)"
                 % (state, snapshot.get("clock", 0), age))
    lines.append("=" * min(width, 72))

    fleet = snapshot.get("fleet", {})
    if fleet:
        parts = ["%s=%s" % (key, fleet[key]) for key in sorted(fleet)]
        lines.append("fleet     " + "  ".join(parts))

    counters = sorted(series.get("windowed", {}).items())
    name_width = max((len(name) for name, _summary in counters), default=0)
    for name, summary in counters:
        buckets = summary.get("buckets", {})
        ordered = [buckets[key] for key in sorted(buckets, key=int)]
        lines.append("%-*s %6d total  %s/window %s"
                     % (name_width, name, summary.get("total", 0),
                        summary.get("window"),
                        sparkline(ordered[-32:])))

    ranks = {
        name: summary for name, summary in
        series.get("gauges", {}).items()
        if name.startswith("fleet.rank_of_true_cause.")
    }
    if ranks:
        lines.append("")
        lines.append("convergence (rank of true cause; high = rank 1)")
        for name, summary in sorted(ranks.items()):
            digest = name.rsplit(".", 1)[1]
            points = summary.get("points", ())
            final = points[-1][1] if points else None
            lines.append(
                "  %-12s %s  rank %s"
                % (digest, _rank_spark(points),
                   final if final is not None else "-"))

    timing = {
        name: summary for name, summary in
        series.get("sketches", {}).items() if summary.get("timing")
    }
    if timing:
        lines.append("")
        lines.append("stage latency (seconds)")
        for name, summary in sorted(timing.items()):
            sketch = QuantileSketch.from_summary(summary)
            lines.append(
                "  %-28s p50 %8.4f  p95 %8.4f  n=%d"
                % (name, sketch.quantile(0.5) or 0.0,
                   sketch.quantile(0.95) or 0.0, sketch.count))

    executor = snapshot.get("executor", {})
    if executor:
        parts = ["%s=%s" % (key, executor[key])
                 for key in sorted(executor)]
        lines.append("")
        lines.append("executor  " + "  ".join(parts))

    return "\n".join(lines) + "\n"


def watch(path, out, once=False, interval=DEFAULT_INTERVAL,
          max_frames=None, clear=None):
    """Tail the snapshot at *path*, redrawing on change.

    Returns an exit code: 0 after rendering at least one frame (and,
    in live mode, after the snapshot marks itself ``complete``);
    2 when the file never appeared or is not a snapshot.
    *max_frames* bounds the loop for tests; *clear* overrides TTY
    detection for the ANSI clear-screen prefix.
    """
    if clear is None:
        clear = hasattr(out, "isatty") and out.isatty()
    last_mtime = None
    frames = 0
    waited = 0.0
    while True:
        try:
            mtime = os.stat(path).st_mtime
        except OSError:
            if once:
                print("no snapshot at %s (is `repro triage "
                      "--snapshot-out` running?)" % path, file=out)
                return 2
            if waited >= 30.0:
                print("gave up: no snapshot appeared at %s" % path,
                      file=out)
                return 2
            time.sleep(interval)
            waited += interval
            continue
        if mtime != last_mtime:
            last_mtime = mtime
            try:
                snapshot = read_snapshot(path)
            except NotASnapshot as error:
                print(str(error), file=out)
                return 2
            frame = render_dashboard(snapshot)
            if clear:
                out.write("\x1b[2J\x1b[H")
            out.write(frame)
            out.flush()
            frames += 1
            if once or snapshot.get("complete"):
                return 0
        if max_frames is not None and frames >= max_frames:
            return 0
        time.sleep(interval)


__all__ = [
    "DEFAULT_INTERVAL",
    "render_dashboard",
    "sparkline",
    "watch",
]
