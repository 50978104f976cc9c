"""Aggregates a Chrome trace-event file written by `pima_asm pim-run --trace-json`.

Complete spans ("ph": "X") are grouped per track, a track being one
(pid, tid) pair. A span's self time is its duration minus the part of its
interval that its direct child spans on the same track cover. Across
processes, the controller's `rpc:<verb>` span and the worker's
`devd:<verb>` span that served it are paired through the flow events the
program emits: an "s" event at the start of the rpc span and an "f" event
at the start of the devd span share one flow id.

Usage: python3 traceagg.py trace.json   (prints the summary as JSON)
"""

import bisect
import json
import sys
from collections import defaultdict


class Span:
    __slots__ = ("name", "pid", "tid", "start", "end", "self_us")

    def __init__(self, event):
        self.name = event["name"]
        self.pid = event.get("pid", 0)
        self.tid = event.get("tid", 0)
        self.start = float(event["ts"])
        self.end = self.start + float(event.get("dur", 0.0))
        self.self_us = self.end - self.start


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _tracks(spans):
    tracks = defaultdict(list)
    for span in spans:
        tracks[(span.pid, span.tid)].append(span)
    for track in tracks.values():
        # Parents sort before the children that start with them.
        track.sort(key=lambda s: (s.start, -s.end))
    return tracks


def _assign_self_times(tracks):
    for track in tracks.values():
        children = defaultdict(list)
        stack = []
        for span in track:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack:
                parent = stack[-1]
                children[id(parent)].append(
                    (span.start, min(span.end, parent.end)))
            stack.append(span)
        for span in track:
            span.self_us = (span.end - span.start) - _covered(
                children.get(id(span), ()))


def _enclosing(track, starts, ts):
    """Innermost span of a track whose interval holds `ts`."""
    for i in range(bisect.bisect_right(starts, ts) - 1, -1, -1):
        if track[i].end >= ts:
            return track[i]
    return None


def _pair_flows(events, tracks):
    starts = {key: [s.start for s in track] for key, track in tracks.items()}

    def at(event):
        key = (event.get("pid", 0), event.get("tid", 0))
        if key not in tracks:
            return None
        return _enclosing(tracks[key], starts[key], float(event["ts"]))

    sources, sinks = {}, {}
    for event in events:
        if event.get("ph") == "s":
            sources[event["id"]] = at(event)
        elif event.get("ph") == "f":
            sinks[event["id"]] = at(event)
    return {fid: (src, sinks.get(fid)) for fid, src in sources.items()}


def aggregate(trace):
    """Summarises a parsed trace (a dict with "traceEvents", or a list).

    Returns:
      spans: {name: {"count", "total_s", "self_s"}} over every process;
      rpc:   {verb: {"calls", "wait_s", "exec_s", "paired"}} where wait_s
             sums the controller's rpc:<verb> spans, exec_s sums the
             worker devd:<verb> spans paired to them, and paired counts
             the rpc spans whose worker span was found;
      worker_tasks: engine `task` spans retired on channel worker tracks
             (tid != 0), the tasks that crossed an engine hand-off;
      inline_tasks: `task` spans run inline on a main track (tid == 0).
    """
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    spans = [Span(e) for e in events if e.get("ph") == "X"]
    tracks = _tracks(spans)
    _assign_self_times(tracks)

    by_name = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = by_name[span.name]
        entry["count"] += 1
        entry["total_s"] += (span.end - span.start) / 1e6
        entry["self_s"] += span.self_us / 1e6

    rpc = defaultdict(lambda: {"calls": 0, "wait_s": 0.0, "exec_s": 0.0,
                               "paired": 0})
    for span in spans:
        if span.name.startswith("rpc:"):
            entry = rpc[span.name[4:]]
            entry["calls"] += 1
            entry["wait_s"] += (span.end - span.start) / 1e6
    for src, dst in _pair_flows(events, tracks).values():
        if src is None or dst is None or not src.name.startswith("rpc:"):
            continue
        entry = rpc[src.name[4:]]
        entry["exec_s"] += (dst.end - dst.start) / 1e6
        entry["paired"] += 1

    tasks = [s for s in spans if s.name == "task"]
    return {
        "spans": dict(by_name),
        "rpc": dict(rpc),
        "worker_tasks": sum(1 for s in tasks if s.tid != 0),
        "inline_tasks": sum(1 for s in tasks if s.tid == 0),
    }


def aggregate_file(path):
    with open(path) as f:
        return aggregate(json.load(f))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    json.dump(aggregate_file(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    print()
