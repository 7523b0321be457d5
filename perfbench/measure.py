"""Measurement helpers of the repo benchmark: percentiles, span self
time, metric names, failure accounting, and Chrome-trace loading."""

import json
import math
import re

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name):
    """Return `name` if it is a valid metric name, else raise ValueError."""
    if (not METRIC_NAME.fullmatch(name) or not name[0].isalnum() or
            len(name) > 64):
        raise ValueError(f"bad metric name {name!r}")
    return name


def percentile(samples, p, min_beyond=10):
    """Nearest-rank `p`th percentile of `samples`.

    Refuses (ValueError) when fewer than `min_beyond` samples lie beyond
    the chosen rank: a tail percentile needs that many samples to mean
    anything.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{p} of {len(ordered)} samples has {beyond} beyond it, "
            f"needs {min_beyond}")
    return ordered[rank - 1]


def median(samples):
    """Nearest-rank median (an actual sample, never an average)."""
    return percentile(samples, 50, min_beyond=0)


def median_pass(passes, key):
    """The median pass.  A pass made of calls (search-sweep) is taken
    call by call: the median of each call over the passes plus the median
    rest of a pass, summed, so a slow spell of the host in one pass moves
    only the calls it overlapped."""
    if "calls" not in passes[0]:
        return median([p[key] for p in passes])
    calls = [median([p["calls"][i][key] for p in passes])
             for i in range(len(passes[0]["calls"]))]
    rest = median([p[key] - sum(c[key] for c in p["calls"]) for p in passes])
    return rest + sum(calls)


def union_length(intervals):
    """Total length covered by the (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span, children):
    """A span's duration minus the union of its children's intervals,
    clipped to the span (children may overlap each other)."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length([(s, e) for s, e in clipped if e > s])


class Tally:
    """Operations attempted and failed; failed_frac = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def reply(self, line, expected_payload=None):
        """Count one serve reply line: it fails when not `ok` (an error or
        an `overloaded` refusal) or when its result payload is not
        byte-identical to `expected_payload`.  Success lines are checked
        without parsing their (large) payloads."""
        payload = result_payload(line)
        if payload is None:
            code = json.loads(line).get("error", {}).get("code", "?")
            return self.op(False, f"serve reply {code}")
        if expected_payload is not None and payload != expected_payload:
            return self.op(False, f"payload mismatch in {line[:60]}")
        return self.op(True)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def result_payload(line):
    """The raw `result` bytes of a serve success envelope line."""
    marker = ',"ok":true,"result":'
    at = line.find(marker)
    if at < 0 or not line.endswith("}"):
        return None
    return line[at + len(marker):-1]


class Trace:
    """Spans of one Chrome trace-event file, in microseconds."""

    def __init__(self, events):
        self.spans = [e for e in events if e.get("ph") == "X"]
        self.by_id = {s["args"]["id"]: s for s in self.spans}
        self.children = {}
        for span in self.spans:
            self.children.setdefault(span["args"]["parent"], []).append(span)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls(json.load(f)["traceEvents"])

    @staticmethod
    def interval(span):
        return (span["ts"], span["ts"] + span["dur"])

    def named(self, name, **args):
        return [s for s in self.spans if s["name"] == name and
                all(s["args"].get(k) == v for k, v in args.items())]

    def total_s(self, name, **args):
        return sum(s["dur"] for s in self.named(name, **args)) * 1e-6

    def total_arg(self, name, key, **args):
        return sum(s["args"][key] for s in self.named(name, **args))

    def self_s(self, span):
        kids = [self.interval(c)
                for c in self.children.get(span["args"]["id"], [])]
        return self_time(self.interval(span), kids) * 1e-6

    def descendants(self, span):
        out = []
        stack = list(self.children.get(span["args"]["id"], []))
        while stack:
            child = stack.pop()
            out.append(child)
            stack.extend(self.children.get(child["args"]["id"], []))
        return out

    def uncovered_s(self, span):
        """The part of `span` no library-call span covers: its duration
        minus the union of its non-`bench.` descendants."""
        start, end = self.interval(span)
        calls = [self.interval(d) for d in self.descendants(span)
                 if not d["name"].startswith("bench.")]
        return self_time((start, end), calls) * 1e-6

    def module_self_s(self, module):
        return sum(self.self_s(s) for s in self.spans
                   if s["name"].split(".")[0] == module)
