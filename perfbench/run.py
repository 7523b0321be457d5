#!/usr/bin/env python3
"""The repo benchmark: builds vwsdk from this source tree, runs one
workload, checks its outputs, and prints every metric by name with its
unit; the last line of standard output is one JSON result object.

    python3 perfbench/run.py --workload verify-table1 --seed 1 \\
        --seconds 20 --trace 0

Workloads (see perfbench/README.md): verify-table1 and search-sweep.
`--trace 0` measures the workload end to end; `--trace 1` makes the
traced run instead, which profiles every layer of both workloads and of
the serve traffic mix, and writes a Chrome trace to .bench_build/traces/.
"""

import argparse
import gc
import json
import os
import selectors
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import (Tally, Trace, check_metric_name, median,  # noqa: E402
                     median_pass, percentile)
import mix  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
RUN_DIR = os.path.join(".bench_build", "run")

# Table I of the paper: total computing cycles on a 512x512 array.
TABLE1_VW_SDK = {"ResNet-18": 4294, "VGG-13": 77102}
TABLE1_SDK = {"ResNet-18": 7240, "VGG-13": 114697}
ZOO_NAME = {"resnet18": "ResNet-18", "vgg13": "VGG-13"}

SETUP_SPAWNS = 100
SERVE_THREADS = 2
SERVE_CONNECTIONS = 2
POOL_THREADS = 4
# search-sweep runs its searches on one worker.  With a pool of 4 each
# compare call ends in a join on its slowest layer search, so on a
# 4-vCPU VM shared with other guests its wall time spread by 0.35-0.45
# (IQR / median over 10 seeds); one worker needs one free vCPU.
SWEEP_THREADS = 1


class BenchError(Exception):
    """A failure that voids the run: no result line is printed."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# build and processes
# ---------------------------------------------------------------------------

def build():
    """Configure once, then build incrementally; returns the harness and
    CLI paths."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(".bench_build", "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, os.cpu_count() or 1)),
                  "--target", "perfbench_harness", "vwsdk_cli"])
    with open(build_log, "w") as out:
        for step in steps:
            done = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT)
            if done.returncode:
                raise BenchError(f"build failed; see {build_log}")
    return (os.path.join(BUILD_DIR, "perfbench_harness"),
            os.path.join(BUILD_DIR, "apps", "vwsdk"))


def reap(proc, timeout_s=120.0):
    """Wait for `proc` (killing it after `timeout_s`); returns its peak
    RSS in MB."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.001)


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def run_harness(harness, args):
    """Run the harness to completion; returns (result, peak RSS MB)."""
    proc = subprocess.Popen([harness, *args], stdout=subprocess.PIPE,
                            text=True)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        rss = reap(proc)
    if proc.returncode != 0:
        raise BenchError(f"harness {args[0]} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), rss


def harness_setup_s(harness, input_path):
    """Process start until the harness has built its service and
    resolved its inputs."""
    start = time.perf_counter()
    proc = subprocess.Popen([harness, "setup", input_path],
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = json.loads(proc.stdout.readline()).get("ready")
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        reap(proc)
    if not ready or proc.returncode != 0:
        raise BenchError("harness setup failed")
    return elapsed


# ---------------------------------------------------------------------------
# serve client
# ---------------------------------------------------------------------------

class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buffer = b""
        self.pending = None  # (meta, send time) of the request in flight

    def send(self, line, meta):
        self.pending = (meta, time.perf_counter())
        self.sock.sendall(line.encode() + b"\n")

    def lines(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("daemon closed the connection")
        self.buffer += chunk
        *complete, self.buffer = self.buffer.split(b"\n")
        return [c.decode() for c in complete]

    def call(self, line):
        """One blocking request/reply."""
        self.send(line, None)
        replies = []
        while not replies:
            replies = self.lines()
        return replies[0]

    def close(self):
        self.sock.close()


def connect(path, deadline_s=60.0):
    start = time.perf_counter()
    while True:
        try:
            return Connection(path)
        except (FileNotFoundError, ConnectionRefusedError):
            if time.perf_counter() - start > deadline_s:
                raise BenchError("daemon never accepted a connection")
            time.sleep(0.0002)


def closed_loop(conns, next_request, on_reply):
    """Each connection sends its next request only after its previous
    reply arrived.  `next_request()` returns (line, meta) or None to stop;
    `on_reply(meta, line, latency_s)` sees every reply."""
    selector = selectors.DefaultSelector()
    inflight = 0
    for conn in conns:
        request = next_request()
        if request is not None:
            conn.send(*request)
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            inflight += 1
    while inflight:
        for key, _ in selector.select():
            conn = key.data
            for line in conn.lines():
                meta, sent_at = conn.pending
                on_reply(meta, line, time.perf_counter() - sent_at)
                request = next_request()
                if request is None:
                    selector.unregister(conn.sock)
                    inflight -= 1
                else:
                    conn.send(*request)
    selector.close()


class Daemon:
    """`vwsdk serve --socket` as a child process."""

    def __init__(self, cli, rundir):
        self.path = os.path.join(rundir, "serve.sock")
        self.log = open(os.path.join(rundir, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [cli, "serve", "--socket", self.path,
             "--threads", str(SERVE_THREADS),
             "--max-inflight", str(SERVE_CONNECTIONS)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log)

    def stop(self):
        """Ask for a drain and wait for the daemon to exit."""
        if self.proc.poll() is None:
            try:
                conn = connect(self.path, deadline_s=5.0)
                conn.call(mix.encode({"op": "shutdown"}, "bye"))
                conn.close()
            except (OSError, BenchError):
                self.proc.terminate()
        reap(self.proc)
        self.log.close()


# ---------------------------------------------------------------------------
# workloads: each returns its raw measurements and fills a Tally
# ---------------------------------------------------------------------------

def verify_input(seed):
    return {"nets": ["resnet18", "vgg13"], "array": "512x512",
            "mapper": "vw-sdk", "backend": "gemm", "seed": seed,
            "threads": POOL_THREADS}


def check_verify_pass(tally, verify_pass):
    for net in verify_pass["nets"]:
        name = net["network"]
        tally.op(net["verified_layers"] == net["layers"] and
                 net["executed_cycles"] == TABLE1_VW_SDK.get(name),
                 f"{name}: {net['verified_layers']}/{net['layers']} layers "
                 f"exact, {net['executed_cycles']} cycles")


def run_verify(tools, seed, seconds, rundir, tally, trace_path=None):
    harness, _ = tools
    path = write_json(os.path.join(rundir, "verify.json"), verify_input(seed))
    trace_args = [trace_path] if trace_path else []
    result, rss = run_harness(
        harness, ["verify", path, str(seconds)] + trace_args)
    for verify_pass in result["passes"]:
        check_verify_pass(tally, verify_pass)
    if trace_path:
        check_verify_pass(tally, result["traced"])
        tally.op(result["traced_mismatched_nets"] == 0,
                 "traced verify differs from ServiceApi::verify")
        tally.op(result["invalid_plans"] == 0, "validate_plan reported errors")
    result["peak_rss_mb"] = rss
    return result


def load_digests():
    with open(os.path.join(HERE, "sweep_digests.json")) as f:
        return json.load(f)


def check_sweep_pass(tally, queries, sweep_pass, pinned):
    for query, call in zip(queries, sweep_pass["calls"]):
        key = f"{query['net']}|{query['array']}|{query['objective']}"
        ok = call["digest"] == pinned.get(key)
        name = ZOO_NAME.get(query["net"])
        if (name and query["array"] == "512x512" and
                query["objective"] == "cycles"):
            totals = call["total_cycles"]
            ok = ok and totals["sdk"] == TABLE1_SDK[name] and \
                totals["vw-sdk"] == TABLE1_VW_SDK[name]
        tally.op(ok, f"compare {key} differs from the pinned decisions")


def run_sweep(tools, seed, seconds, rundir, tally, trace_path=None):
    harness, _ = tools
    queries = mix.sweep_queries(seed)
    path = write_json(os.path.join(rundir, "sweep.json"),
                      {"threads": SWEEP_THREADS, "mappers": mix.MAPPERS,
                       "queries": queries})
    trace_args = [trace_path] if trace_path else []
    result, rss = run_harness(
        harness, ["sweep", path, str(seconds)] + trace_args)
    pinned = load_digests()
    for sweep_pass in result["passes"]:
        check_sweep_pass(tally, queries, sweep_pass, pinned)
    if trace_path:
        check_sweep_pass(tally, queries, result["traced"], pinned)
        tally.op(result["probe_mismatches"] == 0,
                 "search probe decisions differ from compare")
    result["peak_rss_mb"] = rss
    return result


def run_serve(tools, seed, seconds, rundir, tally, trace_path):
    """Replay the stream in process for the expected payloads, then drive
    the daemon: warm its cache, then a timed closed loop."""
    harness, cli = tools
    stream = mix.request_stream(seed)
    warm = mix.warm_requests()
    lines = [mix.encode(r, str(i)) for i, r in enumerate(stream)]
    path = write_json(os.path.join(rundir, "replay.json"), {
        "threads": SERVE_THREADS,
        "warm": [mix.encode(r, f"w{i}") for i, r in enumerate(warm)],
        "stream": lines})
    payloads_path = os.path.join(rundir, "payloads.txt")
    replay, _ = run_harness(harness,
                            ["replay", path, payloads_path, trace_path])
    with open(payloads_path) as f:
        payloads = f.read().split("\n")
    expected = [None if rec[0] == "stats" else payloads[rec[4]]
                for rec in replay["requests"]]

    daemon = Daemon(cli, rundir)
    conns = []
    try:
        conns = [connect(daemon.path) for _ in range(SERVE_CONNECTIONS)]
        warm_iter = iter(enumerate(warm))

        def next_warm():
            item = next(warm_iter, None)
            if item is None:
                return None
            return mix.encode(item[1], f"w{item[0]}"), None

        closed_loop(conns, next_warm,
                    lambda meta, line, latency: tally.reply(line))

        samples = []  # (stream index, op, latency s)
        sent = [0]
        stop_at = time.perf_counter() + seconds
        rejected = [0]

        def next_request():
            if time.perf_counter() >= stop_at:
                return None
            k = sent[0]
            sent[0] += 1
            index = k % len(stream)
            request_id = f"{k // len(stream)}.{index}"
            return mix.encode(stream[index], request_id), index

        def on_reply(index, line, latency):
            if not tally.reply(line, expected[index]) and \
                    '"code":"overloaded"' in line:
                rejected[0] += 1
            samples.append((index, stream[index]["op"], latency))

        client_cpu0 = time.process_time()
        loop_start = time.perf_counter()
        gc.disable()  # no collector pauses inside the timed loop
        try:
            closed_loop(conns, next_request, on_reply)
        finally:
            gc.enable()
        loop_s = time.perf_counter() - loop_start
        client_cpu_s = time.process_time() - client_cpu0

        stats = json.loads(conns[0].call(mix.encode({"op": "stats"}, "final")))
        tally.op(stats.get("ok") and
                 stats["result"]["cache"]["misses"] == replay["cache_misses"],
                 "daemon cache misses differ from the in-process replay")
    finally:
        for conn in conns:
            conn.close()
        daemon.stop()
    return {"samples": samples, "loop_s": loop_s,
            "client_cpu_s": client_cpu_s, "rejected": rejected[0],
            "replay": replay}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def setup_metric(harness, workload, rundir):
    inputs = ({"threads": POOL_THREADS, "nets": ["resnet18", "vgg13"],
               "arrays": ["512x512"]} if workload == "verify-table1" else
              {"threads": SWEEP_THREADS, "nets": mix.ZOO,
               "arrays": mix.PAPER_ARRAYS})
    path = write_json(os.path.join(rundir, "setup.json"), inputs)
    return median([harness_setup_s(harness, path)
                   for _ in range(SETUP_SPAWNS)])


# The end-to-end workloads.  The serve traffic mix (run_serve) is
# profiled by the traced run only: its closed-loop wall time swings by
# up to 2x between runs on a VM whose vCPUs are stolen, so it cannot
# hold a regression bound (perfbench/README.md).
WORKLOADS = {"verify-table1": run_verify, "search-sweep": run_sweep}


def end_to_end(tools, workload, seed, seconds, rundir, tally):
    setup_s = setup_metric(tools[0], workload, rundir)
    result = WORKLOADS[workload](tools, seed, seconds, rundir, tally)
    passes = result["passes"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_pass(passes, "wall_s"), "s"),
        "cpu_s": (median_pass(passes, "cpu_s"), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def verify_layer_metrics(result, trace):
    metrics = {}
    for net in ZOO_NAME:
        for stage in ["core.search", "mapping.build", "mapping.validate",
                      "sim.execute", "tensor.reference", "sim.compare"]:
            metrics[f"{net}.{stage}.s"] = (trace.total_s(stage, net=net), "s")
        metrics[f"{net}.mapping.build.cells"] = (
            trace.total_arg("mapping.build", "cells", net=net), "count")
        metrics[f"{net}.sim.execute.cycles"] = (
            trace.total_arg("sim.execute", "cycles", net=net), "cycles")
        metrics[f"{net}.core.search.candidates"] = (
            trace.total_arg("core.search", "candidates", net=net), "count")
    metrics["mapping.validate.ns_per_cell"] = (
        trace.total_s("mapping.validate") * 1e9 /
        trace.total_arg("mapping.validate", "cells"), "ns")
    metrics["sim.execute.ns_per_cycle"] = (
        trace.total_s("sim.execute") * 1e9 /
        trace.total_arg("sim.execute", "cycles"), "ns")
    metrics["tensor.reference.gmac_per_s"] = (
        trace.total_arg("tensor.reference", "macs") /
        trace.total_s("tensor.reference") / 1e9, "GMAC/s")
    (pass_span,) = trace.named("bench.verify.pass")
    uncovered = trace.uncovered_s(pass_span)
    metrics["verify.pass.uncovered_s"] = (uncovered, "s")
    metrics["verify.pass.coverage"] = (
        1 - uncovered / (pass_span["dur"] * 1e-6), "ratio")
    metrics["verify.trace_overhead_s"] = (
        result["traced"]["wall_s"] - result["passes"][0]["wall_s"], "s")
    return metrics


FIXED_MAPPERS = {"im2col", "smd", "sdk"}


def sweep_layer_metrics(result, trace):
    metrics = {}
    probe = trace.named("core.search")
    for objective in mix.OBJECTIVES:
        spans = [s for s in probe if s["args"]["objective"] == objective]
        seconds = sum(s["dur"] for s in spans) * 1e-6
        candidates = sum(s["args"]["candidates"] for s in spans)
        metrics[f"core.search.{objective}.s"] = (seconds, "s")
        metrics[f"core.search.{objective}.candidates"] = (candidates, "count")
        metrics[f"core.search.{objective}.ns_per_candidate"] = (
            seconds * 1e9 / candidates, "ns")
    for mapper in ["vw-sdk", "vw-sdk-pruned", "exhaustive", "vw-sdk-bitsliced",
                   "fixed"]:
        spans = [s for s in probe if s["args"]["mapper"] == mapper or
                 (mapper == "fixed" and s["args"]["mapper"] in FIXED_MAPPERS)]
        metrics[f"core.search.{mapper}.s"] = (
            sum(s["dur"] for s in spans) * 1e-6, "s")
    traced = result["traced"]
    metrics["core.cache.hit_ratio"] = (
        traced["cache_hits"] / (traced["cache_hits"] + traced["cache_misses"]),
        "ratio")
    (pass_span,) = trace.named("bench.sweep.pass")
    metrics["sweep.pass.uncovered_s"] = (trace.uncovered_s(pass_span), "s")
    metrics["sweep.trace_overhead_s"] = (
        traced["wall_s"] - result["passes"][0]["wall_s"], "s")
    return metrics


SERVE_OPS = ["map", "compare", "chip", "traffic", "verify"]


def serve_layer_metrics(result):
    samples = result["samples"]
    records = result["replay"]["requests"]
    latencies = [lat for _, _, lat in samples]
    metrics = {
        "serve.req_per_s": (len(samples) / result["loop_s"], "1/s"),
        "serve.p50_ms": (median(latencies) * 1e3, "ms"),
        "serve.p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "serve.samples": (len(samples), "count"),
    }
    for op in SERVE_OPS:
        metrics[f"serve.{op}.p50_ms"] = (
            median([lat for _, o, lat in samples if o == op]) * 1e3, "ms")
    metrics["serve.protocol.parse.s"] = (
        sum(r[1] for r in records) * 1e-9, "s")
    for op in SERVE_OPS:
        metrics[f"serve.service.{op}.s"] = (
            sum(r[2] for r in records if r[0] == op) * 1e-9, "s")
    metrics["core.serialize.s"] = (sum(r[3] for r in records) * 1e-9, "s")
    arrivals = result["replay"]["arrivals"]
    metrics["sim.traffic.arrivals"] = (arrivals, "count")
    metrics["sim.traffic.ns_per_arrival"] = (
        sum(r[2] for r in records if r[0] == "traffic") / arrivals, "ns")
    in_process = [r[1] + r[2] + r[3] for r in records]
    metrics["serve.roundtrip_overhead_ms"] = (
        median([lat * 1e3 - in_process[i] * 1e-6 for i, _, lat in samples]),
        "ms")
    metrics["core.cache.hits"] = (result["replay"]["cache_hits"], "count")
    metrics["core.cache.misses"] = (result["replay"]["cache_misses"], "count")
    metrics["serve.admission.rejected"] = (result["rejected"], "count")
    metrics["client.cpu_s"] = (result["client_cpu_s"], "s")
    return metrics


MODULES = ["nn", "pim", "tensor", "mapping", "core", "sim", "serve"]


def write_merged_trace(paths, out_path):
    """One Chrome trace holding each part as its own process."""
    events = []
    for pid, (label, path) in enumerate(paths, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        with open(path) as f:
            for event in json.load(f)["traceEvents"]:
                event["pid"] = pid
                events.append(event)
    with open(out_path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def per_layer(tools, seed, seconds, rundir, tally):
    """The traced run: every layer of all three workloads."""
    parts = [(name, os.path.join(rundir, f"{name}.trace.json"))
             for name in ["verify-table1", "search-sweep", "serve-mixed"]]
    paths = dict(parts)
    verify = run_verify(tools, seed, seconds, rundir, tally,
                        paths["verify-table1"])
    sweep = run_sweep(tools, seed, seconds, rundir, tally,
                      paths["search-sweep"])
    serve = run_serve(tools, seed, max(1.0, seconds / 3), rundir, tally,
                      paths["serve-mixed"])
    traces = {name: Trace.load(path) for name, path in parts}
    metrics = {}
    metrics.update(verify_layer_metrics(verify, traces["verify-table1"]))
    metrics.update(sweep_layer_metrics(sweep, traces["search-sweep"]))
    metrics.update(serve_layer_metrics(serve))
    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            sum(t.module_self_s(module) for t in traces.values()), "s")
    os.makedirs(TRACE_DIR, exist_ok=True)
    out = os.path.join(TRACE_DIR, f"trace-seed{seed}.json")
    write_merged_trace(parts, out)
    log(f"trace written to {out}")
    return metrics


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "serve", "service.h"))):
        log(f"no vwsdk source tree around {HERE}")
        return 2
    os.chdir(ROOT)
    rundir = os.path.join(
        RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    tally = Tally()
    try:
        tools = build()
        os.makedirs(rundir, exist_ok=True)
        if args.trace:
            metrics = per_layer(tools, args.seed, args.seconds, rundir, tally)
            metrics["failed_frac"] = (tally.failed_frac, "ratio")
        else:
            metrics = end_to_end(tools, args.workload, args.seed, args.seconds,
                                 rundir, tally)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"run failed: {error!r}")
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != declared:
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ declared)}")
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{check_metric_name(name):44s} {value:.9g} {unit}")
    print(f"{tally.failed} of {tally.attempted} operations failed")
    for reason in tally.reasons:
        log(f"failed: {reason}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
