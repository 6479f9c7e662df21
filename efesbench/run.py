#!/usr/bin/env python3
"""The EFES benchmark: one command, four workloads, checked outputs.

    python3 efesbench/run.py --workload estimate_cold --seed 1 --seconds 15 --trace 0

Builds the shipped binaries (efes, efes_serve) and the in-process probe
from the checkout into .bench_build/, generates the workload's inputs from
the seed, times the workload's operation as child processes for about
--seconds seconds, checks every output, and prints one JSON object as the
last line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
runs the same measurement and then the traced in-process run, and reports
the per-layer metrics. See efesbench/README.md for the workloads and the
metric glossary.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
EFES = os.path.join(BUILD, "efes_tools", "efes")
SERVE = os.path.join(BUILD, "efes_tools", "efes_serve")
PROBE = os.path.join(BUILD, "efesbench_probe")

THREADS = 4
SETUP_REPS = 5
# efes_serve request workers. Overlapping engine runs at this commit read
# each other's (dangling) ambient ProfileOptions and return estimates
# that differ from the sequential ones, so the server runs one request at
# a time until per-run context replaces the ambient globals.
SERVE_WORKERS = 1
CHILD_TIMEOUT_S = 150

SIZES = {
    "full": {"cold_entities": 15000, "warm_entities": 5000,
             "serve_entities": 5000, "profile_rows": 500000},
    "tiny": {"cold_entities": 1500, "warm_entities": 300,
             "serve_entities": 300, "profile_rows": 20000},
}

WORKLOADS = ("estimate_cold", "reestimate_warm", "serve_mixed",
             "profile_stream")

# On a machine shared with other tenants, an op runs up to twice as slow
# for stretches longer than a run. The benchmark therefore times the
# probe's fixed calibration kernel next to every op and reports op times
# scaled to a machine on which that kernel takes CALIBRATION_MS: the
# "_norm" metrics. Their low percentile is the steady figure; the raw
# times are reported too (see README.md).
CALIBRATION_MS = 25.0

END_TO_END = [
    ("op_ms_p10_norm", "ms"), ("rows_per_s_norm", "1/s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]

PER_LAYER = [
    ("op_ms_p10", "ms"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
    ("requests_per_s", "1/s"), ("calibration_ms_p50", "ms"),
    ("scenario.load_ms", "ms"), ("scenario.rows", "count"),
    ("scenario.cells", "count"), ("csv.read_ms", "ms"),
    ("csv.chunk_ms", "ms"), ("csg.build_ms", "ms"),
    ("structure.detect_ms", "ms"), ("structure.assess_ms", "ms"),
    ("structure.plan_ms", "ms"), ("structure.conflicts", "count"),
    ("structure.violations", "count"), ("mapping.assess_ms", "ms"),
    ("mapping.plan_ms", "ms"), ("values.assess_ms", "ms"),
    ("values.plan_ms", "ms"), ("dedup.assess_ms", "ms"),
    ("dedup.plan_ms", "ms"), ("engine.run_ms", "ms"),
    ("engine.overhead_ms", "ms"), ("core.price_ms", "ms"),
    ("experiment.render_ms", "ms"), ("cache.fingerprint_ms", "ms"),
    ("cache.load_ms", "ms"), ("cache.save_ms", "ms"),
    ("cache.snapshot_bytes", "bytes"), ("cache.hit_rate", "ratio"),
    ("cache.stores", "count"), ("profiling.profile_ms", "ms"),
    ("profiling.absorb_ms", "ms"), ("profiling.cells_per_s", "1/s"),
    ("serve.open_ms", "ms"),
    ("serve.estimate_ms_p50", "ms"), ("serve.assess_ms_p50", "ms"),
    ("serve.explain_ms_p50", "ms"), ("serve.shed", "count"),
    ("parallel.cpu_util", "ratio"), ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"), ("failed_frac", "ratio"),
    ("input.rows", "count"), ("input.cells", "count"),
    ("input.bytes", "bytes"),
]

# Spans of the traced estimate op that are module work (engine.overhead_ms
# is engine.run minus these).
MODULE_SPANS = [m + "." + p for m in ("mapping", "structure", "values", "dedup")
                for p in ("assess", "plan")] + ["core.price"]

# serve_mixed request kinds and their share of the mix.
SERVE_MIX = [
    ("estimate", {"op": "estimate", "quality": "high", "format": "json"}, 50),
    ("estimate", {"op": "estimate", "quality": "low", "format": "text"}, 20),
    ("assess", {"op": "assess", "modules": "mapping,values"}, 20),
    ("explain", {"op": "estimate", "explain": True}, 10),
]


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- child processes --------------------------------------------------------

class Child:
    """Outcome of one child process: exit code, output, wall time, rusage."""

    def __init__(self, code, out, wall_s, rusage):
        self.code = code
        self.out = out
        self.wall_s = wall_s
        self.rusage = rusage

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0


def run_child(argv, stderr_path):
    """Runs argv to completion; wall time spans spawn to reap."""
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, wall, rusage)


def probe(work, *args):
    """Runs one probe subcommand and returns its JSON answer."""
    child = run_child([PROBE] + list(args), os.path.join(work, "probe.err"))
    if child.code != 0:
        raise BenchError("efesbench_probe %s failed (exit %d), see %s"
                         % (args[0], child.code,
                            os.path.join(work, "probe.err")))
    return json.loads(child.out.decode())


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("run from an EFES checkout: src/ is missing")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(THREADS), "--target",
                    "efes_cli", "efes_serve", "efesbench_probe"],
                   check=True, stdout=sys.stderr, timeout=840)


def dir_bytes(path):
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def median(values):
    return statistics.median(values) if values else 0.0


def decile(values, k):
    """The k-th decile (k = 1 is p10, k = 9 is p90)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


# --- workloads --------------------------------------------------------------
#
# Each workload function returns a dict with:
#   op_s          measured op wall times (seconds); for serve_mixed, the
#                 server's time per estimate (high, json) request
#   latency_s     client-side latency of every request (serve_mixed only)
#   failed        ops that errored or failed a check
#   setup_s       wall time of each set-up repetition
#   rows          input rows one op processes
#   rss_mb        peak RSS per measured child
#   cpu_util      child CPU / (wall * threads), per op or for the run
#   elapsed_s     measured time (for requests_per_s)
#   input         {"rows", "cells", "bytes"}
#   trace         callable running the traced probe (trace runs only)
#   extra         per-layer values the workload measures itself

def calibrate(work):
    """Wall time of one run of the probe's calibration kernel."""
    return run_child([PROBE, "calibrate"],
                     os.path.join(work, "probe.err")).wall_s


def measure_loop(ctx, result, step):
    """Calls step(i), each right after a calibration, until the measured
    op time reaches --seconds (and at least 3 times)."""
    total = 0.0
    i = 0
    while i < 3 or total < ctx["seconds"]:
        result["cal_s"].append(calibrate(ctx["work"]))
        total += step(i)
        i += 1
    return i


def estimate_cold(ctx):
    work, size = ctx["work"], ctx["size"]
    scenario = os.path.join(work, "scenario")
    entities = str(size["cold_entities"])
    setup, stats = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(scenario, ignore_errors=True)
        seconds, answer = timed(lambda: probe(
            work, "scenario", "--seed=%d" % ctx["seed"],
            "--entities=" + entities, "--out=" + scenario))
        setup.append(seconds)
        stats.append(answer)
    reference = os.path.join(work, "reference.json")
    answer = probe(work, "reference", "--seed=%d" % ctx["seed"],
                   "--entities=" + entities, "--dir=" + scenario,
                   "--out=" + reference, "--threads=1")
    with open(reference, "rb") as f:
        expected = f.read()
    setup_ok = all(s == stats[0] for s in stats) and answer["recall"] >= 0.8
    if not setup_ok:
        log("estimate_cold: set-up check failed: %s recall %s"
            % (stats, answer["recall"]))
    expected = ctx["corrupt"](expected)
    argv = [EFES, "estimate", scenario, "--no-cache", "--format=json",
            "--threads=%d" % THREADS]
    result = {"op_s": [], "cal_s": [], "rss_mb": [], "cpu_util": [],
              "failed": 0}

    def step(_):
        child = run_child(argv, os.path.join(work, "efes.err"))
        record(result, child)
        if not (setup_ok and child.code == 0 and child.out == expected):
            result["failed"] += 1
        return child.wall_s

    measure_loop(ctx, result, step)
    result.update(setup_s=setup, rows=stats[0]["rows"], expected=expected,
                  input={"rows": stats[0]["rows"], "cells": stats[0]["cells"],
                         "bytes": dir_bytes(scenario)},
                  trace=lambda: probe(
                      work, "trace", "--workload=estimate_cold",
                      "--dir=" + scenario, "--reps=1",
                      "--trace-out=" + os.path.join(work, "trace.json")))
    return result


def record(result, child):
    result["op_s"].append(child.wall_s)
    result["rss_mb"].append(child.peak_rss_mb)
    result["cpu_util"].append(child.cpu_s / (child.wall_s * THREADS))


def reestimate_warm(ctx):
    work, size = ctx["work"], ctx["size"]
    base = os.path.join(work, "base")
    scenario = os.path.join(work, "scenario")
    cache = os.path.join(work, "cache")
    entities = str(size["warm_entities"])
    setup, stats = [], []

    def fill_cache():
        for path in (base, scenario, cache):
            shutil.rmtree(path, ignore_errors=True)
        answer = probe(work, "scenario", "--seed=%d" % ctx["seed"],
                       "--entities=" + entities, "--out=" + base)
        shutil.copytree(base, scenario)
        child = run_child([EFES, "estimate", scenario, "--cache-dir=" + cache,
                           "--format=json", "--threads=%d" % THREADS],
                          os.path.join(work, "efes.err"))
        if child.code != 0:
            raise BenchError("reestimate_warm: filling the cache failed")
        return answer

    for _ in range(SETUP_REPS):
        seconds, answer = timed(fill_cache)
        setup.append(seconds)
        stats.append(answer)
    setup_ok = all(s == stats[0] for s in stats)
    result = {"op_s": [], "cal_s": [], "rss_mb": [], "cpu_util": [],
              "failed": 0}
    outputs, codes = [], []

    def step(i):
        probe(work, "edit", "--dir=" + scenario, "--op=%d" % i)
        quality = "high" if i % 2 == 0 else "low"
        child = run_child([EFES, "estimate", scenario, "--cache-dir=" + cache,
                           "--format=json", "--quality=" + quality,
                           "--threads=%d" % THREADS],
                          os.path.join(work, "efes.err"))
        record(result, child)
        outputs.append(child.out)
        codes.append(child.code)
        if i == 0:
            corrupt_first[0] = probe(work, "cache-check",
                                     "--cache-dir=" + cache)["corrupt_entries"]
        return child.wall_s

    corrupt_first = [0]
    ops = measure_loop(ctx, result, step)
    corrupt_last = probe(work, "cache-check",
                         "--cache-dir=" + cache)["corrupt_entries"]
    # Every op's output must equal an uncached run of its edited scenario:
    # replay the edit script on pristine copies, in process, one shard per
    # thread.
    refs = os.path.join(work, "refs")
    shutil.rmtree(refs, ignore_errors=True)
    os.makedirs(refs)
    shards = []
    for shard in range(THREADS):
        replay = os.path.join(work, "replay%d" % shard)
        shutil.rmtree(replay, ignore_errors=True)
        shutil.copytree(base, replay)
        shards.append(subprocess.Popen(
            [PROBE, "replay", "--dir=" + replay, "--ops=%d" % ops,
             "--out=" + refs, "--shard=%d" % shard,
             "--shards=%d" % THREADS, "--threads=1"],
            stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL, cwd=ROOT))
    replay_codes = [p.wait(timeout=CHILD_TIMEOUT_S) for p in shards]
    if any(replay_codes):
        raise BenchError("reestimate_warm: replay failed: %s" % replay_codes)
    for i in range(ops):
        with open(os.path.join(refs, "%d.json" % i), "rb") as f:
            expected = ctx["corrupt"](f.read())
        corrupt = corrupt_first[0] if i == 0 else corrupt_last
        if not (setup_ok and codes[i] == 0 and outputs[i] == expected
                and corrupt == 0):
            result["failed"] += 1
    result.update(setup_s=setup, rows=stats[0]["rows"],
                  input={"rows": stats[0]["rows"], "cells": stats[0]["cells"],
                         "bytes": dir_bytes(base)},
                  trace=lambda: probe(
                      work, "trace", "--workload=reestimate_warm",
                      "--dir=" + scenario, "--cache-dir=" + cache,
                      "--reps=10", "--op=%d" % ops,
                      "--trace-out=" + os.path.join(work, "trace.json")))
    return result


class Server:
    """One efes_serve child speaking the line protocol over pipes."""

    def __init__(self, work):
        self.err = open(os.path.join(work, "serve.err"), "ab")
        self.proc = subprocess.Popen(
            [SERVE, "--workers=%d" % SERVE_WORKERS, "--threads=%d" % THREADS],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            cwd=ROOT)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        self.rusage = None

    def send(self, request):
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()

    def receive(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("efes_serve closed its output")
        return line.rstrip(b"\n")

    def call(self, request):
        self.send(request)
        return self.receive()

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def shutdown(self):
        """Drains the server and reaps it; returns its exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        try:
            self.call({"id": "shutdown", "op": "shutdown"})
            self.proc.stdin.close()
            self.proc.stdout.read()
        except (BenchError, OSError):
            self.proc.kill()
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode


def response_ok(line):
    try:
        return json.loads(line).get("ok") is True
    except ValueError:
        return False


def strip_id(line, request_id):
    return line.replace(b'"id":"%s"' % request_id.encode(), b"", 1)


def serve_mixed(ctx):
    work, size = ctx["work"], ctx["size"]
    sessions = ["s%d" % c for c in range(4)]
    dirs = [os.path.join(work, s) for s in sessions]
    setup, open_ms, stats = [], [], []
    server = None

    def start():
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        answers = [probe(work, "scenario", "--seed=%d" % (ctx["seed"] * 4 + c),
                         "--entities=%d" % size["serve_entities"],
                         "--out=" + d) for c, d in enumerate(dirs)]
        srv = Server(work)
        for session, d in zip(sessions, dirs):
            t0 = time.perf_counter()
            line = srv.call({"id": "open-" + session, "op": "open",
                             "session": session, "dir": d})
            open_ms.append((time.perf_counter() - t0) * 1e3)
            if not response_ok(line):
                srv.shutdown()
                raise BenchError("serve_mixed: open failed: %s" % line[:200])
        return srv, answers

    try:
        for rep in range(SETUP_REPS):
            seconds, (server, answers) = timed(start)
            setup.append(seconds)
            stats.append(answers)
            if rep + 1 < SETUP_REPS:
                server.shutdown()
        setup_ok = all(s == stats[0] for s in stats)
        # One reference response per (session, request kind), taken before
        # the measured phase; every measured response must match its own.
        references, alone_s = {}, []
        for session in sessions:
            for k, (_, fields, _) in enumerate(SERVE_MIX):
                rid = "ref-%s-%d" % (session, k)
                t0 = time.perf_counter()
                line = server.call(dict(fields, id=rid, session=session))
                if k == 0:
                    alone_s.append(time.perf_counter() - t0)
                if not response_ok(line):
                    raise BenchError("serve_mixed: reference request failed: "
                                     "%s" % line[:200])
                references[(session, k)] = ctx["corrupt"](strip_id(line, rid))
        # One worker and four clients keep the queue non-empty, so the gap
        # between consecutive responses is the server's time for the
        # later request; latency adds the wait behind other clients. The
        # end-to-end op is the most common request, estimate (high, json).
        result = {"op_s": [], "cal_s": [], "latency_s": [], "failed": 0,
                  "extra": {}}
        by_kind = {"estimate": [], "assess": [], "explain": []}
        shed = 0
        rngs = [random.Random("%d-%s" % (ctx["seed"], s)) for s in sessions]
        weights = [w for _, _, w in SERVE_MIX]
        pending = {}
        counter = [0]

        def issue(c):
            k = rngs[c].choices(range(len(SERVE_MIX)), weights)[0]
            counter[0] += 1
            rid = "%s-%d" % (sessions[c], counter[0])
            pending[rid] = (c, k, time.perf_counter())
            server.send(dict(SERVE_MIX[k][1], id=rid, session=sessions[c]))

        # The server never pauses, so calibrations run alongside it, one
        # after another, and each op takes the one that ended closest to
        # its own end.
        calibrations = []
        stop = threading.Event()

        def calibrate_alongside():
            while not stop.is_set():
                wall = calibrate(work)
                calibrations.append((time.perf_counter(), wall))
                stop.wait(0.05)

        calibrator = threading.Thread(target=calibrate_alongside)
        calibrator.start()
        op_ends = []
        cpu0 = server.cpu_s()
        start_t = last_t = time.perf_counter()
        for c in range(len(sessions)):
            issue(c)
        while pending:
            line = server.receive()
            now = time.perf_counter()
            rid = json.loads(line).get("id")
            c, k, sent = pending.pop(rid)
            latency = now - sent
            if k == 0:
                result["op_s"].append(now - last_t)
                op_ends.append(now)
            result["latency_s"].append(latency)
            last_t = now
            by_kind[SERVE_MIX[k][0]].append(latency * 1e3)
            if b'"code":"resource exhausted"' in line:
                shed += 1
            if not (setup_ok and response_ok(line) and
                    strip_id(line, rid) == references[(sessions[c], k)]):
                result["failed"] += 1
            if now - start_t < ctx["seconds"]:
                issue(c)
        elapsed = time.perf_counter() - start_t
        cpu = server.cpu_s() - cpu0
        stop.set()
        calibrator.join()
        if not calibrations:
            calibrations.append((time.perf_counter(), calibrate(work)))
        for end in op_ends:
            result["cal_s"].append(
                min(calibrations, key=lambda c: abs(c[0] - end))[1])
        code = server.shutdown()
        if code != 0:
            raise BenchError("efes_serve exited with %d" % code)
    finally:
        if server is not None:
            server.shutdown()
    rows = [a["rows"] for a in stats[0]]
    result.update(
        setup_s=setup, rows=statistics.mean(rows), elapsed_s=elapsed,
        untraced_op_s=median(alone_s),
        rss_mb=[server.rusage.ru_maxrss / 1024.0],
        cpu_util=[cpu / (elapsed * THREADS)],
        input={"rows": sum(rows), "cells": sum(a["cells"] for a in stats[0]),
               "bytes": sum(dir_bytes(d) for d in dirs)},
        trace=lambda: probe(
            work, "trace", "--workload=serve_mixed", "--dir=" + dirs[0],
            "--reps=5", "--trace-out=" + os.path.join(work, "trace.json")))
    result["extra"] = {
        "serve.open_ms": median(open_ms),
        "serve.estimate_ms_p50": median(by_kind["estimate"]),
        "serve.assess_ms_p50": median(by_kind["assess"]),
        "serve.explain_ms_p50": median(by_kind["explain"]),
        "serve.shed": shed,
    }
    return result


def profile_stream(ctx):
    work, size = ctx["work"], ctx["size"]
    csv = os.path.join(work, "big.csv")
    rows = size["profile_rows"]
    setup, stats = [], []
    for _ in range(SETUP_REPS):
        seconds, answer = timed(lambda: probe(
            work, "tall-csv", "--seed=%d" % ctx["seed"], "--rows=%d" % rows,
            "--out=" + csv))
        setup.append(seconds)
        stats.append(answer)
    flags = ["--approx=auto", "--max-memory=1048576"]
    ref = run_child([EFES, "profile", csv] + flags + ["--threads=1"],
                    os.path.join(work, "efes.err"))
    setup_ok = (all(s == stats[0] for s in stats) and ref.code == 0 and
                (": %d rows, 8 columns\n" % rows).encode() in ref.out)
    expected = ctx["corrupt"](ref.out)
    argv = [EFES, "profile", csv] + flags + ["--threads=%d" % THREADS]
    result = {"op_s": [], "cal_s": [], "rss_mb": [], "cpu_util": [],
              "failed": 0}

    def step(_):
        child = run_child(argv, os.path.join(work, "efes.err"))
        record(result, child)
        if not (setup_ok and child.code == 0 and child.out == expected):
            result["failed"] += 1
        return child.wall_s

    measure_loop(ctx, result, step)
    result.update(setup_s=setup, rows=rows,
                  input={"rows": rows, "cells": stats[0]["cells"],
                         "bytes": dir_bytes(csv)},
                  trace=lambda: probe(
                      work, "trace", "--workload=profile_stream",
                      "--csv=" + csv, "--reps=1",
                      "--trace-out=" + os.path.join(work, "trace.json")))
    return result


# --- metrics ----------------------------------------------------------------

def normalized_s(result):
    """Op times scaled by their calibrations to the reference machine."""
    return [op * (CALIBRATION_MS / 1e3) / cal
            for op, cal in zip(result["op_s"], result["cal_s"])]


def end_to_end(result):
    norm_p10_s = decile(normalized_s(result), 1)
    return {
        "op_ms_p10_norm": norm_p10_s * 1e3,
        "rows_per_s_norm": result["rows"] / norm_p10_s,
        "peak_rss_mb": median(result["rss_mb"]),
        "setup_s": median(result["setup_s"]),
    }


def per_layer(result, traced):
    values = {name: 0.0 for name, _ in PER_LAYER}
    for span, ms in traced["layers_ms"].items():
        if span + "_ms" in values:
            values[span + "_ms"] = ms
    for name, value in traced["counts"].items():
        if name in values:
            values[name] = value
    layers = traced["layers_ms"]
    if "engine.run" in layers:
        values["engine.overhead_ms"] = layers["engine.run"] - sum(
            layers.get(span, 0.0) for span in MODULE_SPANS)
    # The traced op against the same op untraced: for the server, an
    # estimate with no other request queued ahead of it.
    untraced_s = result.get("untraced_op_s") or median(result["op_s"])
    values["trace.overhead_frac"] = layers["op"] / (untraced_s * 1e3) - 1.0
    values["trace.attributed_frac"] = traced["attributed_frac"]
    values["parallel.cpu_util"] = median(result["cpu_util"])
    latency_ms = [s * 1e3 for s in result.get("latency_s") or result["op_s"]]
    values["failed_frac"] = result["failed"] / len(latency_ms)
    values["op_ms_p10"] = decile(result["op_s"], 1) * 1e3
    values["calibration_ms_p50"] = median(result["cal_s"]) * 1e3
    values["op_ms_p50"] = median(latency_ms)
    values["op_ms_p90"] = decile(latency_ms, 9)
    values["requests_per_s"] = len(latency_ms) / (
        result.get("elapsed_s") or sum(result["op_s"]))
    values.update(result.get("extra", {}))
    for key in ("rows", "cells", "bytes"):
        values["input." + key] = result["input"][key]
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input scale (tiny is for the smoke test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter every reference output after set-up, "
                             "so every check must fail (smoke test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        work = os.path.join(WORK, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        ctx = {
            "work": work, "seed": args.seed, "seconds": args.seconds,
            "size": SIZES[args.size],
            "corrupt": ((lambda data: data + b"corrupted")
                        if args.corrupt_reference else (lambda data: data)),
        }
        result = globals()[args.workload](ctx)
        if args.trace:
            traced = result["trace"]()
            # The traced op must render what the program printed.
            expected = result.get("expected")
            trace_ok = traced["outputs_match"] and (
                expected is None or traced["output"].encode() == expected)
            metrics = per_layer(result, traced)
            units = dict(PER_LAYER)
            print("traced %s: top layer by self time: %s; %.1f%% of op time "
                  "in named layer spans; trace: %s"
                  % (args.workload, traced["top_layer"],
                     100 * traced["attributed_frac"],
                     os.path.relpath(os.path.join(work, "trace.json"), ROOT)))
        else:
            trace_ok = True
            metrics = end_to_end(result)
            units = dict(END_TO_END)
        with open(os.path.join(work, "ops.json"), "w") as f:
            json.dump({key: result[key]
                       for key in ("op_s", "cal_s", "setup_s")}, f)
        print("inputs: %d rows, %d cells, %d bytes"
              % (result["input"]["rows"], result["input"]["cells"],
                 result["input"]["bytes"]))
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("efesbench: %s" % e)
        return 1
    attempted = len(result.get("latency_s") or result["op_s"])
    print(json.dumps({
        "correct": result["failed"] == 0 and trace_ok,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
