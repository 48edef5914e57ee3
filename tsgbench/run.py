#!/usr/bin/env python3
"""tsgbench: the repository benchmark.

    python3 tsgbench/run.py --workload mine-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The benchmark builds the shipped
binaries (tsg-mine, tsg-serve, tsg-router, tsg-pipe) and its own helper
(tsgbench/tool/bench_tool.exe) with dune, generates the workload's inputs
from --seed, drives the binaries with their default validation on, checks
their outputs against the repository's oracles, and prints one ledger
record per metric (JSON lines starting with {"record": ...}) followed by a
last line holding the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run replays the same inputs in-process through each
layer's public functions (bench_tool replay-*), wrapping every call in a
span, and reports the per-layer metrics. Any output mismatch counts as a
failed operation and makes the exit code 1.

Workloads (see WORKLOADS below for why each exists): mine-deep,
mine-wide, serve, ingest; BENCHMARK.json gates mine-deep and ingest.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402

BIN = "_build/default/bin"
TOOL = "_build/default/tsgbench/tool/bench_tool.exe"
TARGETS = [
    "./bin/tsg_mine.exe",
    "./bin/tsg_serve.exe",
    "./bin/tsg_router.exe",
    "./bin/tsg_pipe.exe",
    "./tsgbench/tool/bench_tool.exe",
]
WORK_ROOT = ".tsgbench_work"

# Why each workload exists. serve and mine-wide are not listed in
# BENCHMARK.json: serve's open-loop latency through the router, and the
# cost of mine-wide's gSpan-bound inputs, varied too much from run to run
# on a shared host to gate on. Both run by hand for their end-to-end
# figures, and every traced run still covers all layers.
WORKLOADS = {
    "mine-deep": "tsg-mine --save on Fig 4.5 depth-12 inputs: work grows with "
    "pattern count (occ_index, specialize, pattern sort, check_patterns, "
    "pattern_io); gSpan is a small share",
    "mine-wide": "tsg-mine --save on NC40 over the GO stand-in: gSpan "
    "embedding lists and min-DFS-code checks dominate; specialization and "
    "validation are small",
    "serve": "open-loop queries through tsg-router to 2 tsg-serve shards: "
    "only the query and cluster layers work; contains and lookups "
    "reported apart",
    "ingest": "tsg-pipe --push churn commits into tsg-serve: WAL, corpus, "
    "root-local re-mining, publish and reload; many small mining runs",
}

# Mining inputs per run and their threshold. The seed draws the graphs;
# a run mines every input once (more cycles if --seconds allows) and
# reports the interquartile mean over inputs, so seed-to-seed variation
# in pattern count evens out over the inputs.
MINE = {
    "mine-deep": {"kind": "deep", "inputs": 20, "support": "0.3"},
    "mine-wide": {"kind": "wide", "inputs": 14, "support": "0.2"},
}
SERVE_SUPPORT = "0.3"
INGEST_SUPPORT = "0.03"
INGEST_MAX_EDGES = "5"
PROBE_EVERY_COMMITS = 50
INGEST_COMMITS = 2000  # plan length; the run stops at --seconds
TRACE_INGEST_COMMITS = 60
SETUP_REPEATS = 5

# serve: reference open-loop rate, request mix and the capacity ladder
SERVE_RATE = 60.0
SERVE_MIX = [("contains", 0.80), ("label", 0.12), ("topk", 0.08)]
CONTAINS_MIX = [("sub", 0.65), ("hot", 0.30), ("heavy", 0.05)]
LADDER = [100.0, 150.0, 200.0, 300.0, 400.0]
LADDER_SECONDS = 1.0
WARMUP_S = 2.0
SEGMENT_S = 4.0  # reference-rate load runs in segments of about this length
LATENCY_LIMIT_S = 0.050  # all-request p99 a ladder rung must meet
ORACLE_SAMPLE = 40
REPLY_TIMEOUT_S = 10.0

# Per-layer predictions: which end-to-end metric each layer metric should
# move, and on which workload (printed into every per-layer ledger record).
LAYERS = [
    # (metric, unit, moves, on)
    ("serial.load_ms", "ms", "mine_wall_s", "mine-deep,mine-wide (small)"),
    ("taxonomy_io.load_ms", "ms", "mine_wall_s", "mine-deep,mine-wide (small)"),
    ("lint.inputs_ms", "ms", "mine_wall_s", "mine-deep,mine-wide (small)"),
    ("relabel.self_ms", "ms", "mine_wall_s", "mine-deep,mine-wide (small)"),
    ("gspan.self_ms", "ms", "mine_wall_s", "mine-wide; mine-deep barely"),
    ("gspan.classes", "count", "mine_wall_s", "mine-wide; mine-deep barely"),
    ("occ_index.self_ms", "ms", "mine_wall_s", "mine-wide,mine-deep"),
    ("occ_index.set_members", "count", "mine_wall_s", "mine-wide,mine-deep"),
    ("specialize.self_ms", "ms", "mine_wall_s", "mine-deep; mine-wide barely"),
    ("specialize.intersections", "count", "mine_wall_s", "mine-deep; mine-wide barely"),
    ("specialize.visited", "count", "mine_wall_s", "mine-deep; mine-wide barely"),
    ("specialize.emit_ratio", "ratio", "mine_wall_s", "mine-deep; mine-wide barely"),
    ("pattern.sort_ms", "ms", "mine_wall_s,peak_rss_mb", "mine-deep"),
    ("check_patterns.validate_ms", "ms", "mine_wall_s; setup_s", "mine-deep; serve"),
    ("check_patterns.pairs", "count", "mine_wall_s; setup_s", "mine-deep; serve"),
    ("pattern_io.save_ms", "ms", "mine_wall_s", "mine-deep"),
    ("pattern_io.bytes", "bytes", "mine_wall_s", "mine-deep"),
    ("gc.minor_mwords.load", "Mword", "mine_wall_s,peak_rss_mb", "mine-deep,mine-wide"),
    ("gc.minor_mwords.mine", "Mword", "mine_wall_s,peak_rss_mb", "mine-deep,mine-wide"),
    ("gc.minor_mwords.sort", "Mword", "mine_wall_s,peak_rss_mb", "mine-deep,mine-wide"),
    ("gc.minor_mwords.validate", "Mword", "mine_wall_s,peak_rss_mb", "mine-deep,mine-wide"),
    ("gc.minor_mwords.save", "Mword", "mine_wall_s,peak_rss_mb", "mine-deep,mine-wide"),
    ("gc.major_collections", "count", "mine_wall_s,peak_rss_mb", "mine-deep,mine-wide"),
    ("arena.hit_ratio", "ratio", "mine_wall_s,peak_rss_mb", "mine-deep,mine-wide"),
    ("trace.unattributed_ms", "ms", "-", "all (mining replay time outside any layer span)"),
    ("trace.overhead_ratio", "ratio", "-", "all (traced replay wall / untraced tsg-mine wall)"),
    ("store.load_s", "s", "contains_p50_ms,contains_p99_ms; setup_s", "serve"),
    ("store.candidates_us", "us", "contains_p50_ms,contains_p99_ms", "serve"),
    ("store.prefilter_ratio", "ratio", "contains_p50_ms,contains_p99_ms", "serve"),
    ("store.candidate_precision", "ratio", "contains_p50_ms,contains_p99_ms", "serve"),
    ("gen_iso.tests_per_contains", "count", "contains_p99_ms,query_capacity_qps", "serve"),
    ("gen_iso.us_per_test", "us", "contains_p99_ms,query_capacity_qps", "serve"),
    ("engine.contains_cold_us", "us", "contains_p50_ms", "serve"),
    ("engine.contains_hit_us", "us", "contains_p50_ms", "serve"),
    ("engine.cache_key_us", "us", "contains_p50_ms", "serve"),
    ("engine.by_label_us", "us", "lookup_p50_ms", "serve"),
    ("engine.top_k_us", "us", "lookup_p50_ms", "serve"),
    ("lru.hit_ratio", "ratio", "contains_p50_ms", "serve"),
    ("protocol.parse_us", "us", "lookup_p50_ms,lookup_p99_ms", "serve"),
    ("serve.answer_us", "us", "lookup_p50_ms,lookup_p99_ms", "serve"),
    ("merge.us", "us", "lookup_p99_ms", "serve"),
    ("replica.rtt_p50_ms", "ms", "contains_p99_ms,lookup_p99_ms", "serve"),
    ("replica.rtt_p99_ms", "ms", "contains_p99_ms,lookup_p99_ms", "serve"),
    ("router.added_ms", "ms", "contains_p99_ms,lookup_p99_ms", "serve"),
    ("wal.append_us", "us", "commit_p50_ms", "ingest"),
    ("wal.bytes_per_delta", "bytes", "commit_p50_ms", "ingest"),
    ("corpus.apply_us", "us", "commit_p50_ms", "ingest"),
    ("incremental.refresh_ms", "ms", "commit_p50_ms,commit_p99_ms", "ingest"),
    ("incremental.roots_mined", "count", "commit_p50_ms,commit_p99_ms", "ingest"),
    ("incremental.reuse_ratio", "ratio", "commit_p50_ms,commit_p99_ms", "ingest"),
    ("publish.render_ms", "ms", "commit_p50_ms,commit_p99_ms", "ingest"),
    ("publish.bytes", "bytes", "commit_p50_ms,commit_p99_ms", "ingest"),
    ("safe_io.write_ms", "ms", "commit_p50_ms,commit_p99_ms", "ingest"),
    ("publish.push_ms", "ms", "commit_p50_ms,commit_p99_ms", "ingest"),
    ("epoch.checksum_us", "us", "commit_p50_ms,commit_p99_ms", "ingest"),
]

# Counters read through the stats verb at the end of an untraced run.
STATS_COUNTERS = re.compile(
    r"^(cache\.hits|cache\.misses|contains\.candidates|contains\.iso_tests|"
    r"serve\.admitted|.*shed.*|.*overload.*|cluster\.failovers|cluster\.hedges)$"
)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


# ---------------------------------------------------------------------
# ledger


class Ledger:
    """Collects one record per metric, each with its provenance."""

    def __init__(self, workload, seed, trace):
        self.records = []
        self.base = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "nproc": os.cpu_count() or 1,
            "ocaml": ocaml_version(),
            "git_rev": git_revision(),
            "source_digest": source_digest(),
        }

    def add(self, layer, metric, unit, samples=None, value=None, **extra):
        rec = dict(self.base)
        rec.update({"layer": layer, "metric": metric, "unit": unit})
        if samples:
            rec.update(bs.summary(samples))
        else:
            rec.update({"n": 1, "median": value, "q1": value, "q3": value})
        rec["value"] = rec["median"] if value is None else value
        rec.update(extra)
        self.records.append(rec)
        return rec["value"]

    def emit(self):
        for r in self.records:
            print(json.dumps({"record": "tsgbench", **r}, sort_keys=True))


def ocaml_version():
    try:
        out = subprocess.run(
            ["ocamlfind", "ocamlopt", "-version"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        out = subprocess.run(["ocaml", "-version"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip().split()[-1]
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over lib/, bin/ and the benchmark: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "tsgbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------
# processes


class Procs:
    """Every process the benchmark starts, so all are stopped and reaped."""

    def __init__(self):
        self.live = []

    def start(self, args, **kw):
        p = subprocess.Popen(args, **kw)
        self.live.append(p)
        return p

    def stop(self, p, sig=signal.SIGTERM, timeout=10.0):
        """Stop p and reap it; returns its peak RSS in kB from wait4."""
        if p.returncode is None and not exited(p):
            try:
                p.send_signal(sig)
            except ProcessLookupError:
                pass
        rss = reap(p, timeout)
        if p in self.live:
            self.live.remove(p)
        return rss

    def wait(self, p, timeout=170.0):
        """Wait for p to exit on its own and reap it; peak RSS in kB."""
        rss = reap(p, timeout)
        self.live.remove(p)
        return rss

    def stop_all(self):
        for p in list(self.live):
            self.stop(p, signal.SIGKILL, timeout=5.0)


PROCS = Procs()


def exited(p):
    """Whether p has exited, without reaping it (its rusage stays readable)."""
    return os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def reap(p, timeout):
    """Wait for p (killing it past timeout) and return its ru_maxrss in kB."""
    if p.returncode is not None:
        return 0
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            p.kill()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        time.sleep(0.005)


def run_timed(args, stdout=subprocess.DEVNULL):
    """Run a program to completion: (wall seconds from spawn to exit, exit
    code, peak RSS kB, stdout text or None)."""
    t0 = time.perf_counter()
    p = PROCS.start(args, stdout=stdout, stderr=subprocess.PIPE)
    out = None
    if stdout == subprocess.PIPE:
        out = p.stdout.read().decode()
    err = p.stderr.read().decode()
    rss = PROCS.wait(p)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        sys.stderr.write("tsgbench: %s exited %d\n%s" % (args[0], p.returncode, err[-2000:]))
    return wall, p.returncode, rss, out


def tool(*args, check=True, timeout=170.0):
    out = subprocess.run([TOOL, *args], capture_output=True, text=True, timeout=timeout)
    if check and out.returncode != 0:
        raise BenchError("bench_tool %s failed (%d): %s" % (args[0], out.returncode, out.stderr[-2000:]))
    return out


# Host speed. On a shared host, identical tsg-mine runs on one input vary
# by up to 1.7x as neighbours come and go. A fixed kernel that uses none
# of the repository's code (bench_tool calibrate) is timed around every
# measurement, and the gated times are scaled to the kernel's nominal
# time: a value reads as "on a host where the kernel takes 35 ms". The
# raw times stay in the ledger next to the factor.
KERNEL_NOMINAL_S = 0.035
SCALED = "scaled to nominal host speed (see kernel_s)"


def speed_probe():
    """Median time of three rounds of the reference kernel, seconds."""
    return statistics.median(float(x) for x in tool("calibrate", "3").stdout.split())


def scaled(raw, before, after):
    """raw (a time measured between two probes) at nominal host speed."""
    return raw * KERNEL_NOMINAL_S / ((before + after) / 2.0)


def vmhwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def wait_listening(p, errpath, name, timeout=60.0):
    """Port a freshly started server reports on stderr ("listening on")."""
    deadline = time.monotonic() + timeout
    pat = re.compile(r"listening on [^ ]*:(\d+)")
    while time.monotonic() < deadline:
        with open(errpath) as fh:
            m = pat.search(fh.read())
        if m:
            return int(m.group(1))
        if exited(p):
            with open(errpath) as fh:
                raise BenchError("%s died at start-up: %s" % (name, fh.read()[-2000:]))
        time.sleep(0.01)
    raise BenchError("%s did not start listening" % name)


def request(port, line, timeout=10.0):
    """One request on a fresh connection; returns the whole reply block."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\nquit\n").encode())
        f = s.makefile("rb")
        first = f.readline().decode().rstrip("\n")
        lines = [first]
        if first == "begin stats":
            while True:
                ln = f.readline().decode()
                if not ln:
                    break
                ln = ln.rstrip("\n")
                lines.append(ln)
                if ln == "end stats":
                    break
        else:
            m = re.match(r"^(?:id \S+ )?ok (\d+)$", first)
            if m:
                for _ in range(int(m.group(1))):
                    lines.append(f.readline().decode().rstrip("\n"))
        return lines


def wait_healthy(port, name, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            reply = request(port, "health", timeout=2.0)
            if reply and reply[0].startswith("ok health"):
                return reply[0]
        except OSError:
            pass
        time.sleep(0.02)
    raise BenchError("%s never became healthy" % name)


def stats_counters(port):
    out = {}
    for line in request(port, "stats"):
        parts = line.split()
        if len(parts) == 3 and parts[0] == "counter" and STATS_COUNTERS.match(parts[1]):
            out[parts[1]] = int(parts[2])
    return out


# ---------------------------------------------------------------------
# build


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("not at the root of a taxogram source checkout (need dune-project, lib/, bin/)")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    out = subprocess.run(
        [dune, "build", "--root", ".", *TARGETS], capture_output=True, text=True, timeout=900
    )
    if out.returncode != 0:
        raise BenchError("build failed:\n" + (out.stdout + out.stderr)[-4000:])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------
# mine-deep, mine-wide


def mine_args(tax, db, support, out, max_edges="0"):
    args = [BIN + "/tsg_mine.exe", "--db", db, "--taxonomy", tax, "--domains", "1",
            "--support", support, "--save", out, "--quiet"]
    if max_edges != "0":
        args += ["--max-edges", max_edges]
    return args


def gen_mine(spec, seed, work):
    tool("gen", "mine", spec["kind"], str(seed), str(spec["inputs"]), work)
    return os.path.join(work, "in.tax"), [
        os.path.join(work, "in_%d.db" % i) for i in range(spec["inputs"])
    ]


def run_mine(name, seed, seconds, work, ledger):
    spec = MINE[name]
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        fresh_dir(work)
        before = speed_probe()
        t0 = time.perf_counter()
        tax, dbs = gen_mine(spec, seed, work)
        raw = time.perf_counter() - t0
        setups_raw.append(raw)
        setups.append(scaled(raw, before, speed_probe()))
    walls = [[] for _ in dbs]
    raws = []
    probes = [speed_probe()]
    rss = [0 for _ in dbs]
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for i, db in enumerate(dbs):
            out = os.path.join(work, "out_%d.pat" % i)
            wall, code, maxrss, _ = run_timed(mine_args(tax, db, spec["support"], out))
            probes.append(speed_probe())
            attempted += 1
            if code != 0:
                failed += 1
                continue
            raws.append(wall)
            walls[i].append(scaled(wall, probes[-2], probes[-1]))
            rss[i] = max(rss[i], maxrss)
        cycle = time.perf_counter() - t_cycle
        # whole cycles only, so every input counts the same
        if time.perf_counter() - t_start + cycle > seconds:
            break
    # gates: the traced replay reproduces tsg-mine's bytes; sampled
    # supports recomputed by generalized subgraph isomorphism
    attempted += 1
    replay = os.path.join(work, "replay_0.pat")
    r = tool("replay-mine", tax, dbs[0], spec["support"], "0", replay, check=False)
    if r.returncode != 0 or not same_bytes(replay, os.path.join(work, "out_0.pat")):
        failed += 1
        sys.stderr.write("tsgbench: replayed pattern set differs from tsg-mine's\n")
    for i, db in enumerate(dbs):
        attempted += 1
        r = tool("check-support", tax, db, os.path.join(work, "out_%d.pat" % i),
                 str(seed * 1000 + i), "5", check=False)
        if r.returncode != 0:
            failed += 1
            sys.stderr.write("tsgbench: support mismatch: %s%s" % (r.stdout, r.stderr))
    if any(not w for w in walls):
        raise BenchError("an input never mined successfully")
    per_input = [statistics.median(w) for w in walls]
    setup_s = ledger.add("setup", "setup_s", "s", setups, definition=SCALED)
    ledger.add("setup", "setup_raw_s", "s", setups_raw)
    ledger.add("host", "kernel_s", "s", probes, nominal=KERNEL_NOMINAL_S)
    ledger.add("tsg-mine", "mine_wall_s", "s", raws, inputs=len(dbs))
    op = ledger.add("tsg-mine", "op_cost_ms", "ms", value=1000.0 * bs.interquartile_mean(per_input),
                    definition="interquartile mean over the run's inputs of each input's "
                    "median tsg-mine wall; " + SCALED, n=len(raws))
    peak = ledger.add("tsg-mine", "peak_rss_mb", "MB", value=sum(rss) / len(rss) / 1024.0,
                      definition="mean over inputs of tsg-mine peak RSS (wait4 ru_maxrss)",
                      n=len(rss))
    return {"setup_s": setup_s, "op_cost_ms": op, "peak_rss_mb": peak}, attempted, failed


def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


# ---------------------------------------------------------------------
# serve


class Cluster:
    """2 tsg-serve shards behind one tsg-router, all on ephemeral ports."""

    def __init__(self, procs, work, tax, pat):
        self.procs = procs
        self.shards = []
        errs = []
        for i in range(2):
            errs.append(os.path.join(work, "shard%d.err" % i))
            with open(errs[-1], "w") as fh:
                self.shards.append(procs.start(
                    [BIN + "/tsg_serve.exe", "--patterns", pat, "--taxonomy", tax,
                     "--listen", "0", "--shard", "%d/2" % i, "--domains", "1", "--quiet"],
                    stdout=subprocess.DEVNULL, stderr=fh))
        self.shard_ports = [wait_listening(p, err, "tsg-serve shard %d" % i)
                            for i, (p, err) in enumerate(zip(self.shards, errs))]
        for i, port in enumerate(self.shard_ports):
            wait_healthy(port, "tsg-serve shard %d" % i)
        err = os.path.join(work, "router.err")
        with open(err, "w") as fh:
            self.router = procs.start(
                [BIN + "/tsg_router.exe"]
                + [a for port in self.shard_ports for a in ("--shard", "127.0.0.1:%d" % port)]
                + ["--taxonomy", tax, "--listen", "0", "--quiet"],
                stdout=subprocess.DEVNULL, stderr=fh)
        self.router_port = wait_listening(self.router, err, "tsg-router")
        wait_healthy(self.router_port, "tsg-router")

    def peak_rss_kb(self):
        return sum(vmhwm_kb(p.pid) for p in self.shards + [self.router])

    def stop(self):
        for p in [self.router] + self.shards:
            self.procs.stop(p)


def load_queries(path):
    pools = {}
    with open(path) as fh:
        for line in fh:
            kind, _, q = line.rstrip("\n").partition("\t")
            pools.setdefault(kind, []).append(q)
    return pools


def pick(rng, weighted):
    x = rng.random()
    for name, w in weighted:
        x -= w
        if x < 0:
            return name
    return weighted[-1][0]


def make_requests(pools, rng, n):
    """n (class, kind, line) requests drawn from the query pools."""
    out = []
    for _ in range(n):
        verb = pick(rng, SERVE_MIX)
        if verb == "contains":
            kind = pick(rng, CONTAINS_MIX)
            if not pools.get(kind):
                kind = "sub"
            out.append(("contains", kind, rng.choice(pools[kind])))
        else:
            out.append(("lookup", verb, rng.choice(pools[verb])))
    return out


class OpenLoop:
    """Open-loop load: each request is sent at its due time whatever the
    replies are doing, over at most nproc persistent connections, tagged
    `id <n>` so replies match requests. Latency runs from the due time."""

    def __init__(self, port, due, requests, keep):
        self.port = port
        self.due = due
        self.requests = requests
        self.keep = keep  # request indexes whose reply bodies are kept
        n = len(due)
        self.sent = [None] * n
        self.done = [None] * n
        self.ok = [False] * n
        self.bodies = {}

    def run(self):
        conns = max(1, min(os.cpu_count() or 1, 2))
        socks = [socket.create_connection(("127.0.0.1", self.port), timeout=REPLY_TIMEOUT_S)
                 for _ in range(conns)]
        for s in socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.t0 = time.perf_counter() + 0.05
        threads = []
        for c, s in enumerate(socks):
            mine = list(range(c, len(self.due), conns))
            threads.append(threading.Thread(target=self.reader, args=(s, len(mine)), daemon=True))
            threads.append(threading.Thread(target=self.sender, args=(s, mine), daemon=True))
        for t in threads:
            t.start()
        end = self.t0 + (self.due[-1] if self.due else 0.0) + REPLY_TIMEOUT_S
        for t in threads:
            t.join(max(0.0, end - time.perf_counter()))
        for s in socks:
            try:
                s.close()
            except OSError:
                pass
        return [None if d is None else d - self.t0 for d in self.done]

    def sender(self, s, mine):
        try:
            for i in mine:
                target = self.t0 + self.due[i]
                wait = target - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                s.sendall(("id %d %s\n" % (i, self.requests[i][2])).encode())
                self.sent[i] = time.perf_counter() - self.t0
        except OSError:
            pass

    def reader(self, s, expected):
        f = s.makefile("rb")
        try:
            for _ in range(expected):
                first = f.readline()
                if not first:
                    return
                first = first.decode().rstrip("\n")
                m = re.match(r"^id (\d+) (.*)$", first)
                if not m:
                    return
                i, rest = int(m.group(1)), m.group(2)
                body = []
                mo = re.match(r"^ok (\d+)$", rest)
                if mo:
                    for _ in range(int(mo.group(1))):
                        body.append(f.readline().decode().rstrip("\n"))
                self.done[i] = time.perf_counter()
                self.ok[i] = mo is not None
                if i in self.keep:
                    self.bodies[i] = body
        except OSError:
            return


def draw_load(rng, rate, seconds, pools):
    """Due times and requests of one open-loop segment."""
    due = bs.poisson_schedule(rng, rate, seconds)
    return due, make_requests(pools, rng, len(due))


def run_load(port, rng, rate, seconds, pools, keep_sample=0):
    due, reqs = draw_load(rng, rate, seconds, pools)
    contains_idx = [i for i, r in enumerate(reqs) if r[0] == "contains"]
    keep = set(rng.sample(contains_idx, min(keep_sample, len(contains_idx))))
    load = OpenLoop(port, due, reqs, keep)
    done = load.run()
    lat = bs.latencies_from_due(due, [d if load.ok[i] else None for i, d in enumerate(done)])
    late = [s - t for s, t in zip(load.sent, due) if s is not None]
    return due, reqs, lat, late, load


def gen_serve(seed, work):
    tool("gen", "serve", str(seed), work)
    return (os.path.join(work, "serve.tax"), os.path.join(work, "serve.db"),
            os.path.join(work, "serve.pat"), os.path.join(work, "queries.tsv"))


def run_serve(seed, seconds, work, ledger, procs):
    setups, setups_raw = [], []
    cluster = None
    for k in range(SETUP_REPEATS):
        fresh_dir(work)
        before = speed_probe()
        t0 = time.perf_counter()
        tax, _db, pat, qpath = gen_serve(seed, work)
        cluster = Cluster(procs, work, tax, pat)
        raw = time.perf_counter() - t0
        setups_raw.append(raw)
        setups.append(scaled(raw, before, speed_probe()))
        if k < SETUP_REPEATS - 1:
            cluster.stop()
    pools = load_queries(qpath)
    rng = random.Random(seed)
    # open-loop load at the reference rate, in segments with a host-speed
    # probe between them (each segment its own schedule); the first
    # seconds after start-up run slower, so a warm-up goes first
    segments = max(1, int(round(seconds / SEGMENT_S)))
    _, _, l0, _, _ = run_load(cluster.router_port, rng, SERVE_RATE, WARMUP_S, pools)
    warm_failed = sum(1 for x in l0 if x is None)
    probes = [speed_probe()]
    reqs, lat, late, norm, kept = [], [], [], [], []
    for _ in range(segments):
        _, r, l, lt, load = run_load(cluster.router_port, rng, SERVE_RATE, seconds / segments,
                                     pools, keep_sample=ORACLE_SAMPLE // segments)
        probes.append(speed_probe())
        reqs += r
        lat += l
        late += lt
        norm += [None if x is None else scaled(x, probes[-2], probes[-1]) for x in l]
        kept += [(r[i][2], body) for i, body in sorted(load.bodies.items())]
    attempted = len(lat) + len(l0)
    failed = sum(1 for x in lat if x is None) + warm_failed
    # capacity: fixed ladder, stop at the first rung that misses the limit
    capacity = SERVE_RATE if bs.meets_limit(lat, 99, LATENCY_LIMIT_S) else 0.0
    ladder_runs = []
    if capacity > 0:
        for rate in LADDER:
            _, _, l2, _, _ = run_load(cluster.router_port, rng, rate, LADDER_SECONDS, pools)
            ok = bs.meets_limit(l2, 99, LATENCY_LIMIT_S) and not growing_backlog(l2)
            worst = [float("inf") if x is None else x for x in l2]
            ladder_runs.append({"rate": rate, "ok": ok, "n": len(l2),
                                "p99_ms": 1000.0 * bs.nearest_rank(worst, 99)})
            if not ok:
                break
            capacity = rate
    counters = {}
    for name, port in [("router", cluster.router_port)] + [
            ("shard%d" % i, p) for i, p in enumerate(cluster.shard_ports)]:
        for k, v in stats_counters(port).items():
            counters["%s.%s" % (name, k)] = v
    rss_kb = cluster.peak_rss_kb()
    cluster.stop()
    # gate: sampled contains replies equal the brute-force unsharded engine
    mism = 0
    if kept:
        req_path = os.path.join(work, "oracle_requests.txt")
        with open(req_path, "w") as fh:
            for line, _ in kept:
                fh.write(line + "\n")
        expected = tool("oracle-contains", tax, pat, req_path).stdout.splitlines()
        for (_, body), exp in zip(kept, expected):
            if " ".join(line.split()[1] for line in body) != exp:
                mism += 1
    attempted += len(kept)
    failed += mism
    if mism:
        sys.stderr.write("tsgbench: %d contains replies differ from contains_brute\n" % mism)
    c_lat = [x for x, r in zip(lat, reqs) if r[0] == "contains" and x is not None]
    l_lat = [x for x, r in zip(lat, reqs) if r[0] == "lookup" and x is not None]
    if not c_lat or not l_lat:
        raise BenchError("no successful requests")
    ms = lambda xs: [1000.0 * x for x in xs]  # noqa: E731
    setup_s = ledger.add("setup", "setup_s", "s", setups, definition=SCALED)
    ledger.add("setup", "setup_raw_s", "s", setups_raw)
    ledger.add("host", "kernel_s", "s", probes, nominal=KERNEL_NOMINAL_S)
    p50 = ledger.add("serve", "contains_p50_ms", "ms", value=1000.0 * bs.nearest_rank(c_lat, 50),
                     n=len(c_lat), rate=SERVE_RATE)
    ledger.add("serve", "contains_p99_ms", "ms", value=1000.0 * bs.nearest_rank(c_lat, 99),
               n=len(c_lat), tail_percentile=bs.tail_percentile(len(c_lat)))
    ledger.add("serve", "lookup_p50_ms", "ms", value=1000.0 * bs.nearest_rank(l_lat, 50), n=len(l_lat))
    ledger.add("serve", "lookup_p99_ms", "ms", value=1000.0 * bs.nearest_rank(l_lat, 99), n=len(l_lat),
               tail_percentile=bs.tail_percentile(len(l_lat)))
    ledger.add("serve", "contains_latency_ms", "ms", ms(c_lat))
    ledger.add("serve", "lookup_latency_ms", "ms", ms(l_lat))
    ledger.add("serve", "query_capacity_qps", "req/s", value=capacity, ladder=ladder_runs,
               limit_ms=1000.0 * LATENCY_LIMIT_S)
    ledger.add("loadgen", "lateness_ms", "ms", ms(late), p99=1000.0 * bs.nearest_rank(late, 99),
               max=1000.0 * max(late))
    for k, v in sorted(counters.items()):
        ledger.add("stats", k, "count", value=v)
    # fresh (cold-cache) subgraph contains: their share of the mix does
    # not depend on which queries the seed made hot
    s_lat = [x for x, r in zip(norm, reqs) if r[1] == "sub" and x is not None]
    op = ledger.add("serve", "op_cost_ms", "ms", value=1000.0 * bs.nearest_rank(s_lat, 50),
                    n=len(s_lat), definition="p50 from due time of fresh-subgraph contains at "
                    "the reference rate; " + SCALED)
    peak = ledger.add("serve", "peak_rss_mb", "MB", value=rss_kb / 1024.0,
                      definition="sum of VmHWM over the 2 shards and the router")
    return {"setup_s": setup_s, "op_cost_ms": op, "peak_rss_mb": peak}, attempted, failed


def growing_backlog(lat):
    """A rung's backlog grows when the second half of its requests waits
    clearly longer than the first half (or requests never come back)."""
    if any(x is None for x in lat) or len(lat) < 20:
        return any(x is None for x in lat)
    half = len(lat) // 2
    a, b = statistics.median(lat[:half]), statistics.median(lat[half:])
    return b > 2 * a + 0.005


# ---------------------------------------------------------------------
# ingest


class Pipeline:
    """One tsg-serve fed by one tsg-pipe --push (stdin deltas)."""

    def __init__(self, procs, work, base_delta):
        self.procs = procs
        self.work = work
        tax = os.path.join(work, "ingest.tax")
        self.tax = tax
        live = os.path.join(work, "live.pat")
        err = os.path.join(work, "serve.err")
        with open(err, "w") as fh:
            self.serve = procs.start(
                [BIN + "/tsg_serve.exe", "--patterns", live, "--taxonomy", tax, "--listen", "0",
                 "--domains", "1", "--quiet"], stdout=subprocess.DEVNULL, stderr=fh)
        self.port = wait_listening(self.serve, err, "tsg-serve")
        wait_healthy(self.port, "tsg-serve")
        self.wal = os.path.join(work, "corpus.wal")
        self.pipe_err = open(os.path.join(work, "pipe.err"), "w")
        self.pipe = procs.start(
            [BIN + "/tsg_pipe.exe", "--wal", self.wal, "--taxonomy", tax, "--out", live,
             "--push", "127.0.0.1:%d" % self.port, "--support", INGEST_SUPPORT,
             "--max-edges", INGEST_MAX_EDGES, "--domains", "1", "--quiet"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.pipe_err)
        line = self.pipe.stdout.readline().decode()
        if not line.startswith("recovered"):
            raise BenchError("tsg-pipe did not start: %r" % line)
        with open(base_delta) as fh:
            self.commit(fh.read())

    def commit(self, deltas):
        """Send one commit's deltas; (latency s, committed line)."""
        t0 = time.perf_counter()
        self.pipe.stdin.write((deltas + "commit\n").encode())
        self.pipe.stdin.flush()
        while True:
            line = self.pipe.stdout.readline().decode()
            if not line:
                raise BenchError("tsg-pipe exited mid-commit")
            if line.startswith("committed"):
                return time.perf_counter() - t0, line.strip()

    def close_pipe(self):
        self.pipe.stdin.close()
        self.pipe.stdout.read()
        rss = self.procs.stop(self.pipe, timeout=60.0)
        self.pipe_err.close()
        return rss

    def stop(self):
        rss = self.close_pipe()
        hwm = vmhwm_kb(self.serve.pid)
        self.procs.stop(self.serve)
        return rss, hwm


def churn_blocks(path):
    with open(path) as fh:
        text = fh.read()
    return [b for b in text.split("commit\n") if b.strip()]


def run_ingest(seed, seconds, work, ledger, procs):
    setups, setups_raw = [], []
    pipe = None
    for k in range(SETUP_REPEATS):
        if pipe is not None:
            pipe.stop()
        fresh_dir(work)
        before = speed_probe()
        t0 = time.perf_counter()
        tool("gen", "ingest", str(seed), str(INGEST_COMMITS), work)
        pipe = Pipeline(procs, work, os.path.join(work, "base.delta"))
        raw = time.perf_counter() - t0
        setups_raw.append(raw)
        setups.append(scaled(raw, before, speed_probe()))
    lats, norm, batch = [], [], []
    probes = [speed_probe()]
    attempted = failed = 0
    last = None
    t_start = time.perf_counter()
    blocks = churn_blocks(os.path.join(work, "churn.delta"))
    for n, block in enumerate(blocks):
        if time.perf_counter() - t_start >= seconds:
            break
        attempted += 1
        lat, line = pipe.commit(block)
        last = line
        # the push is acknowledged only when the committed line carries
        # the server's checksum
        if " checksum " not in line:
            failed += 1
        else:
            lats.append(lat)
            batch.append(lat)
        # commits are sequential, so the host-speed probe fits between them
        if (n + 1) % PROBE_EVERY_COMMITS == 0:
            probes.append(speed_probe())
            norm += [scaled(x, probes[-2], probes[-1]) for x in batch]
            batch = []
    if batch:
        probes.append(speed_probe())
        norm += [scaled(x, probes[-2], probes[-1]) for x in batch]
    counters = stats_counters(pipe.port)
    health = request(pipe.port, "health")[0]
    pipe_rss = pipe.close_pipe()
    serve_hwm = vmhwm_kb(pipe.serve.pid)
    procs.stop(pipe.serve)
    # gate: the served checksum equals a from-scratch mine of the export
    attempted += 1
    served = re.search(r"checksum ([0-9a-f]+)", health).group(1)
    export = os.path.join(work, "export.db")
    _, code, _, out = run_timed(
        [BIN + "/tsg_pipe.exe", "--wal", pipe.wal, "--taxonomy", pipe.tax, "--export", export,
         "--quiet"], stdout=subprocess.PIPE)
    m = re.search(r"exported seq (\d+) ", out or "")
    if code != 0 or not m:
        raise BenchError("tsg-pipe --export failed")
    oracle = tool("oracle-ingest", pipe.tax, export, INGEST_SUPPORT, INGEST_MAX_EDGES, m.group(1)).stdout
    expect = re.search(r"checksum ([0-9a-f]+)", oracle).group(1)
    pushed = re.search(r"checksum ([0-9a-f]+)", last or "")
    if served != expect or not pushed or pushed.group(1) != served:
        failed += 1
        sys.stderr.write("tsgbench: served checksum %s, pushed %s, from-scratch %s\n"
                         % (served, pushed and pushed.group(1), expect))
    if not lats:
        raise BenchError("no commit completed")
    ms = [1000.0 * x for x in lats]
    setup_s = ledger.add("setup", "setup_s", "s", setups, definition=SCALED)
    ledger.add("setup", "setup_raw_s", "s", setups_raw)
    ledger.add("host", "kernel_s", "s", probes, nominal=KERNEL_NOMINAL_S)
    p50 = ledger.add("tsg-pipe", "commit_p50_ms", "ms", value=bs.nearest_rank(ms, 50), n=len(ms))
    tail = bs.tail_percentile(len(ms)) or 50
    ledger.add("tsg-pipe", "commit_p99_ms", "ms", value=bs.nearest_rank(ms, 99), n=len(ms),
               tail_percentile=tail, tail_value=bs.nearest_rank(ms, tail))
    ledger.add("tsg-pipe", "commit_latency_ms", "ms", ms)
    for k, v in sorted(counters.items()):
        ledger.add("stats", "serve." + k if not k.startswith("serve.") else k, "count", value=v)
    op = ledger.add("tsg-pipe", "op_cost_ms", "ms",
                    value=1000.0 * bs.nearest_rank(norm, 50), n=len(norm),
                    definition="commit p50, first delta line to the acknowledged committed "
                    "line; " + SCALED)
    peak = ledger.add("tsg-pipe", "peak_rss_mb", "MB", value=(pipe_rss + serve_hwm) / 1024.0,
                      definition="tsg-pipe ru_maxrss plus tsg-serve VmHWM")
    return {"setup_s": setup_s, "op_cost_ms": op, "peak_rss_mb": peak}, attempted, failed


# ---------------------------------------------------------------------
# traced run


def read_trace(path):
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            if r["kind"] == "span":
                spans.append(r)
            else:
                counts.setdefault(r["name"], []).append(r["value"])
    return spans, counts


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def med(xs):
    if not xs:
        raise BenchError("no samples for a per-layer metric")
    return bs.nearest_rank(xs, 50)


def mine_layer_metrics(spans, counts, untraced_wall):
    self_t = bs.self_times(spans)
    total = lambda n: sum(durations(spans, n))  # noqa: E731
    one = lambda n: counts[n][0]  # noqa: E731
    stage = {s["name"][len("stage."):]: s for s in spans if s["name"].startswith("stage.")}
    root = [s for s in spans if s["name"] == "mine.replay"][0]
    m = {
        "serial.load_ms": 1e3 * total("serial.load_db"),
        "taxonomy_io.load_ms": 1e3 * total("taxonomy_io.load"),
        "lint.inputs_ms": 1e3 * total("lint.inputs"),
        "relabel.self_ms": 1e3 * (self_t["relabel.db"] + self_t["relabel.label_filter"]),
        "gspan.self_ms": 1e3 * self_t["gspan"],
        "gspan.classes": one("gspan.classes"),
        "occ_index.self_ms": 1e3 * self_t.get("occ_index.build", 0.0),
        "occ_index.set_members": one("occ_index.set_members"),
        "specialize.self_ms": 1e3 * self_t.get("specialize.enumerate", 0.0),
        "specialize.intersections": one("specialize.intersections"),
        "specialize.visited": one("specialize.visited"),
        "specialize.emit_ratio": one("specialize.emitted") / max(1.0, one("specialize.visited")),
        "pattern.sort_ms": 1e3 * total("pattern.sort"),
        "check_patterns.validate_ms": 1e3 * total("check_patterns.validate"),
        "check_patterns.pairs": one("check_patterns.pairs"),
        "pattern_io.save_ms": 1e3 * total("pattern_io.save"),
        "pattern_io.bytes": one("pattern_io.bytes"),
        "gc.major_collections": sum(s["major_collections"] for s in stage.values()),
        "arena.hit_ratio": one("arena.hits") / max(1.0, one("arena.hits") + one("arena.misses")),
        "trace.unattributed_ms": 1e3 * self_t["mine.replay"],
        "trace.overhead_ratio": (root["end"] - root["start"]) / untraced_wall,
    }
    for name in ("load", "mine", "sort", "validate", "save"):
        m["gc.minor_mwords." + name] = stage[name]["minor_words"] / 1e6
    return m


def query_layer_metrics(spans, counts):
    m = {
        "store.load_s": sum(durations(spans, "store.load")),
        "store.candidates_us": 1e6 * med(durations(spans, "store.candidates")),
        "store.prefilter_ratio": statistics.fmean(counts["store.prefilter"]),
        "store.candidate_precision": counts["store.candidate_precision"][0],
        "gen_iso.tests_per_contains": statistics.fmean(counts["gen_iso.tests"]),
        "gen_iso.us_per_test": 1e6 * sum(durations(spans, "gen_iso.tests"))
        / max(1.0, sum(counts["gen_iso.tests"])),
        "engine.contains_cold_us": 1e6 * med(counts.get("engine.contains_cold_s", [])),
        "engine.contains_hit_us": 1e6 * med(durations(spans, "engine.contains_hit")),
        "engine.cache_key_us": 1e6 * med(durations(spans, "engine.cache_key")),
        "engine.by_label_us": 1e6 * med(durations(spans, "engine.by_label")),
        "engine.top_k_us": 1e6 * med(durations(spans, "engine.top_k")),
        # first Engine.contains of each request only: the replay's own
        # repeat calls are hits by construction
        "lru.hit_ratio": len(counts.get("engine.contains_hit_s", []))
        / max(1, len(counts.get("engine.contains_hit_s", []))
              + len(counts.get("engine.contains_cold_s", []))),
        "protocol.parse_us": 1e6 * med(durations(spans, "protocol.parse")),
        "merge.us": 1e6 * med(durations(spans, "merge.merge")),
    }
    # formatting: each serve.answer minus the engine call made for the
    # same request just before it (a cache hit for contains)
    fmt, engine_t = [], None
    for s in spans:
        if s["name"] in ("engine.contains_hit", "engine.by_label", "engine.top_k"):
            engine_t = s["end"] - s["start"]
        elif s["name"] == "serve.answer" and engine_t is not None:
            fmt.append((s["end"] - s["start"]) - engine_t)
            engine_t = None
    m["serve.answer_us"] = 1e6 * med(fmt)
    s0 = durations(spans, "replica.call.shard0")
    s1 = durations(spans, "replica.call.shard1")
    rt = durations(spans, "replica.call.router")
    m["replica.rtt_p50_ms"] = 1e3 * bs.nearest_rank(s0, 50)
    m["replica.rtt_p99_ms"] = 1e3 * bs.nearest_rank(s0, 99)
    m["router.added_ms"] = 1e3 * med([r - max(a, b) for a, b, r in zip(s0, s1, rt)])
    return m


def ingest_layer_metrics(spans, counts):
    mined = sum(counts["incremental.roots_mined"])
    cached = sum(counts["incremental.roots_cached"])
    return {
        "wal.append_us": 1e6 * med(durations(spans, "wal.append")),
        "wal.bytes_per_delta": statistics.fmean(counts["wal.bytes"]),
        "corpus.apply_us": 1e6 * med(durations(spans, "corpus.apply")),
        "incremental.refresh_ms": 1e3 * med(durations(spans, "incremental.refresh")),
        "incremental.roots_mined": statistics.fmean(counts["incremental.roots_mined"]),
        "incremental.reuse_ratio": cached / max(1.0, cached + mined),
        "publish.render_ms": 1e3 * med(durations(spans, "publish.render")),
        "publish.bytes": statistics.fmean(counts["publish.bytes"]),
        "safe_io.write_ms": 1e3 * med(durations(spans, "safe_io.write")),
        "publish.push_ms": 1e3 * med(durations(spans, "publish.push")),
        "epoch.checksum_us": 1e6 * med(durations(spans, "epoch.checksum")),
    }


def run_traced(name, seed, seconds, work, ledger, procs):
    """Replay the workload's inputs in-process, layer by layer. Every
    traced run covers all three layer groups (mining, query, ingest), each
    on this workload's own inputs where it has them."""
    fresh_dir(work)
    attempted = failed = 0
    t0 = time.perf_counter()
    ingest_dir = fresh_dir(os.path.join(work, "ingest"))
    if name in MINE:
        spec = MINE[name]
        tax, dbs = gen_mine(spec, seed, work)
        mine_in = (tax, dbs[0], spec["support"], "0")
        tool("gen", "ingest", str(seed), str(TRACE_INGEST_COMMITS), ingest_dir)
    elif name == "serve":
        tax, db, _pat, _q = gen_serve(seed, work)
        mine_in = (tax, db, SERVE_SUPPORT, "0")
        tool("gen", "ingest", str(seed), str(TRACE_INGEST_COMMITS), ingest_dir)
    else:
        tool("gen", "ingest", str(seed), str(TRACE_INGEST_COMMITS), ingest_dir)
        mine_in = (os.path.join(ingest_dir, "ingest.tax"), os.path.join(ingest_dir, "base.db"),
                   INGEST_SUPPORT, INGEST_MAX_EDGES)
    setup_s = time.perf_counter() - t0
    tax, db, support, max_edges = mine_in

    # mining layers: the untraced binary, then the traced replay of it
    untraced = os.path.join(work, "untraced.pat")
    wall, code, _, _ = run_timed(mine_args(tax, db, support, untraced, max_edges))
    replayed = os.path.join(work, "replayed.pat")
    mine_trace = os.path.join(work, "mine.trace")
    tool("replay-mine", tax, db, support, max_edges, replayed, mine_trace)
    attempted += 1
    if code != 0 or not same_bytes(untraced, replayed):
        failed += 1
        sys.stderr.write("tsgbench: traced replay output differs from tsg-mine's\n")
    spans, counts = read_trace(mine_trace)
    metrics = mine_layer_metrics(spans, counts, wall)

    # query and cluster layers, over the replayed pattern set
    qpath = os.path.join(work, "queries.tsv")
    if name != "serve":
        tool("queries", tax, db, str(seed), qpath)
    rng = random.Random(seed)
    pools = load_queries(qpath)
    if name == "serve":
        # the untraced run's warm-up and first segment, request for request
        segments = max(1, int(round(seconds / SEGMENT_S)))
        _, warm = draw_load(rng, SERVE_RATE, WARMUP_S, pools)
        _, first = draw_load(rng, SERVE_RATE, seconds / segments, pools)
        reqs = warm + first
    else:
        reqs = make_requests(pools, rng, 600)
    req_path = os.path.join(work, "requests.txt")
    with open(req_path, "w") as fh:
        for r in reqs:
            fh.write(r[2] + "\n")
    cluster = Cluster(procs, work, tax, replayed)
    query_trace = os.path.join(work, "query.trace")
    r = tool("replay-query", tax, replayed, req_path, str(cluster.router_port),
             str(cluster.shard_ports[0]), str(cluster.shard_ports[1]), query_trace, check=False)
    cluster.stop()
    attempted += 1
    if r.returncode != 0:
        failed += 1
        sys.stderr.write("tsgbench: query replay: %s" % r.stderr[-2000:])
    spans, counts = read_trace(query_trace)
    metrics.update(query_layer_metrics(spans, counts))

    # ingest layers: WAL, corpus, incremental re-mine, publish, push
    pipe_serve_err = os.path.join(ingest_dir, "serve.err")
    with open(pipe_serve_err, "w") as fh:
        serve = procs.start(
            [BIN + "/tsg_serve.exe", "--patterns", os.path.join(ingest_dir, "live.pat"),
             "--taxonomy", os.path.join(ingest_dir, "ingest.tax"), "--listen", "0",
             "--domains", "1", "--quiet"], stdout=subprocess.DEVNULL, stderr=fh)
    port = wait_listening(serve, pipe_serve_err, "tsg-serve")
    wait_healthy(port, "tsg-serve")
    ingest_trace = os.path.join(work, "ingest.trace")
    r = tool("replay-ingest", os.path.join(ingest_dir, "ingest.tax"),
             os.path.join(ingest_dir, "base.delta"), os.path.join(ingest_dir, "churn.delta"),
             os.path.join(ingest_dir, "live.pat"), str(port), os.path.join(ingest_dir, "r.wal"),
             ingest_trace, check=False)
    procs.stop(serve)
    attempted += 1
    if r.returncode != 0:
        raise BenchError("ingest replay failed: %s" % r.stderr[-2000:])
    spans, counts = read_trace(ingest_trace)
    metrics.update(ingest_layer_metrics(spans, counts))

    units = {m: u for m, u, _, _ in LAYERS}
    for metric, unit, moves, on in LAYERS:
        ledger.add(metric.split(".")[0], metric, unit, value=metrics[metric], moves=moves, on=on)
    ledger.add("setup", "trace_setup_s", "s", value=setup_s)
    ledger.add("tsg-mine", "untraced_wall_s", "s", value=wall)
    return {m: metrics[m] for m in units}, attempted, failed


# ---------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # a terminated run still stops and reaps every process it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    procs = PROCS
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    try:
        build()
        ledger = Ledger(a.workload, a.seed, a.trace)
        if a.trace:
            metrics, attempted, failed = run_traced(a.workload, a.seed, a.seconds, work, ledger, procs)
            units = {m: u for m, u, _, _ in LAYERS}
        else:
            if a.workload in MINE:
                result = run_mine(a.workload, a.seed, a.seconds, work, ledger)
            elif a.workload == "serve":
                result = run_serve(a.seed, a.seconds, work, ledger, procs)
            else:
                result = run_ingest(a.seed, a.seconds, work, ledger, procs)
            metrics, attempted, failed = result
            units = {"setup_s": "s", "op_cost_ms": "ms", "peak_rss_mb": "MB"}
        ledger.add("run", "error_rate", "ratio", value=bs.error_rate(attempted, failed),
                   attempted=attempted, failed=failed)
        ledger.emit()
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        sys.stderr.write("tsgbench: %s\n" % e)
        return 2
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
