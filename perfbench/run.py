#!/usr/bin/env python3
"""End-to-end benchmark of the `anyk` CLI and the `anykd` daemon.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload topk-path4 --seed 1 --seconds 20 --trace 0

It builds the engine and the benchmark's tools into .bench_build, generates
the workload's CSV inputs from --seed into .bench_work, drives the real
binaries for --seconds, checks every answer against the benchmark's own
reference join (pbtool), prints a readable report and, as the last line of
stdout, one JSON object with `correct`, `attempted`, `failed` and the
end-to-end `metrics`. With --trace 1 it instead runs the traced in-process
replay (pbtrace) and reports the per-layer metrics. perfbench/README.md
describes the workloads, metrics and layers.
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
import urllib.parse

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

ANYK = os.path.join(BUILD_DIR, "engine", "anyk")
ANYKD = os.path.join(BUILD_DIR, "engine", "anykd")
PBTOOL = os.path.join(BUILD_DIR, "pbtool")
PBTRACE = os.path.join(BUILD_DIR, "pbtrace")

# Inputs: binary relations "a,b,w" with a, b uniform over the domain and
# integer weights in [0, 10000], so every weight sum is exact.
DATASETS = {
    # 4-path over 4 x 500k rows, fanout 10: about 5e8 answers.
    "path": {"prefix": "R", "rels": 4, "rows": 500_000, "domain": 50_000},
    # 4-cycle over 4 x 20k rows, values in [0, 600): about 1.24M answers.
    "cycle": {"prefix": "C", "rels": 4, "rows": 20_000, "domain": 600},
}

PATH4 = ("SELECT * FROM R1, R2, R3, R4 WHERE R1.A2 = R2.A1 AND "
         "R2.A2 = R3.A1 AND R3.A2 = R4.A1 ORDER BY WEIGHT ASC")
PATH3_DESC = ("SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND "
              "R2.A2 = R3.A1 ORDER BY WEIGHT DESC")
CYCLE4 = ("SELECT * FROM C1, C2, C3, C4 WHERE C1.A2 = C2.A1 AND "
          "C2.A2 = C3.A1 AND C3.A2 = C4.A1 AND C4.A2 = C1.A1 "
          "ORDER BY WEIGHT ASC")

# CLI workloads: one operation is one `anyk` process.
CLI_WORKLOADS = {
    "topk-path4": {
        "dataset": "path", "sql": PATH4, "k": 100, "flags": [],
        "spec": "R,path,4,asc,100",
    },
    "drain-cycle4": {
        "dataset": "cycle", "sql": CYCLE4, "k": None, "flags": [],
        "spec": "C,cycle,4,asc,0",
    },
    "topk-path4-sharded": {
        "dataset": "path", "sql": PATH4, "k": 100,
        "flags": ["--shards", "4", "--threads", "4"],
        "spec": "R,path,4,asc,100",
    },
}

# serve-paged: one operation is one session (open, pages, close).
HOT_STATEMENTS = [
    # (sql, shape spec prefix without N, answers in the whole stream)
    (PATH4, "R,path,4,asc", None),
    (PATH4 + " LIMIT 1000", "R,path,4,asc", 1000),
    (PATH3_DESC, "R,path,3,desc", None),
    (CYCLE4 + " LIMIT 100", "C,cycle,4,asc", 100),
]
PAGE_K = 100                # answers per page (pbtrace's kPage)
SESSION_ANSWERS = 500
FRESH_EVERY = 50            # one session in 50 opens a never-seen statement
# Nominal open-loop arrival rate. At 100 sessions/s the 4 connections
# queued in bursts in some runs on a 4-core machine (hit-open p90 up to 7x
# its p50), so latency is read at 50/s, below that knee.
SESSION_RATE = 50.0
# anykd's --workers, and the generator's keep-alive connections: one per
# worker, because ServeConnection pins a worker to a connection for its
# lifetime and further connections would only queue.
WORKERS = 4
SERVE_SETUPS = 3            # daemon launches per run (setup_s median)
SLO_MS = 50.0               # hit-open and next-page tail latency limit
BACKLOG_LIMIT_MS = 5.0      # growth of the median queueing wait over a run
LATE_LIMIT_MS = 20.0        # generator p99 lateness above this fails the run

MIN_CLI_OPS = 3
CLI_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 10


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(xs)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def tail_percentile(n):
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (99, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return 50


# ---------------------------------------------------------------------------
# Build and inputs
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "cli"))):
        sys.exit("run.py: run from the root of an anyk source checkout "
                 "(no CMakeLists.txt, src/ and cli/ here)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "bench-build.log")
    with open(log_path, "ab") as out:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                sys.exit(f"run.py: cmake configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
             "anyk_cli", "anykd", "pbtool", "pbtrace"],
            stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            sys.exit(f"run.py: build failed, see {log_path}")


def generate(dataset, seed, work):
    d = DATASETS[dataset] if isinstance(dataset, str) else dataset
    subprocess.run([PBTOOL, "gen", work, d["prefix"], str(d["rels"]),
                    str(d["rows"]), str(d["domain"]), str(seed)], check=True)
    # Write the inputs back now, not in the background of timed runs.
    os.sync()
    return [f"{d['prefix']}{i}={os.path.join(work, d['prefix'] + str(i))}.csv"
            for i in range(1, d["rels"] + 1)]


def relation_flags(specs):
    flags = []
    for s in specs:
        flags += ["--relation", s]
    return flags


def check_answers(work, groups):
    """groups: list of (spec, [files]). Returns {file: (ok, error, digest)}
    plus {spec: reference summary}."""
    cmd = [PBTOOL, "check", work]
    for spec, files in groups:
        cmd += ["--spec", spec] + files
    if not groups:
        return {}, {}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    verdicts, refs = {}, {}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if "file" in rec:
            verdicts[rec["file"]] = (rec["ok"], rec["error"], rec["digest"])
        else:
            refs[rec["spec"]] = rec
    if proc.returncode not in (0, 3):
        raise RuntimeError(f"pbtool check failed: {proc.stderr.strip()}")
    return verdicts, refs


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def parse_cli_report(path):
    """TIMING/MEMORY lines sit at the end of the text report."""
    with open(path, "rb") as f:
        f.seek(0, os.SEEK_END)
        size = f.tell()
        f.seek(max(0, size - 16384))
        tail = f.read().decode("utf-8", "replace")
    rep = {"output_bytes": size}
    for line in tail.splitlines():
        parts = line.split(",")
        if parts[0] == "TIMING" and len(parts) == 4:
            if parts[1] == "ttk":
                rep[f"ttk_{parts[2]}"] = float(parts[3])
            elif parts[1] in ("ttf", "ttl", "preprocessing"):
                rep[parts[1]] = float(parts[3])
                if parts[1] == "ttl":
                    rep["produced"] = int(parts[2])
        elif parts[0] == "MEMORY" and parts[1] == "peak_rss_kb":
            rep["peak_rss_kb"] = int(parts[2])
    return rep


def run_timed(cmd, stdout, timeout=CLI_TIMEOUT_S):
    """Runs cmd to completion: (exit code or "timeout", wall seconds).
    Waits in a blocking waitpid, not a polling loop, so the wall time is
    not rounded up to a poll interval; a timer kills a process that hangs."""
    fired = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.DEVNULL)

    def kill():
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    rc = proc.wait()
    wall = time.perf_counter() - t0
    timer.cancel()
    return ("timeout" if fired.is_set() else rc), wall


def cli_command(wl, rels):
    cmd = [ANYK] + relation_flags(rels) + ["--query", wl["sql"],
                                           "--algorithm", "auto"]
    if wl["k"] is not None:
        cmd += ["--k", str(wl["k"])]
    return cmd + wl["flags"]


def run_cli(name, seed, seconds, work):
    wl = CLI_WORKLOADS[name]
    rels = generate(wl["dataset"], seed, work)
    cmd = cli_command(wl, rels)
    ops, failures, files = [], [], []
    deadline = time.monotonic() + seconds
    i = 0
    while i < MIN_CLI_OPS or time.monotonic() < deadline:
        out_path = os.path.join(work, f"out{i}.txt")
        with open(out_path, "wb") as out:
            rc, wall = run_timed(cmd, out)
        i += 1
        rep = parse_cli_report(out_path) if rc == 0 else {}
        if rc != 0 or "ttl" not in rep or "peak_rss_kb" not in rep:
            failures.append(f"op {i}: exit {rc}")
            continue
        rep["wall"] = wall
        rep["file"] = out_path
        ops.append(rep)
        files.append(out_path)
    verdicts, _ = check_answers(work, [(wl["spec"], files)])
    good = []
    for rep in ops:
        ok, err, _ = verdicts.get(rep["file"], (False, "not checked", ""))
        if ok:
            good.append(rep)
        else:
            failures.append(f"{os.path.basename(rep['file'])}: {err}")
    attempted = i
    k = wl["k"] or 100
    series = {
        "setup_s": [r["wall"] - r["ttl"] for r in good],
        "ttf_s": [r["ttf"] for r in good],
        "ttk_s": [r[f"ttk_{k}"] for r in good],
        "ttl_s": [r["ttl"] for r in good],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in good],
    }
    units = {"setup_s": "s", "ttf_s": "s", "ttk_s": "s", "ttl_s": "s",
             "peak_rss_mb": "MB"}
    report = [(m, units[m], "p50", median(v), len(v))
              for m, v in series.items() if v]
    if good:
        report.append(("answers_per_op", "count", "p50",
                       median([r["produced"] for r in good]), len(good)))
    metrics = {m: (median(v), units[m]) for m, v in series.items() if v}
    return attempted, failures, metrics, report


# ---------------------------------------------------------------------------
# serve-paged
# ---------------------------------------------------------------------------

class Daemon:
    """One anykd process; stopped (and waited for) by close()."""

    def __init__(self, rels, work):
        self.t0 = time.perf_counter()
        cmd = [ANYKD] + relation_flags(rels) + [
            "--port", "0", "--workers", str(WORKERS)]
        self.stderr = open(os.path.join(work, "anykd.log"), "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        self.port = None
        ready = threading.Event()

        def wait_ready():
            line = self.proc.stdout.readline()
            if line.startswith("anykd listening on "):
                self.port = int(line.split()[-1])
            ready.set()

        threading.Thread(target=wait_ready, daemon=True).start()
        if not ready.wait(60) or self.port is None:
            self.close()
            raise RuntimeError("anykd did not become ready")

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Client:
    """One keep-alive HTTP/1.1 connection to anykd. A minimal client on a
    raw socket, so the generator adds little of its own time to each
    request (http.client costs several times more per request)."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def _fill(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("anykd closed the connection")
        self.buf += chunk

    def get(self, path, params=None):
        if params:
            path += "?" + urllib.parse.urlencode(params)
        self.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
                          .encode())
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body.decode("utf-8", "replace")

    def close(self):
        self.sock.close()


def parse_page(body):
    """(cache outcome, RESULT lines, cursor or None, done flag)."""
    cache, results, cursor, done = None, [], None, False
    for line in body.splitlines():
        if line.startswith("RESULT,"):
            results.append(line)
        elif line.startswith("CURSOR,"):
            cursor = line[7:]
        elif line.startswith("DONE,"):
            done = True
        elif line.startswith("CACHE,"):
            cache = line[6:]
    return cache, results, cursor, done


def run_session(client, sql):
    """Open, page to SESSION_ANSWERS answers (or DONE), close.
    Returns a dict of timestamps (perf_counter) and the answer lines."""
    s = {"ok": True, "error": "", "next_lat": [], "results": [],
         "requests": 1}
    status, body = client.get("/v1/query", {"sql": sql, "k": PAGE_K})
    s["open_done"] = time.perf_counter()
    if status != 200:
        return dict(s, ok=False, error=f"open status {status}")
    cache, results, cursor, done = parse_page(body)
    s["cache"] = cache
    s["results"] += results
    while cursor and not done and len(s["results"]) < SESSION_ANSWERS:
        t = time.perf_counter()
        s["requests"] += 1
        status, body = client.get("/v1/next", {"cursor": cursor, "k": PAGE_K})
        s["next_lat"].append(time.perf_counter() - t)
        if status != 200:
            return dict(s, ok=False, error=f"next status {status}")
        _, results, cursor, done = parse_page(body)
        s["results"] += results
    s["last_page_done"] = time.perf_counter()
    if cursor and not done:
        s["requests"] += 1
        status, _ = client.get("/v1/close", {"cursor": cursor})
        if status != 200:
            return dict(s, ok=False, error=f"close status {status}")
    s["closed"] = time.perf_counter()
    return s


def session_plan(seed, count):
    """Seeded session schedule of `count` hot sessions. Every block of
    len(HOT_STATEMENTS) of them opens each hot statement once, in seeded
    order, so all seeds run the same mix. After every FRESH_EVERY - 1 hot
    sessions one more session, at a seeded position among them, opens a
    statement never seen before: a hot shape (taken in turn) with a fresh
    LIMIT, which misses the cache and, past the cache capacity, evicts."""
    rng = random.Random(seed)
    hot = []
    block = []
    for _ in range(count):
        if not block:
            block = list(range(len(HOT_STATEMENTS)))
            rng.shuffle(block)
        sql, shape, limit = HOT_STATEMENTS[block.pop()]
        hot.append({"sql": sql, "shape": shape, "limit": limit,
                    "fresh": False})
    plan = []
    per = FRESH_EVERY - 1
    for start in range(0, count, per):
        chunk = hot[start:start + per]
        if len(chunk) == per:
            n = len(plan) // FRESH_EVERY
            base, shape, _ = HOT_STATEMENTS[n % len(HOT_STATEMENTS)]
            limit = 2000 + n
            chunk.insert(rng.randrange(per + 1), {
                "sql": f"{base.split(' LIMIT ')[0]} LIMIT {limit}",
                "shape": shape, "limit": limit, "fresh": True})
        plan += chunk
    for p in plan:
        p["spec"] = session_spec(p["shape"], p["limit"])
    return plan


def session_spec(shape, limit):
    """pbtool spec of the answers one session reads: the statement's first
    SESSION_ANSWERS, or all of them under a smaller LIMIT."""
    want = SESSION_ANSWERS if limit is None else min(SESSION_ANSWERS, limit)
    return f"{shape},{want}"


def warm(port):
    """Prepare the hot statements (cache misses) before the timed load."""
    client = Client(port)
    try:
        for sql, _, _ in HOT_STATEMENTS:
            s = run_session(client, sql)
            if not s["ok"]:
                raise RuntimeError(f"warm-up failed: {s['error']}")
    finally:
        client.close()


def statz(port):
    client = Client(port)
    try:
        status, body = client.get("/statz")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/statz status {status}")
    return json.loads(body)


def open_loop(port, plan, rate):
    """Open-loop arrivals: session i is due at start + i / rate, whatever
    the state of earlier sessions. WORKERS threads each own one keep-alive
    connection and take the next due session when free; every latency is
    timed from the session's due time, so queueing behind a busy connection
    counts."""
    clients = [Client(port) for _ in range(WORKERS)]
    lock = threading.Lock()
    next_idx = [0]
    records = [None] * len(plan)
    start = time.perf_counter() + 0.05
    cpu0 = time.process_time()

    def worker(c):
        client = clients[c]
        while True:
            with lock:
                i = next_idx[0]
                next_idx[0] += 1
            if i >= len(plan):
                return
            due = start + i / rate
            free_at = time.perf_counter()
            delay = due - free_at
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                s = run_session(client, plan[i]["sql"])
            except Exception as e:  # a timeout or broken response: failed
                s = {"ok": False, "error": f"{type(e).__name__}: {e}",
                     "next_lat": [], "results": [], "requests": 1}
                client.close()
                client = clients[c] = Client(port)
            s["due"] = due
            s["sent"] = sent
            # Generator lateness: time from when the session could have been
            # sent (due, and a connection free) to when it was.
            s["late"] = sent - max(due, free_at)
            records[i] = s

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    cpu = time.process_time() - cpu0
    for c in clients:
        c.close()
    return records, cpu


def run_serve(seed, seconds, work):
    rels = generate("path", seed, work) + generate("cycle", seed, work)
    setups = []
    attempted = 0
    for rep in range(SERVE_SETUPS):
        d = Daemon(rels, work)
        try:
            warm(d.port)
            setups.append(time.perf_counter() - d.t0)
            attempted += len(HOT_STATEMENTS)
            if rep + 1 < SERVE_SETUPS:
                continue
            before = statz(d.port)
            plan = session_plan(seed, int(seconds * SESSION_RATE))
            records, cpu = open_loop(d.port, plan, SESSION_RATE)
            after = statz(d.port)
            peak_mb = d.vm_hwm_mb()
        finally:
            d.close()
    attempted += len(records)

    # Answer check: identical session outputs are checked once.
    by_digest = {}
    for i, s in enumerate(records):
        if not s["ok"]:
            continue
        text = "\n".join(s["results"]) + "\n"
        key = (plan[i]["spec"], hashlib.sha1(text.encode()).hexdigest())
        if key not in by_digest:
            path = os.path.join(work, f"session{len(by_digest)}.txt")
            with open(path, "w") as f:
                f.write(text)
            by_digest[key] = path
        s["file"] = by_digest[key]
    groups = {}
    for (spec, _), path in by_digest.items():
        groups.setdefault(spec, []).append(path)
    verdicts, _ = check_answers(work, sorted(groups.items()))

    failures, hits, misses = [], [], []
    for i, s in enumerate(records):
        if s["ok"]:
            ok, err, _ = verdicts.get(s["file"], (False, "not checked", ""))
            if not ok:
                s["ok"], s["error"] = False, err
        if not s["ok"]:
            failures.append(f"session {i}: {s['error']}")
            continue
        (hits if s["cache"] == "hit" else misses).append(s)
    if not hits:
        raise RuntimeError("no successful cache-hit session")

    # Backlog: queueing before the open was sent should not grow over the
    # run; compare the second half's median wait with the first half's.
    waits = [max(0.0, s["sent"] - s["due"]) * 1e3 for s in records]
    half = len(waits) // 2
    backlog_growth_ms = (median(waits[half:]) - median(waits[:half])
                         if half else 0.0)
    # A generator that fell behind invalidates the numbers: the run fails.
    late_p99 = percentile([s["late"] * 1e3 for s in records], 99)
    if late_p99 > LATE_LIMIT_MS:
        failures.append(f"load generator fell behind: late p99 "
                        f"{late_p99:.2f} ms > {LATE_LIMIT_MS} ms")

    open_ms = [(s["open_done"] - s["due"]) * 1e3 for s in hits]
    next_ms = [x * 1e3 for s in hits for x in s["next_lat"]]
    miss_ms = [(s["open_done"] - s["due"]) * 1e3 for s in misses]
    q_open = tail_percentile(len(open_ms))
    q_next = tail_percentile(len(next_ms))
    slo_met = (percentile(open_ms, q_open) <= SLO_MS
               and percentile(next_ms, q_next) <= SLO_MS
               and not failures and backlog_growth_ms <= BACKLOG_LIMIT_MS)
    requests = sum(s["requests"] for s in records)
    report = [
        ("setup_s", "s", "p50", median(setups), len(setups)),
        ("open_p50_ms", "ms", "p50", median(open_ms), len(open_ms)),
        (f"open_p{q_open}_ms", "ms", f"p{q_open}",
         percentile(open_ms, q_open), len(open_ms)),
        ("next_p50_ms", "ms", "p50", median(next_ms), len(next_ms)),
        (f"next_p{q_next}_ms", "ms", f"p{q_next}",
         percentile(next_ms, q_next), len(next_ms)),
        ("miss_open_p50_ms", "ms", "p50",
         median(miss_ms) if miss_ms else float("nan"), len(miss_ms)),
        ("peak_rss_mb", "MB", "max", peak_mb, 1),
        ("loadgen.late_ms_p99", "ms", "p99", late_p99, len(records)),
        ("loadgen.overhead_us", "us", "mean", cpu / max(1, requests) * 1e6,
         requests),
        ("backlog_growth_ms", "ms", "p50 diff", backlog_growth_ms,
         len(records)),
        (f"slo_met(open p{q_open},next p{q_next}<={SLO_MS:g}ms)", "bool",
         f"@{SESSION_RATE:g}/s", int(slo_met), len(records)),
        ("cache_hits", "count", "delta",
         after["cache"]["hits"] - before["cache"]["hits"], 1),
        ("cache_misses", "count", "delta",
         after["cache"]["misses"] - before["cache"]["misses"], 1),
    ]
    ttk = [(s["last_page_done"] - s["due"]) for s in hits]
    ttl = [(s["closed"] - s["due"]) for s in hits]
    metrics = {
        "setup_s": (median(setups), "s"),
        "ttf_s": (median(open_ms) / 1e3, "s"),
        "ttk_s": (median(ttk), "s"),
        "ttl_s": (median(ttl), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return attempted, failures, metrics, report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = list(CLI_WORKLOADS) + ["serve-paged"]


def checker_self_test(work):
    """pbtool must accept a real answer stream and reject each corruption
    of it. The stream is a small 4-cycle drained by anyk."""
    small = {"prefix": "T", "rels": 4, "rows": 200, "domain": 20}
    rels = generate(small, 1, work)
    sql = re.sub(r"\bC(\d)", r"T\1", CYCLE4)
    good = os.path.join(work, "good.txt")
    with open(good, "wb") as out:
        rc, _ = run_timed([ANYK] + relation_flags(rels) + ["--query", sql],
                          out)
    if rc != 0:
        return ["anyk failed on the self-test input"]
    with open(good) as f:
        lines = f.read().splitlines()
    res = [i for i, line in enumerate(lines) if line.startswith("RESULT,")]
    fields = [lines[i].split(",") for i in res]
    tie = next(j for j in range(1, len(res)) if fields[j][2] == fields[j - 1][2]
               and fields[j][3:] != fields[j - 1][3:])

    def mutate(name, fn):
        rows = [list(f) for f in fields]
        fn(rows)
        out = list(lines)
        for i, r in zip(res, rows):
            out[i] = ",".join(r) if r is not None else None
        path = os.path.join(work, f"{name}.txt")
        with open(path, "w") as f:
            f.write("\n".join(line for line in out if line is not None))
        return path

    bad = {
        "wrong weight": mutate("w", lambda r: r[4].__setitem__(
            2, str(int(r[4][2]) + 1))),
        "row that is not a join answer": mutate("v", lambda r: r[4].__setitem__(
            3, str(small["domain"] + 7))),
        "duplicated answer": mutate("d", lambda r: r[tie].__setitem__(
            slice(3, None), r[tie - 1][3:])),
        "missing answer": mutate("m", lambda r: r.__setitem__(-1, None)),
    }
    verdicts, _ = check_answers(
        work, [("T,cycle,4,asc,0", [good] + list(bad.values()))])
    failures = []
    ok = verdicts[good][0]
    print(f"{'PASS' if ok else 'FAIL'} checker accepts the real answers",
          flush=True)
    if not ok:
        failures.append("checker rejected correct answers")
    for name, path in bad.items():
        ok, err, _ = verdicts[path]
        print(f"{'FAIL' if ok else 'PASS'} checker rejects a {name}"
              f"{'' if ok else ': ' + err}", flush=True)
        if ok:
            failures.append(f"checker accepted a {name}")
    return failures


def self_test(seed):
    import trace_run  # noqa: E402  (perfbench/trace_run.py)
    build()
    work = os.path.join(WORK_ROOT, f"self-test-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        failures = checker_self_test(work) + trace_run.self_test(seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAILED {f}")
    sys.exit(1 if failures else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the checker and the exact repeat of counts")
    args = ap.parse_args()
    # On SIGTERM unwind normally, so every started daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.self_test:
        self_test(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        # Every workload in turn, each its own process, report and result.
        for w in WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return

    build()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            import trace_run  # noqa: E402  (perfbench/trace_run.py)
            attempted, failures, metrics, report = trace_run.run(
                args.workload, args.seed, args.seconds, work)
        elif args.workload == "serve-paged":
            attempted, failures, metrics, report = run_serve(
                args.seed, args.seconds, work)
        else:
            attempted, failures, metrics, report = run_cli(
                args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit, stat, value, n in report:
        shown = f"{value:>14.6g}" if isinstance(value, (int, float)) else value
        print(f"{name:<32} {shown} {unit:<6} {stat:<8} n={n}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, BENCH_DIR)
    main()
