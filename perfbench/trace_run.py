"""Traced run (--trace 1): per-layer metrics for one workload.

The end-to-end runs measure with tracing off. This run replays the
workload's library calls in-process with pbtrace, twice: spans off, then
spans on. The difference in replay wall time is the tracing overhead; the
(count) metrics of the two passes must repeat exactly, and both passes'
answer digests must equal the reference join's and the untraced binary's.
A third pbtrace pass is the planner-regret probe. For serve-paged it also
times each HTTP request against a real anykd (Python spans), snapshots
/statz around an open-loop load, and attributes the hit-open latency to the
replayed engine calls.

Every per-layer metric is printed for every workload; a layer the workload
does not exercise reports 0 (see README.md for the metric -> workload map).
"""

import json
import os
import statistics
import subprocess
import time

import run as bench

PROBE_CAP_S = 6.0
SERVE_TRACE_SESSIONS = 20       # replayed sessions per hot statement

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("storage.csv_load_s", "s"),
    ("storage.shard_partition_s", "s"),
    ("query.normalize_us", "us"),
    ("query.cycle_decompose_s", "s"),
    ("query.bag_rows", "count"),
    ("dp.stage_graph_build_s", "s"),
    ("dp.states", "count"),
    ("dp.connectors", "count"),
    ("plan.regret_ttk", "ratio"),
    ("plan.regret_ttl", "ratio"),
    ("plan.regret_open", "ratio"),
    ("anyk.prepare_s", "s"),
    ("anyk.session_open_ms", "ms"),
    ("anyk.session_open_bytes", "count"),
    ("anyk.first_page_ms", "ms"),
    ("anyk.drain_ns_per_answer", "ns"),
    ("anyk.enum_allocs", "count"),
    ("anyk.pops_per_answer", "count"),
    ("anyk.pushes_per_answer", "count"),
    ("anyk.conns_initialized", "count"),
    ("server.healthz_us", "us"),
    ("server.open_self_ms", "ms"),
    ("server.next_self_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.evictions", "count"),
    ("server.sessions_peak", "count"),
    ("server.prepare_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.overhead_us", "us"),
    ("trace.overhead_s", "s"),
    ("self.storage_s", "s"),
    ("self.query_s", "s"),
    ("self.dp_s", "s"),
    ("self.anyk_s", "s"),
    ("self.server_s", "s"),
]

# The (count) metrics: deterministic for a seed, compared across passes.
COUNT_KEYS = ["query.bag_rows", "dp.states", "dp.connectors",
              "anyk.session_opens", "anyk.session_open_bytes",
              "anyk.enum_allocs", "anyk.answers", "anyk.pops", "anyk.pushes",
              "anyk.conns_initialized"]


def pbtrace(args, out, spans=None, probe=False, reps=1):
    cmd = [bench.PBTRACE] + args + ["--out", out]
    if probe:
        cmd += ["--probe-cap", str(PROBE_CAP_S), "--probe-reps", str(reps)]
    else:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"pbtrace failed: {proc.stderr.strip()}")
    with open(out) as f:
        return json.load(f)


def self_times(spans):
    """(name, self seconds) per span: its duration minus its children's."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], (s[2] - s[1] - child[i]) / 1e9)
            for i, s in enumerate(spans)]


def by_name(spans, name):
    return [(s[2] - s[1]) / 1e9 for s in spans if s[0] == name]


def p50(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def layer_self(selfs):
    out = {}
    for name, self_s in selfs:
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def regret(statement):
    """auto / best explicit algorithm; capped probes count as the cap."""
    probes = [p for p in statement["probes"] if not p["skipped"]]
    auto = next(p for p in probes if p["algorithm"] == "auto")
    explicit = [p for p in probes if p["algorithm"] != "auto"]
    best = min(p["seconds"] for p in explicit)
    return auto["seconds"] / best if best > 0 else 0.0


def describe_probes(statement):
    parts = []
    for p in statement["probes"]:
        if p["skipped"]:
            parts.append(f"{p['algorithm']}=skipped(output does not fit)")
        elif p["capped"]:
            parts.append(f"{p['algorithm']}=>{PROBE_CAP_S:g}s")
        else:
            parts.append(f"{p['algorithm']}={p['seconds'] * 1e3:.3f}ms")
    return " ".join(parts)


def engine_metrics(m, on, spans):
    """Per-layer metrics from the spans-on pass of pbtrace."""
    c = on["counts"]
    m["storage.csv_load_s"] = sum(by_name(spans, "storage.csv_load"))
    m["storage.shard_partition_s"] = sum(
        by_name(spans, "storage.shard_partition"))
    m["query.normalize_us"] = p50(by_name(spans, "query.normalize")) * 1e6
    m["query.cycle_decompose_s"] = sum(by_name(spans, "query.cycle_decompose"))
    m["query.bag_rows"] = c["query.bag_rows"]
    m["dp.stage_graph_build_s"] = sum(by_name(spans, "dp.stage_graph_build"))
    m["dp.states"] = c["dp.states"]
    m["dp.connectors"] = c["dp.connectors"]
    m["anyk.prepare_s"] = sum(by_name(spans, "anyk.prepare"))
    m["anyk.session_open_ms"] = p50(by_name(spans, "anyk.session_open")) * 1e3
    m["anyk.session_open_bytes"] = (c["anyk.session_open_bytes"]
                                    / max(1, c["anyk.session_opens"]))
    m["anyk.first_page_ms"] = p50(by_name(spans, "anyk.first_page")) * 1e3
    pages = by_name(spans, "anyk.first_page") + by_name(spans,
                                                        "anyk.next_page")
    # The pages of every replayed session over the answers they pulled.
    pulled = sum(s["pulled"] for s in on["statements"])
    m["anyk.drain_ns_per_answer"] = sum(pages) / max(1, pulled) * 1e9
    m["anyk.enum_allocs"] = c["anyk.enum_allocs"]
    m["anyk.pops_per_answer"] = c["anyk.pops"] / max(1, c["anyk.answers"])
    m["anyk.pushes_per_answer"] = c["anyk.pushes"] / max(1, c["anyk.answers"])
    m["anyk.conns_initialized"] = c["anyk.conns_initialized"]


def replay_passes(args, work, failures, report):
    """Spans off, spans on; returns the spans-on result and its spans."""
    off = pbtrace(args, os.path.join(work, "trace0.json"), spans=0)
    on = pbtrace(args, os.path.join(work, "trace1.json"), spans=1)
    for key in COUNT_KEYS:
        if off["counts"][key] != on["counts"][key]:
            failures.append(f"count {key} differs between traced passes: "
                            f"{off['counts'][key]} vs {on['counts'][key]}")
    for a, b in zip(off["statements"], on["statements"]):
        if a["digest"] != b["digest"] or a["answers"] != b["answers"]:
            failures.append(f"statement {a['index']}: traced and untraced "
                            "replay answers differ")
    spans = on["spans"]
    report.append(("trace.spans", "count", "total", len(spans), 1))
    report.append(("trace.replay_off_s", "s", "wall", off["wall_s"], 1))
    report.append(("trace.replay_on_s", "s", "wall", on["wall_s"], 1))
    return off, on, spans


def check_digests(on, refs, specs, failures):
    for st, spec in zip(on["statements"], specs):
        ref = refs.get(spec)
        if ref is None:
            failures.append(f"no reference for {spec}")
        elif (st["digest"] != ref["digest"]
              or st["answers"] != ref["prefix"]):
            failures.append(f"statement {st['index']}: replay answers "
                            f"({st['answers']}, {st['digest']}) differ from "
                            f"the reference ({ref['prefix']}, "
                            f"{ref['digest']})")


def hot_statements():
    """(sql, pbtool spec) of serve-paged's hot statements, in order."""
    return [(sql, bench.session_spec(shape, limit))
            for sql, shape, limit in bench.HOT_STATEMENTS]


def workload_relations(workload, seed, work):
    if workload == "serve-paged":
        return (bench.generate("path", seed, work)
                + bench.generate("cycle", seed, work))
    return bench.generate(bench.CLI_WORKLOADS[workload]["dataset"], seed,
                          work)


def replay_args(workload, rels, answers=bench.SESSION_ANSWERS):
    """pbtrace arguments that replay the workload's library calls. A
    serve-paged session pulls `answers` answers."""
    args = bench.relation_flags(rels)
    if workload == "serve-paged":
        for sql, _ in hot_statements():
            args += ["--query", sql]
        return args + ["--normalize", "--sessions",
                       str(SERVE_TRACE_SESSIONS), "--answers", str(answers)]
    wl = bench.CLI_WORKLOADS[workload]
    # pbtrace takes the CLI's --shards / --threads flags as they are.
    args += ["--query", wl["sql"]] + wl["flags"]
    if wl["k"] is not None:
        args += ["--k", str(wl["k"])]
    return args + ["--sessions", "5" if wl["k"] else "1"]


def self_test(seed, work):
    """Two traced replays per workload: every (count) metric and answer
    digest must repeat exactly."""
    failures = []
    for workload in bench.WORKLOADS:
        rels = workload_relations(workload, seed, work)
        before = len(failures)
        replay_passes(replay_args(workload, rels), work, failures, [])
        print(f"{'PASS' if len(failures) == before else 'FAIL'} "
              f"counts repeat across traced runs: {workload}", flush=True)
    return failures


def run_cli_trace(name, seed, work):
    wl = bench.CLI_WORKLOADS[name]
    rels = workload_relations(name, seed, work)
    args = replay_args(name, rels)

    failures, report, m = [], [], {n: 0.0 for n, _ in PER_LAYER}
    off, on, spans = replay_passes(args, work, failures, report)
    engine_metrics(m, on, spans)

    # The untraced binary once: its answers must carry the same digest, and
    # its TTL minus the replayed engine calls is the CLI's own time.
    out_path = os.path.join(work, "cli.txt")
    with open(out_path, "wb") as out:
        rc, _ = bench.run_timed(bench.cli_command(wl, rels), out)
    verdicts, refs = bench.check_answers(work, [(wl["spec"], [out_path])])
    ok, err, cli_digest = verdicts.get(out_path, (False, "not checked", ""))
    if rc != 0 or not ok:
        failures.append(f"untraced CLI run: exit {rc} {err}")
    check_digests(on, refs, [wl["spec"]], failures)
    if on["statements"][0]["digest"] != cli_digest:
        failures.append("replay digest differs from the untraced CLI run")
    # The CLI's own time: its TTL minus its preprocessing (prepare and
    # session open, as the CLI reports it) minus the replayed drain of the
    # same answers; what remains is batching and answer output.
    rep = bench.parse_cli_report(out_path) if rc == 0 else {}
    drain_s = sum((s[2] - s[1]) / 1e9 for s in spans
                  if s[0] in ("anyk.first_page", "anyk.next_page")
                  and s[4] == 1)
    m["cli.self_s"] = (rep.get("ttl", 0.0) - rep.get("preprocessing", 0.0)
                       - drain_s)
    m["cli.output_bytes"] = rep.get("output_bytes", 0)

    probe = pbtrace(args, os.path.join(work, "probe.json"), probe=True,
                    reps=3 if wl["k"] else 1)
    st = probe["statements"][0]
    key = "plan.regret_ttk" if wl["k"] else "plan.regret_ttl"
    m[key] = regret(st)
    report.append(("plan.probe", "", st["algorithm"], describe_probes(st), 1))
    finish(m, on, off, spans, report)
    return 4, failures, m, report


def finish(m, on, off, spans, report):
    layers = layer_self(self_times(spans))
    for layer in ("storage", "query", "dp", "anyk"):
        m[f"self.{layer}_s"] = layers.get(layer, 0.0)
    m["trace.overhead_s"] = on["wall_s"] - off["wall_s"]
    report.append(("self.bench_s", "s", "total", layers.get("run", 0.0), 1))


# ---------------------------------------------------------------------------
# serve-paged
# ---------------------------------------------------------------------------

def http_spans(port, plan_statements, sessions):
    """Sequential traced sessions on one connection; each request is a
    span (name, start, end, parent, session) timed in this process."""
    spans = []
    client = bench.Client(port)
    t0 = time.perf_counter_ns()
    sid = 0
    failures = []
    try:
        for sql, _ in plan_statements:
            for _ in range(sessions):
                sid += 1
                root = len(spans)
                spans.append(["server.session", time.perf_counter_ns() - t0,
                              0, -1, sid])

                def timed(name, path, params=None):
                    start = time.perf_counter_ns() - t0
                    status, body = client.get(path, params)
                    spans.append([name, start, time.perf_counter_ns() - t0,
                                  root, sid])
                    if status != 200:
                        failures.append(f"{path} status {status}")
                    return body

                timed("server.healthz", "/healthz")
                body = timed("server.open", "/v1/query",
                             {"sql": sql, "k": bench.PAGE_K})
                _, results, cursor, done = bench.parse_page(body)
                got = len(results)
                while cursor and not done and got < bench.SESSION_ANSWERS:
                    timed("server.healthz", "/healthz")
                    body = timed("server.next", "/v1/next",
                                 {"cursor": cursor, "k": bench.PAGE_K})
                    _, results, cursor, done = bench.parse_page(body)
                    got += len(results)
                if cursor and not done:
                    timed("server.close", "/v1/close", {"cursor": cursor})
                spans[root][2] = time.perf_counter_ns() - t0
    finally:
        client.close()
    return spans, failures


def run_serve_trace(seed, seconds, work):
    rels = workload_relations("serve-paged", seed, work)
    failures, report, m = [], [], {n: 0.0 for n, _ in PER_LAYER}
    hot = hot_statements()

    d = bench.Daemon(rels, work)
    try:
        bench.warm(d.port)
        before = bench.statz(d.port)
        # The end-to-end run's load, for the /statz deltas.
        plan = bench.session_plan(seed, int(seconds * bench.SESSION_RATE))
        records, cpu = bench.open_loop(d.port, plan, bench.SESSION_RATE)
        after = bench.statz(d.port)
        hspans, hfail = http_spans(d.port, hot, SERVE_TRACE_SESSIONS)
        failures += hfail
    finally:
        d.close()

    bad = [s for s in records if not s["ok"]]
    failures += [f"load session: {s['error']}" for s in bad]
    hits = [s for s in records if s["ok"] and s["cache"] == "hit"]
    requests = sum(s["requests"] for s in records)
    m["loadgen.late_ms_p99"] = bench.percentile(
        [s["late"] * 1e3 for s in records], 99)
    m["loadgen.overhead_us"] = cpu / max(1, requests) * 1e6
    dc = {k: after["cache"][k] - before["cache"][k]
          for k in ("hits", "misses", "coalesced", "evictions")}
    lookups = dc["hits"] + dc["misses"] + dc["coalesced"]
    m["server.cache_hit_ratio"] = dc["hits"] / max(1, lookups)
    m["server.evictions"] = dc["evictions"]
    m["server.sessions_peak"] = after["sessions"]["peak"]
    prepared = [e["prepare_seconds"] for e in after["planner"]["prepared"]]
    m["server.prepare_s"] = p50(prepared)

    args = replay_args("serve-paged", rels)
    off, on, spans = replay_passes(args, work, failures, report)
    engine_metrics(m, on, spans)
    _, refs = bench.check_answers(work, [(spec, []) for _, spec in hot])
    check_digests(on, refs, [spec for _, spec in hot], failures)

    # Attribution of the hit-open latency, in means so the parts add up:
    # the replayed engine calls of an open, HTTP framing (a /healthz round
    # trip), the server's own time (a sequential open over HTTP minus those
    # two), and the rest, which is queueing under the open-loop load.
    healthz_ms = mean(by_name(hspans, "server.healthz")) * 1e3
    open_http_ms = mean(by_name(hspans, "server.open")) * 1e3
    next_http_ms = mean(by_name(hspans, "server.next")) * 1e3
    parts = [(name, mean(by_name(spans, name)) * 1e3)
             for name in ("query.normalize", "anyk.session_open",
                          "anyk.first_page")]
    engine_open_ms = sum(v for _, v in parts)
    load_open_ms = mean([(s["open_done"] - s["due"]) * 1e3 for s in hits])
    m["server.healthz_us"] = p50(by_name(hspans, "server.healthz")) * 1e6
    m["server.open_self_ms"] = open_http_ms - engine_open_ms - healthz_ms
    m["server.next_self_ms"] = (next_http_ms - healthz_ms
                                - mean(by_name(spans, "anyk.next_page")) * 1e3)
    report.append(("attribution: hit open under load", "ms", "mean",
                   load_open_ms, len(hits)))
    report += [(f"  {name}", "ms", "mean", v, len(by_name(spans, name)))
               for name, v in parts]
    report += [
        ("  HTTP framing (/healthz)", "ms", "mean", healthz_ms,
         len(by_name(hspans, "server.healthz"))),
        ("  server.open_self", "ms", "mean", m["server.open_self_ms"],
         len(by_name(hspans, "server.open"))),
        ("  unattributed (queueing)", "ms", "rest",
         load_open_ms - open_http_ms, 1),
    ]
    m["self.server_s"] = layer_self(self_times(hspans)).get("server", 0.0)

    # plan.regret_open: session open plus the first page, as a hit open.
    probe = pbtrace(replay_args("serve-paged", rels, answers=bench.PAGE_K),
                    os.path.join(work, "probe.json"), probe=True, reps=3)
    regrets = []
    for st in probe["statements"]:
        regrets.append(regret(st))
        report.append((f"plan.probe[{st['index']}]", "", st["algorithm"],
                       describe_probes(st), 1))
    m["plan.regret_open"] = max(regrets)
    finish(m, on, off, spans, report)
    attempted = len(records) + len(hot) * SERVE_TRACE_SESSIONS + 3
    return attempted, failures, m, report


def run(workload, seed, seconds, work):
    if workload == "serve-paged":
        attempted, failures, m, report = run_serve_trace(seed, seconds, work)
    else:
        attempted, failures, m, report = run_cli_trace(workload, seed, work)
    metrics = {name: (float(m[name]), unit) for name, unit in PER_LAYER}
    report = [(n, u, "", v, 1) for n, u in PER_LAYER
              for v in [m[n]]] + report
    return attempted, failures, metrics, report
