#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers for the
analysis library, the supervised batch runner and the intro_serve daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # all three, headline names
    python3 perfbench/run.py --ab BUILD_A BUILD_B --workload batch-cold
    python3 -m unittest perfbench/test_run.py          # self-tests

The first run builds perfbench/CMakeLists.txt into .bench_build/.  Each
run drives perfbench_harness (harness.cpp), which measures and writes raw
records; this script turns them into metrics, checks every output, and
prints one JSON object as the last line of standard output.  See
perfbench/README.md for what each metric means and which layer moves it.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(BUILD, "runs")
GOLDEN_FIG5 = os.path.join(ROOT, "bench", "golden", "fig5_deterministic.json")
EXPECTED_FIG67 = os.path.join(HERE, "expected", "fig67_deterministic.json")

WORKLOADS = ("sweep", "batch-cold", "serve-mix")
HARNESS_TIMEOUT_S = 170
CONNECTIONS = 4  # harness.cpp's open-loop connection count
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile
AB_PAIRS = 10  # interleaved pairs per workload in an A/B run

# Fields of a sweep cell that bench/golden/fig5_deterministic.json pins.
GOLDEN_FIELDS = ("analysis", "status", "completed", "tuples", "worklist_pops",
                 "contexts", "reachable_method_contexts", "call_graph_edges")
CELL_KINDS = ("insens", "IntroA", "IntroB", "full")
PASS_B_LEVELS = ("introB", "introA", "introA-tightened")


# --- statistics -------------------------------------------------------------

def nearest_rank(values, q):
    """The q-th percentile by nearest rank, and how many samples lie
    strictly beyond its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(n):
    """The highest whole percentile, at most 99, with TAIL_BEYOND samples
    beyond it among n samples (99 needs n >= 1000); 50 when n is small."""
    for q in range(99, 50, -1):
        if n - math.ceil(q / 100.0 * n) >= TAIL_BEYOND:
            return q
    return 50


# serve-mix reports p75: neither its p99 nor its p90 can be made steady
# here (README.md).
TAIL_CAP = {"serve-mix": 75}


def tail(values, cap=99):
    """(value, percentile, samples beyond) of the reported tail."""
    q = min(cap, tail_percentile(len(values)))
    value, beyond = nearest_rank(values, q)
    return value, q, beyond


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- output checks ----------------------------------------------------------

def expected_sweep_cells():
    """(figure, subject, kind) -> the pinned deterministic fields."""
    expected = {}
    with open(GOLDEN_FIG5) as f:
        for attempt in json.load(f)["bench"]["attempts"]:
            kind = CELL_KINDS[(attempt["index"] - 1) % 4]
            expected[(5, attempt["subject"], kind)] = {
                k: attempt[k] for k in GOLDEN_FIELDS}
    with open(EXPECTED_FIG67) as f:
        for cell in json.load(f)["cells"]:
            expected[(cell["figure"], cell["subject"], cell["kind"])] = {
                k: cell[k] for k in GOLDEN_FIELDS}
    return expected


def sweep_cell_fields(cell):
    final = cell["final"]
    return {"analysis": cell["analysis"], "status": cell["status"],
            "completed": final["completed"], "tuples": final["tuples"],
            "worklist_pops": final["worklist_pops"],
            "contexts": final["contexts"],
            "reachable_method_contexts": final["reachable_method_contexts"],
            "call_graph_edges": final["call_graph_edges"]}


def check_sweep(doc, expected):
    """Failures: every cell whose pinned fields differ from the golden."""
    failures = []
    for p in doc["passes"]:
        for cell in p["cells"]:
            key = (cell["figure"], cell["subject"], cell["kind"])
            want = expected.get(key)
            got = sweep_cell_fields(cell)
            if want != got:
                failures.append("fig%d %s %s: got %s, want %s"
                                % (key + (got, want)))
    return failures


def check_batch(doc):
    """Failures: every job whose outcome class is not the expected one."""
    return ["%s: class %s, want %s" % (j["name"], j["class"], j["expected"])
            for p in doc["passes"] for j in p["jobs"]
            if j["class"] != j["expected"]]


def deterministic_slice(report_line):
    """The raw bytes of the report's top-level "deterministic" value."""
    start = report_line.find('"deterministic":')
    if start < 0:
        return None
    at = start + len('"deterministic":')
    while at < len(report_line) and report_line[at] == " ":
        at += 1
    try:
        _, end = json.JSONDecoder().raw_decode(report_line, at)
    except ValueError:
        return None
    return report_line[at:end]


_WALL_CLOCK = re.compile(r'("(?:seconds|total_seconds|metric_seconds)":)'
                         r'\s*[^,}\]]*')


def scrub_wall_clock(text):
    """Pins the wall-clock values the run report still keeps inside its
    deterministic section, as tests/ServeTests.cpp does.  Delete once those
    fields move into the report's "timing" section."""
    return _WALL_CLOCK.sub(r"\1#", text)


def check_serve(doc):
    """Failures: every submit that was refused, errored, cancelled, did not
    end clean, or whose deterministic section differs from a local run."""
    local = {name: scrub_wall_clock(deterministic_slice(line) or "")
             for name, line in doc["local_reports"].items()}
    failures = []
    for p in doc["passes"]:
        for s in p["submits"]:
            if not s["ok"]:
                failures.append("%s: refused or errored: %s"
                                % (s["name"], s["error"]))
            elif s["state"] != "done":
                failures.append("%s: %s" % (s["name"], s["state"]))
            elif s["class"] != "clean":
                failures.append("%s: class %s" % (s["name"], s["class"]))
            else:
                served = deterministic_slice(s["report"])
                if served is None or scrub_wall_clock(served) != local.get(
                        s["name"]):
                    failures.append("%s: deterministic section differs "
                                    "from a local run" % s["name"])
    return failures


def open_loop_health(submits):
    """Generator lateness and backlog of one open-loop pass.  The backlog
    at a submit's due time counts submits due by then and not yet done.
    It grew when its mean over the last quarter of the schedule exceeds
    the first quarter's by more than the connection count."""
    late = [s["dispatch"] - s["due"] for s in submits]
    dues = sorted(s["due"] for s in submits)
    dones = sorted(s["done"] for s in submits)
    backlog, done_at = [], 0
    for count, due in enumerate(dues, 1):
        while done_at < len(dones) and dones[done_at] <= due:
            done_at += 1
        backlog.append(count - done_at)
    quarter = max(1, len(backlog) // 4)
    grew = (statistics.fmean(backlog[-quarter:])
            - statistics.fmean(backlog[:quarter])) > CONNECTIONS
    return {"late_s": late, "backlog_end": backlog[-1] if backlog else 0,
            "backlog_grew": grew}


# --- metrics ----------------------------------------------------------------

def measured_passes(doc):
    return [p for p in doc["passes"] if not p["traced"]]


def answered(submits):
    """Submits that got a report; the others are counted as failed."""
    return [s for s in submits if s["ok"] and s["final_line"] >= 0]


def op_samples(workload, p):
    """Per-operation wall times (seconds) of one pass."""
    if workload == "sweep":
        return [c["wall_seconds"] for c in p["cells"]]
    if workload == "batch-cold":
        return [sum(j["attempt_seconds"]) for j in p["jobs"]]
    return [s["final_line"] - s["due"] for s in answered(p["submits"])]


def pass_wall(workload, p):
    if workload == "serve-mix":
        return (max(s["final_line"] for s in answered(p["submits"]))
                - min(s["due"] for s in p["submits"]))
    return p["wall_seconds"]


def end_to_end(workload, doc, peak_rss_mb):
    passes = measured_passes(doc)
    samples = [x for p in passes for x in op_samples(workload, p)]
    walls = [pass_wall(workload, p) for p in passes]
    rates = [len(op_samples(workload, p)) / pass_wall(workload, p)
             for p in passes]
    tail_s, q, beyond = tail(samples, TAIL_CAP.get(workload, 99))
    metrics = {
        "setup_s": statistics.median(doc["setup_seconds"]),
        "peak_rss_mb": peak_rss_mb,
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(rates),
        "p50_ms": statistics.median(samples) * 1e3,
        "tail_ms": tail_s * 1e3,
    }
    notes = {"samples": len(samples), "passes": len(passes),
             "tail_percentile": q, "beyond_tail": beyond}
    if workload == "serve-mix":
        # The hit share the assumed traffic mix produced (README.md): the
        # context serve_p50_ms must be read in.
        notes["cache_hit_frac"] = cache_counters(
            [s for p in passes for s in answered(p["submits"])]
        )["cache.hit_frac"]
    return metrics, notes


def self_times(spans):
    """Self seconds per layer: each span's duration minus the part its
    child spans cover.  Children of one span never overlap (one thread)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    by_name = {}
    for s, inner in zip(spans, child):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + (
            s["end"] - s["start"] - inner)
    return by_name


def span_sum(selfs, prefix):
    return sum(v for k, v in selfs.items() if k.startswith(prefix))


def report_outcomes(records):
    """(attempt rows, metric seconds, total seconds) of the records' child
    reports.  A Pass-A cache hit still writes an insensitive row, with the
    stored solver stats and the load time; rows of a job with cache hits
    are marked "cached" so no solver work is counted for them."""
    rows, metric_s, totals = [], 0.0, []
    for record in records:
        if not record["report"]:
            continue
        doc = json.loads(record["report"])
        outcome = doc["deterministic"].get("outcome")
        totals.append(doc["timing"]["total_seconds"])
        if outcome:
            metric_s += outcome["metric_seconds"]
            hit = record["cache"]["hits"] > 0
            rows.extend(dict(row, cached=hit and row["level"] == "insensitive")
                        for row in outcome["attempts"])
    return rows, metric_s, totals


def report_row_solve(row):
    st = row["stats"]
    return {"seconds": row["seconds"],
            "completed": row["status"] == "Completed",
            "tuples": st["var_points_to_tuples"] + st["field_points_to_tuples"],
            "worklist_pops": st["worklist_pops"],
            "nodes": st["var_nodes"] + st["field_nodes"],
            "batch_unions": 0, "element_probes": 0, "dense_sets": 0,
            "approx_bytes": st["approx_bytes"]}


def analysis_layer(solves, dnf_s):
    solve_s = sum(s["seconds"] for s in solves)
    tuples = sum(s["tuples"] for s in solves)
    pops = sum(s["worklist_pops"] for s in solves)
    nodes = sum(s["nodes"] for s in solves)
    return {
        "analysis.solve_s": solve_s,
        "analysis.dnf_s": dnf_s,
        "analysis.ns_per_tuple": solve_s * 1e9 / tuples if tuples else 0.0,
        "analysis.pops": pops,
        "analysis.tuples": tuples,
        "analysis.pops_per_node": pops / nodes if nodes else 0.0,
        "analysis.batch_unions": sum(s["batch_unions"] for s in solves),
        "analysis.element_probes": sum(s["element_probes"] for s in solves),
        "analysis.dense_sets": sum(s["dense_sets"] for s in solves),
        "analysis.approx_mb": max(
            [s["approx_bytes"] for s in solves] or [0]) / 2**20,
    }


def cache_counters(records):
    probes = sum(r["cache"]["probes"] for r in records)
    hits = sum(r["cache"]["hits"] for r in records)
    return {"cache.hit_frac": hits / probes if probes else 0.0,
            "cache.corrupt": sum(r["cache"]["corrupt"] for r in records),
            "cache.store_failures": sum(r["cache"]["store_failures"]
                                        for r in records)}


def per_layer(workload, doc):
    """Every per-layer metric; layers a workload never reaches read 0."""
    untraced = measured_passes(doc)[0]
    traced = [p for p in doc["passes"] if p["traced"]][0]
    selfs = self_times(doc["spans"])
    m = dict.fromkeys(PER_LAYER, 0.0)
    if workload == "sweep":
        solves = [s for c in traced["cells"] for s in c["solves"]]
        intro = [c for c in traced["cells"] if "pass_a_seconds" in c]
        m.update(analysis_layer(solves, sum(
            c["wall_seconds"] for c in traced["cells"]
            if not c["final"]["completed"])))
        m["introspect.pass_a_s"] = sum(c["pass_a_seconds"] for c in intro)
        m["introspect.metrics_s"] = sum(c["metric_seconds"] for c in intro)
        m["introspect.pass_b_s"] = sum(c["pass_b_seconds"] for c in intro)
        m["introspect.pass_a_solves"] = len(intro)
    else:
        records = (traced["jobs"] if workload == "batch-cold"
                   else answered(traced["submits"]))
        rows, metric_s, totals = report_outcomes(records)
        solves = [report_row_solve(r) for r in rows if not r["cached"]]
        m.update(analysis_layer(solves, sum(
            s["seconds"] for s in solves if not s["completed"])))
        # Pass A time includes the cache loads that replaced a solve.
        m["introspect.pass_a_s"] = sum(
            r["seconds"] for r in rows if r["level"] == "insensitive")
        m["introspect.metrics_s"] = metric_s
        m["introspect.pass_b_s"] = sum(
            r["seconds"] for r in rows if r["level"] in PASS_B_LEVELS)
        m["introspect.pass_a_solves"] = sum(
            1 for r in rows if r["level"] == "insensitive" and not r["cached"])
        parse_s = selfs.get("frontend.parseProgram", 0.0)
        m["frontend.parse_s"] = parse_s
        m["frontend.parse_mb_per_s"] = (
            doc["parsed_bytes"] / parse_s / 1e6 if parse_s else 0.0)
        m["ir.validate_s"] = selfs.get("ir.validateProgram", 0.0)
        m["cache.fingerprint_s"] = selfs.get("cache.fingerprintProgram", 0.0)
        m["cache.probe_s"] = selfs.get("cache.probe", 0.0)
        m["cache.store_s"] = selfs.get("cache.store", 0.0)
        m.update(cache_counters(records))
        m["supervise.self_s"] = span_sum(selfs, "supervise.")
        if workload == "batch-cold":
            walls = [j["attempt_seconds"][-1] for j in records if j["report"]]
            jobs = [sum(j["attempt_seconds"]) for j in records]
            attempts = [len(j["attempt_seconds"]) for j in records]
        else:
            # The client sees a job from its submit to its report line.
            walls = [s["final_line"] - s["dispatch"] for s in records]
            jobs = walls
            attempts = [s["attempts"] for s in records]
            health = open_loop_health(records)
            stats = json.loads(traced["server_stats"] or "{}")
            m["serve.queue_p50_ms"] = statistics.median(
                s["first_line"] - s["dispatch"] for s in records) * 1e3
            m["serve.queue_p99_ms"] = nearest_rank(
                [s["first_line"] - s["dispatch"] for s in records], 99)[0] * 1e3
            m["serve.run_p50_ms"] = statistics.median(
                s["final_line"] - s["first_line"] for s in records) * 1e3
            m["serve.stream_p50_ms"] = statistics.median(
                s["done"] - s["final_line"] for s in records) * 1e3
            m["serve.gen_late_p99_ms"] = nearest_rank(
                health["late_s"], 99)[0] * 1e3
            m["serve.backlog_end"] = health["backlog_end"]
            m["serve.errors"] = stats.get("errors", -1)
            m["serve.self_s"] = span_sum(selfs, "serve.")
        m["supervise.job_p50_ms"] = statistics.median(jobs) * 1e3
        m["supervise.overhead_p50_ms"] = statistics.median(
            w - t for w, t in zip(walls, totals)) * 1e3
        m["supervise.attempts_per_job"] = statistics.fmean(attempts)
    m["analysis.self_s"] = span_sum(selfs, "analysis.")
    m["introspect.self_s"] = span_sum(selfs, "introspect.")

    def busy(p):  # the traced work, per workload
        if workload == "serve-mix":
            return sum(op_samples(workload, p))
        return p["wall_seconds"]
    m["trace.overhead_frac"] = busy(traced) / busy(untraced) - 1
    return m


# Filled from BENCHMARK.json by load_metrics().
UNITS = {}  # metric name -> unit
HIGHER_IS_BETTER = set()
PER_LAYER = []  # per-layer metric names, in order


def load_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        for metric in bench[kind]:
            UNITS[metric["name"]] = metric["unit"]
            if metric["better"] == "higher":
                HIGHER_IS_BETTER.add(metric["name"])
            if kind == "per_layer":
                PER_LAYER.append(metric["name"])


# --- running ----------------------------------------------------------------

def build(build_dir):
    """Configures (once) and builds the harness and the daemon; the build
    log goes to <build_dir>/build.log."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.log"), "ab") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                      "perfbench_harness", "intro_serve_tool"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log,
                               cwd=ROOT) != 0:
                raise RuntimeError("build failed: see %s/build.log" % build_dir)


def stop_group(pgid):
    """Kills whatever is left of process group pgid and waits until it is
    gone (at most 10 s)."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_harness(build_dir, workload, seed, seconds, trace):
    """Runs one harness process; returns its document and the peak RSS in
    MB of it and every descendant it reaped (the daemon, job children)."""
    os.makedirs(RUNS, exist_ok=True)
    # Relative to the checkout root (the harness's working directory): the
    # daemon's socket path must stay under the 108-byte sun_path limit.
    work = os.path.relpath(os.path.join(RUNS, "%d-%d" % (
        os.getpid(), time.monotonic_ns() % 10**9)), ROOT)
    cmd = [os.path.join(build_dir, "perfbench_harness"),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--out=" + work + ".json", "--work-dir=" + work,
           "--serve-bin=" + os.path.join(build_dir, "tools", "intro_serve")]
    work_abs = os.path.join(ROOT, work)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        with open(work_abs + ".log", "wb") as log:
            # A process group of its own: the daemon and job children share
            # it, so nothing outlives a harness that is killed.
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=ROOT,
                                    start_new_session=True)
        deadline = time.monotonic() + HARNESS_TIMEOUT_S
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
        finally:
            # On a timeout, an exception or SIGTERM, nothing may outlive us.
            if not pid:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
            stop_group(proc.pid)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            with open(work_abs + ".log", errors="replace") as f:
                raise RuntimeError("harness %s failed (exit %d): %s" % (
                    workload, code, f.read()[-2000:]))
        with open(work_abs + ".json") as f:
            return json.load(f), usage.ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_abs, ignore_errors=True)
        for path in (work_abs + ".json", work_abs + ".log"):
            if os.path.exists(path):
                os.remove(path)


def evaluate(workload, doc, peak_rss_mb, traced):
    """Checks one harness document; returns (result dict, failure list,
    deterministic digest, notes)."""
    if workload == "sweep":
        failures = check_sweep(doc, expected_sweep_cells())
        attempted = sum(len(p["cells"]) for p in doc["passes"])
    elif workload == "batch-cold":
        failures = check_batch(doc)
        attempted = sum(len(p["jobs"]) for p in doc["passes"])
    else:
        failures = check_serve(doc)
        attempted = sum(len(p["submits"]) for p in doc["passes"])
    valid = True
    notes = {}
    if workload == "serve-mix":
        health = open_loop_health(measured_passes(doc)[0]["submits"])
        valid = not health["backlog_grew"]
        notes["backlog_end"] = health["backlog_end"]
        notes["gen_late_p99_ms"] = nearest_rank(health["late_s"], 99)[0] * 1e3
        if not valid:
            failures.append("open loop invalid: the backlog grew")
    metrics, more = end_to_end(workload, doc, peak_rss_mb)
    notes.update(more)
    if traced:
        metrics = per_layer(workload, doc)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": metrics if valid else {}}
    return result, failures, digest(workload, doc), notes


def digest(workload, doc):
    """Counters that must not drift between two builds of the same seed."""
    if workload == "sweep":
        return sorted(
            (c["figure"], c["subject"], c["kind"], c["analysis"], c["status"],
             [[s[k] for k in ("tuples", "worklist_pops", "batch_unions",
                              "element_probes", "dense_sets", "contexts")]
              for s in c["solves"]])
            for p in doc["passes"] for c in p["cells"])
    if workload == "batch-cold":
        return sorted(
            (j["name"], j["class"],
             [(r["level"], r["status"], r["solve"]["tuples"],
               r["solve"]["worklist_pops"]) for r in j["ladder"]])
            for p in doc["passes"] for j in p["jobs"])
    return sorted((name, scrub_wall_clock(deterministic_slice(line) or ""))
                  for name, line in doc["local_reports"].items())


def print_metrics(metrics):
    for name, value in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, UNITS[name]))


def run_once(args, workload):
    doc, rss = run_harness(BUILD, workload, args.seed, args.seconds,
                           args.trace)
    result, failures, _, notes = evaluate(workload, doc, rss, args.trace)
    print("%s (seed %d, %s s, trace %d): %d attempted, %d failed "
          "(failed_frac %.6g)" % (workload, args.seed, args.seconds,
                                  args.trace, result["attempted"],
                                  result["failed"],
                                  result["failed"] / result["attempted"]))
    for failure in failures[:20]:
        print("  FAILED " + failure)
    print_metrics(result["metrics"])
    print("  notes: " + json.dumps(notes, sort_keys=True))
    for name, value in result["metrics"].items():
        result["metrics"][name] = {"value": value, "unit": UNITS[name]}
    return result, notes


# The headline names of the end-to-end metrics, per workload.
HEADLINE_NAMES = (("sweep_s", "sweep", "wall_s"),
               ("batch_jobs_per_s", "batch-cold", "ops_per_s"),
               ("batch_job_p50_ms", "batch-cold", "p50_ms"),
               ("batch_job_p99_ms", "batch-cold", "tail_ms"),
               ("serve_p50_ms", "serve-mix", "p50_ms"),
               ("serve_p75_ms", "serve-mix", "tail_ms"))


def run_all(args):
    results, notes = {}, {}
    for workload in WORKLOADS:
        results[workload], notes[workload] = run_once(args, workload)
    print("all workloads:")
    summary = {}
    for name, workload, metric in HEADLINE_NAMES:
        entry = results[workload]["metrics"].get(metric)
        if entry:
            summary[name] = entry
        if name == "serve_p50_ms":
            summary["serve_cache_hit_frac"] = {
                "value": notes[workload]["cache_hit_frac"], "unit": "ratio"}
    for workload in WORKLOADS:
        r = results[workload]
        for metric in ("setup_s", "peak_rss_mb"):
            if metric in r["metrics"]:
                summary["%s.%s" % (workload, metric)] = r["metrics"][metric]
        summary["%s.failed_frac" % workload] = {
            "value": r["failed"] / r["attempted"], "unit": "ratio"}
    for name, entry in summary.items():
        print("  %-28s %14.6g %s" % (name, entry["value"], entry["unit"]))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": summary}


def run_ab(args):
    """Interleaved A/B of two build directories: each pair runs both sides
    on the same seed, alternating which goes first."""
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sides = {"A": os.path.abspath(args.ab[0]),
             "B": os.path.abspath(args.ab[1])}
    ok = True
    for workload in workloads:
        values = {"A": {}, "B": {}}
        wins = {}
        for pair in range(AB_PAIRS):
            seed = args.seed + pair
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            got = {}
            for side in order:
                doc, rss = run_harness(sides[side], workload, seed,
                                       args.seconds, 0)
                result, failures, dig, _ = evaluate(workload, doc, rss, False)
                if failures:
                    ok = False
                    print("%s side %s seed %d: %d failed: %s" % (
                        workload, side, seed, len(failures), failures[0]))
                got[side] = (result["metrics"], dig)
                for name, value in result["metrics"].items():
                    values[side].setdefault(name, []).append(value)
            if got["A"][1] != got["B"][1]:
                ok = False
                print("%s seed %d: deterministic counters drift between "
                      "A and B" % (workload, seed))
            for name in got["A"][0]:
                a, b = got["A"][0][name], got["B"][0].get(name)
                higher = name in HIGHER_IS_BETTER
                won = b is not None and ((b > a) if higher else (b < a))
                tie = b == a
                wins.setdefault(name, []).append(None if tie else won)
        print("A/B %s (%d pairs; A=%s, B=%s)" % (
            workload, AB_PAIRS, sides["A"], sides["B"]))
        for name in values["A"]:
            row = []
            for side in ("A", "B"):
                q1, q2, q3 = quartiles(values[side].get(name) or [0.0])
                row.append("%s median %.6g [%.6g, %.6g]" % (side, q2, q1, q3))
            # Ties count for neither side.
            share = sum(w is True for w in wins[name]) / len(wins[name])
            print("  %-12s %s | %s | B won %.0f%% of pairs" % (
                name, row[0], row[1], 100 * share))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ab", nargs=2, metavar=("BUILD_A", "BUILD_B"),
                        help="A/B two build directories (see README.md)")
    args = parser.parse_args(argv)
    load_metrics()
    if args.ab:
        return 0 if run_ab(args) else 1
    build(BUILD)
    if args.workload == "all":
        result = run_all(args)
    else:
        result, _ = run_once(args, args.workload)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
