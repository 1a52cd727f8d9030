#!/usr/bin/env python3
"""The repository benchmark: the solver, the store and the daemon, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--gen-seed N]

Run it from the root of a checkout. It builds the release `bbs` binary (and,
with `--trace 1`, the traced binary in `perfbench/traced`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), sets the workload up, drives it
through `bbs` for `--seconds`, checks every output, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
untraced passes run again (for `wall_s`), then the traced binary drives the
same inputs through each layer's public functions and the metrics are the
per-layer ones. `perfbench/notes.json` says what each workload and metric is
for; `perfbench/README.md` says how to read them.
"""

import argparse
import json
import os
import shutil
import selectors
import socket
import struct
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

JOBS = 2
SETUP_REPEATS = 3
MIN_PASSES = 3
TRACED_PASSES = 3
PROCESS_START_PROBES = 20
# One connection: the daemon serves submissions one at a time through a
# single dispatcher, so a second connection only adds threads waking each
# other on a 2-vCPU host, and those wake-ups set most of the run-to-run
# spread.
SERVE_CLIENTS = 1
SERVE_BLOCK = 1000
SERVE_WARMUP = 400
STATS_REQUESTS = 200
SUBMIT_RETRIES = 3

WORKLOADS = {
    "paper_cold": {"kind": "batch", "builtin": "paper-plus", "warm": False},
    "gen_warm": {"kind": "batch", "points": 1000, "gen_seed": 11, "warm": True},
    "serve_warm": {"kind": "serve", "builtin": "smoke"},
}


class BenchError(Exception):
    """A failure that leaves no result to print: the build, a crashed
    process, a missing file."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- building


def build(root, target, traced):
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates", "engine")
    ):
        raise BenchError("run from the root of a repository checkout (no Cargo workspace here)")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [["cargo", "build", "--release", "--offline", "-p", "bbs-engine", "--bin", "bbs"]]
    if traced:
        commands.append(
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join("perfbench", "traced", "Cargo.toml")]
        )
    for command in commands:
        result = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}")
    return os.path.join(target, "release", "bbs"), os.path.join(target, "release", "bbs-traced")


# ---------------------------------------------------------------- processes


def spawn_timed(command, stderr_path):
    """Runs `command` to completion; returns (wall seconds, peak RSS in MB,
    exit code, stderr text). Wall time runs from spawn to reap."""
    with open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path) as stderr:
        return wall, usage.ru_maxrss / 1024.0, process.returncode, stderr.read()


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------- batch workloads


class Batch:
    """`paper_cold` and `gen_warm`: one pass is one `bbs run` process over
    the whole suite, from spawn to report written."""

    def __init__(self, name, spec, bbs, work, root, seed, gen_seed):
        self.name, self.spec, self.bbs, self.work, self.root = name, spec, bbs, work, root
        self.seed, self.gen_seed = seed, gen_seed
        self.suite_file = os.path.join(work, "suite.json")
        self.store = os.path.join(work, "store")
        self.reference = None
        self.points = 0
        self.errors = []

    def run_args(self, store, report, markdown=None):
        if "builtin" in self.spec:
            source = ["--suite", self.spec["builtin"]]
        else:
            source = ["--file", self.suite_file]
        args = [self.bbs, "run", *source, "--jobs", str(JOBS), "--cache-dir", store,
                "--json", report, "--quiet"]
        if markdown:
            args += ["--markdown", markdown]
        return args

    def generate(self):
        if "builtin" in self.spec:
            return
        raw = os.path.join(self.work, "generated.json")
        result = subprocess.run(
            [self.bbs, "gen", "--seed", str(self.gen_seed), "--points", str(self.spec["points"]),
             "--out", raw],
            stdout=subprocess.DEVNULL, stderr=sys.stderr,
        )
        if result.returncode != 0:
            raise BenchError("bbs gen failed")
        with open(raw) as handle:
            text = benchlib.shuffled_suite(handle.read(), self.seed)
        with open(self.suite_file, "w") as handle:
            handle.write(text)

    def cold_pass(self, store, tag):
        """One cold `bbs run` against an empty store; returns the pass."""
        fresh_dir(store)
        return self.one_pass(store, tag)

    def one_pass(self, store, tag):
        report = os.path.join(self.work, f"report-{tag}.json")
        markdown = os.path.join(self.work, f"report-{tag}.md") if self.name == "paper_cold" else None
        wall, rss, code, stderr = spawn_timed(
            self.run_args(store, report, markdown), os.path.join(self.work, "stderr.txt")
        )
        return {"wall": wall, "rss": rss, "code": code, "stderr": stderr,
                "report": report, "markdown": markdown}

    def setup(self):
        """Generates the suite and runs one cold pass: the warm-up for
        `paper_cold`, the store fill for `gen_warm`. Its report is the
        reference every later pass must equal byte for byte."""
        self.generate()
        first = self.cold_pass(self.store, "setup")
        self.check_pass(first, reference=False)
        self.reference = read_bytes(first["report"])
        report = json.loads(self.reference)
        self.points = sum(len(s["points"]) for s in report["scenarios"])

    def check_pass(self, result, reference=True):
        """Fails the run on a report that differs from the reference, a
        markdown report that differs from EXPERIMENTS.md, or a crash.
        Returns the failed points: unexpected errors plus simulator
        violations (infeasibility under `expect_infeasible` is a result)."""
        failures = [line for line in result["stderr"].splitlines() if line.startswith("  ")]
        if result["code"] != 0 and not failures:
            raise BenchError(f"bbs run exited {result['code']}: {result['stderr'].strip()}")
        report = read_bytes(result["report"])
        if reference and report != self.reference:
            self.errors.append(f"{result['report']} differs from the reference report")
        if result["markdown"] and read_bytes(result["markdown"]) != read_bytes(
            os.path.join(self.root, "EXPERIMENTS.md")
        ):
            self.errors.append("the paper-plus markdown report differs from EXPERIMENTS.md")
        violations = 0
        for scenario in json.loads(report)["scenarios"]:
            for point in scenario["points"]:
                if point["measured_period"] is not None and (
                    not point["guarantee_ok"] or point["buffer_violations"]
                ):
                    violations += 1
        if violations:
            self.errors.append(f"{violations} simulator violations")
        return len(failures) + violations

    def measure(self, seconds):
        passes, failed, attempted = [], 0, 0
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            tag = len(passes) % 2
            if self.spec["warm"]:
                result = self.one_pass(self.store, tag)
            else:
                result = self.cold_pass(os.path.join(self.work, "cold-store"), tag)
            failed += self.check_pass(result)
            attempted += self.points
            passes.append(result)
        walls = [p["wall"] for p in passes]
        wall = benchlib.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "rtt_p50_ms": (wall * 1000.0, "ms"),
            "rtt_p99_ms": (benchlib.percentile(walls, 0.99) * 1000.0, "ms"),
            "requests_per_s": (self.points / wall, "1/s"),
            "peak_rss_mb": (benchlib.median([p["rss"] for p in passes]), "MB"),
        }
        return metrics, attempted, failed, wall

    def traced(self, traced_bin, untraced_wall):
        """Traced passes through `bbs-traced batch`: fresh stores for
        `paper_cold`, the filled store for `gen_warm`."""
        runs = []
        for index in range(TRACED_PASSES):
            store = self.store if self.spec["warm"] else fresh_dir(
                os.path.join(self.work, f"traced-store-{index}")
            )
            report = os.path.join(self.work, "traced-report.json")
            spans_path = os.path.join(self.work, f"spans-{index}.jsonl")
            source = (["--builtin", self.spec["builtin"]] if "builtin" in self.spec
                      else ["--suite-file", self.suite_file])
            counters = run_traced(
                [traced_bin, "batch", *source, "--store", store, "--jobs", str(JOBS),
                 "--report", report, "--spans", spans_path]
            )
            if read_bytes(report) != self.reference:
                self.errors.append("the traced pass's report differs from bbs run's")
            if counters["violations"]:
                self.errors.append(f"{counters['violations']} violations in the replay probe")
            if self.spec["warm"] and counters["fresh_solves"]:
                self.errors.append(f"{counters['fresh_solves']} fresh solves on a warm store")
            runs.append((load_spans(spans_path), counters))
        return [batch_layers(spans, c, untraced_wall) for spans, c in runs], [
            exact_counters(c) for _, c in runs
        ]


# ---------------------------------------------------------------- serve workload


PROGRESS_PREFIXES = (b'{"kind":"point"', b'{"kind":"accepted"')


class Client:
    """One connection speaking the daemon's length-prefixed JSON frames."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self):
        self.reader.close()
        self.sock.close()

    def send(self, payload):
        self.sock.sendall(struct.pack(">I", len(payload)) + payload)

    def read_payload(self):
        header = self.reader.read(4)
        if len(header) < 4:
            raise ConnectionError("the daemon closed the connection")
        (length,) = struct.unpack(">I", header)
        payload = self.reader.read(length)
        if len(payload) < length:
            raise ConnectionError("the daemon closed the connection mid-frame")
        return payload

    def read(self):
        return json.loads(self.read_payload())

    def submit(self, request):
        """One submission up to its final `report` frame, retrying
        structured rejections; returns the report text."""
        for _ in range(SUBMIT_RETRIES + 1):
            self.send(request)
            while True:
                payload = self.read_payload()
                # Progress frames need no parse: skipping it keeps the
                # client's own time out of the measured round trip.
                if payload.startswith(PROGRESS_PREFIXES):
                    continue
                reply = json.loads(payload)
                kind = reply["kind"]
                if kind in ("accepted", "point"):
                    continue
                if kind == "report" and reply.get("message") is None:
                    return reply["report"]
                if kind == "rejected":
                    time.sleep((reply.get("retry_after_ms") or 100) / 1000.0)
                    break
                raise ConnectionError(f"`{kind}` reply: {reply.get('message')}")
        raise ConnectionError("rejected after every retry")


def request(kind, suite_name=None, jobs=None):
    """One request frame payload; the daemon's request type has every
    field, so the unused ones are sent as null."""
    return json.dumps({
        "kind": kind, "suite": None, "suite_name": suite_name, "jobs": jobs,
        "deadline_ms": None, "ticket": None, "key_hash": None, "entry": None,
    }).encode()


class Serve:
    """`serve_warm`: a `bbs serve --jobs 2` daemon primed in set-up, driven
    by a closed loop of `run_builtin smoke` submissions over
    `SERVE_CLIENTS` connections."""

    def __init__(self, spec, bbs, work):
        self.spec, self.bbs, self.work = spec, bbs, work
        self.request = request("run", spec["builtin"], JOBS)
        self.daemon = None
        self.address = None
        self.reference = None
        self.errors = []

    def start_daemon(self):
        store = fresh_dir(os.path.join(self.work, "serve-store"))
        stderr = open(os.path.join(self.work, "serve-stderr.txt"), "w")
        self.daemon = subprocess.Popen(
            [self.bbs, "serve", "--addr", "127.0.0.1:0", "--jobs", str(JOBS), "--cache-dir", store],
            stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
        stderr.close()
        line = self.daemon.stdout.readline()
        prefix = "bbs serve: listening on "
        if not line.startswith(prefix):
            raise BenchError(f"bbs serve did not start: {line.strip()}")
        host, port = line[len(prefix):].strip().rsplit(":", 1)
        self.address = (host, int(port))

    def stop_daemon(self):
        if self.daemon is None:
            return
        try:
            client = Client(self.address)
            client.send(request("shutdown"))
            client.read()
            client.close()
            self.daemon.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()
        self.daemon = None

    def setup(self):
        """Start the daemon, prime its cache, make the local reference
        report, and warm the served path up."""
        self.stop_daemon()
        self.start_daemon()
        client = Client(self.address)
        primed = client.submit(self.request)
        local = os.path.join(self.work, "local.json")
        result = subprocess.run(
            [self.bbs, "run", "--suite", self.spec["builtin"], "--jobs", str(JOBS),
             "--json", local, "--quiet"],
            stdout=subprocess.DEVNULL, stderr=sys.stderr,
        )
        if result.returncode != 0:
            raise BenchError("the local reference run failed")
        with open(local) as handle:
            self.reference = handle.read()
        if primed != self.reference:
            self.errors.append("the primed served report differs from the local report")
        for _ in range(SERVE_WARMUP):
            client.submit(self.request)
        client.close()

    def peak_rss_mb(self):
        with open(f"/proc/{self.daemon.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def measure(self, seconds):
        """The closed loop: each connection sends its next submission when
        its previous report arrives. One thread serves every socket, so the
        client's own thread scheduling and interpreter lock stay out of the
        measured round trips."""
        samples, failed, wrong = [], 0, 0
        selector = selectors.DefaultSelector()
        start = time.perf_counter()
        deadline = start + seconds

        def submit(conn):
            conn["rejections"] = 0
            conn["sent"] = time.perf_counter()
            conn["client"].send(self.request)

        def finish(conn):
            selector.unregister(conn["client"].sock)
            conn["client"].close()

        for _ in range(SERVE_CLIENTS):
            conn = {"client": Client(self.address), "buffer": bytearray()}
            selector.register(conn["client"].sock, selectors.EVENT_READ, conn)
            submit(conn)
        while selector.get_map():
            events = selector.select(timeout=30)
            if not events:
                raise BenchError("the daemon stopped replying")
            for key, _ in events:
                conn = key.data
                chunk = conn["client"].sock.recv(1 << 16)
                if not chunk:
                    failed += 1
                    log("the daemon closed a connection mid-submission")
                    finish(conn)
                    continue
                buffer = conn["buffer"]
                buffer += chunk
                while len(buffer) >= 4:
                    (length,) = struct.unpack_from(">I", buffer)
                    if len(buffer) < 4 + length:
                        break
                    payload = bytes(buffer[4:4 + length])
                    del buffer[:4 + length]
                    if payload.startswith(PROGRESS_PREFIXES):
                        continue
                    reply = json.loads(payload)
                    kind = reply["kind"]
                    if kind in ("accepted", "point"):
                        continue
                    if kind == "rejected" and conn["rejections"] < SUBMIT_RETRIES:
                        # Structured back-pressure: the round trip keeps
                        # running through the retry.
                        conn["rejections"] += 1
                        time.sleep((reply.get("retry_after_ms") or 100) / 1000.0)
                        conn["client"].send(self.request)
                        continue
                    done = time.perf_counter()
                    if kind == "report" and reply.get("message") is None:
                        samples.append((conn["sent"], done))
                        wrong += reply["report"] != self.reference
                    else:
                        failed += 1
                        log(f"submission failed: `{kind}` reply: {reply.get('message')}")
                    if done < deadline:
                        submit(conn)
                    else:
                        finish(conn)
                        break
        selector.close()
        if wrong:
            self.errors.append(f"{wrong} served reports differ from the local report")
        if len(samples) < 2 * SERVE_BLOCK:
            raise BenchError(f"only {len(samples)} submissions completed")
        samples.sort(key=lambda sample: sample[1])
        rtts = [(done - sent) * 1000.0 for sent, done in samples]
        finished = [done for _, done in samples]
        marks = [start] + finished[SERVE_BLOCK - 1::SERVE_BLOCK]
        wall = benchlib.median([b - a for a, b in zip(marks, marks[1:])])
        metrics = {
            "wall_s": (wall, "s"),
            "rtt_p50_ms": (benchlib.median(rtts), "ms"),
            "rtt_p99_ms": (benchlib.percentile(rtts, 0.99), "ms"),
            "requests_per_s": (SERVE_BLOCK / wall, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
        }
        return metrics, len(samples) + failed, failed + wrong, wall

    def traced(self, traced_bin, untraced_wall):
        runs = []
        for index in range(TRACED_PASSES):
            store = fresh_dir(os.path.join(self.work, f"traced-store-{index}"))
            spans_path = os.path.join(self.work, f"spans-{index}.jsonl")
            counters = run_traced(
                [traced_bin, "serve", "--store", store, "--jobs", str(JOBS),
                 "--clients", str(SERVE_CLIENTS), "--submissions", str(SERVE_BLOCK),
                 "--stats-requests", str(STATS_REQUESTS), "--spans", spans_path]
            )
            if counters["report_mismatches"]:
                self.errors.append("traced served reports differ from the primed report")
            runs.append((load_spans(spans_path), counters))
        return [serve_layers(spans, c, untraced_wall) for spans, c in runs], [
            exact_counters(c) for _, c in runs
        ]


# ---------------------------------------------------------------- tracing


def run_traced(command):
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if result.returncode != 0:
        raise BenchError(f"traced pass failed: {' '.join(command[:2])}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def load_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def share(numerator, denominator):
    return numerator / denominator if denominator else 0.0


LAYER_MEANS_US = {
    "taskgraph.validate_us": "taskgraph.validate",
    "model.build_us": "model.build",
    "formulation.build_us": "formulation.build",
    "lower.build_us": "lower.build",
    "verify.us": "verify",
    "sim.replay_us": "sim.replay",
    "cache.key_us": "cache.key",
    "store.load_us": "store.load",
    "store.save_us": "store.save",
}

# Grouping spans: they hold layer spans but are not layers themselves.
STRUCTURAL = {"pass", "points", "point", "solve"}


def common_layers(spans, untraced_wall, pass_wall):
    totals = benchlib.layer_totals(spans)
    metrics = {}
    for metric, name in LAYER_MEANS_US.items():
        count, self_ns, _ = totals.get(name, (0, 0, 0))
        metrics[metric] = share(self_ns, count) / 1e3
    for metric, name in (("engine.expand_ms", "engine.expand"),
                         ("validate.stage_ms", "validate.stage"),
                         ("report.render_ms", "report.render")):
        metrics[metric] = totals.get(name, (0, 0, 0))[2] / 1e6
    pass_span = next(s for s in spans if s["name"] == "pass")
    inside = benchlib.descendants(spans, pass_span["id"])
    layer_ns = benchlib.union_length(
        (s["start_ns"], s["end_ns"]) for s in inside if s["name"] not in STRUCTURAL
    )
    ipm_ns = benchlib.union_length(
        (s["start_ns"], s["end_ns"]) for s in spans if s["name"].startswith("ipm.")
    )
    metrics["trace.coverage"] = layer_ns / 1e9 / untraced_wall
    metrics["ipm.wall_share"] = ipm_ns / 1e9 / untraced_wall
    metrics["trace.wall_s"] = pass_wall
    metrics["trace.overhead_s"] = pass_wall - untraced_wall
    return metrics, totals


def batch_layers(spans, counters, untraced_wall):
    metrics, totals = common_layers(spans, untraced_wall, counters["pass_wall_s"])
    _, ipm_self, _ = totals.get("ipm.solve", (0, 0, 0))
    cutting_self = totals.get("ipm.cutting_plane", (0, 0, 0))[1]
    lowered = counters["lowered"]
    points_span = next(s for s in spans if s["name"] == "points")
    point_ns = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "point")
    metrics.update({
        "formulation.vars": share(counters["formulation_vars"], lowered),
        "formulation.rows": share(counters["formulation_rows"], lowered),
        "lower.g_nnz": share(counters["g_nnz"], lowered),
        "lower.kkt_dim": share(counters["kkt_dim"], lowered),
        "ipm.solve_ms": (ipm_self + cutting_self) / 1e6,
        "ipm.iterations": counters["ipm_iterations"],
        "ipm.us_per_iteration": share(ipm_self / 1e3, counters["ipm_iterations"]),
        "ipm.iter_limit_share": share(counters["iter_limit_points"], counters["ipm_solves"]),
        "ipm.iter_limit_points": counters["iter_limit_points"],
        "cache.memo_hit_share": share(
            counters["memo_hits"], counters["memo_hits"] + counters["memo_misses"]
        ),
        "store.disk_hit_share": share(counters["disk_hits"], counters["memo_misses"]),
        "store.entries": counters["store_entries"],
        "store.bytes": counters["store_bytes"],
        "store.bytes_per_entry": share(counters["store_bytes"], counters["store_entries"]),
        "engine.busy_share": share(
            point_ns, JOBS * (points_span["end_ns"] - points_span["start_ns"])
        ),
        "engine.steals": counters["engine_steals"],
        "alloc.per_point": share(counters["point_allocations"], counters["points"]),
    })
    return metrics


def serve_layers(spans, counters, untraced_wall):
    metrics, totals = common_layers(spans, untraced_wall, counters["pass_wall_s"])
    stats = [s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "serve.stats"]
    submissions = counters["submissions"]
    metrics.update({
        "cache.memo_hit_share": share(
            counters["memo_hits"], counters["memo_hits"] + counters["memo_misses"]
        ),
        "alloc.per_point": share(counters["submit_allocations"], counters["points"]),
        "serve.stats_rtt_us": benchlib.median(stats) / 1e3,
        "serve.reply_frames": share(counters["reply_frames"], submissions),
        "serve.reply_bytes": share(counters["reply_bytes"], submissions),
    })
    return metrics


# The exact work counters: they must repeat across runs of one commit.
EXACT = {
    "ipm.iterations": "ipm_iterations",
    "ipm.iter_limit_points": "iter_limit_points",
    "store.entries": "store_entries",
    "store.bytes": "store_bytes",
    "alloc.point_allocations": "point_allocations",
    "alloc.submit_allocations": "submit_allocations",
    "serve.reply_frames": "reply_frames",
}


def exact_counters(counters):
    return {name: counters[key] for name, key in EXACT.items() if key in counters}


def source_tree(root):
    files = []
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files.append((top, read_bytes(path)))
        for directory, subdirs, names in os.walk(path):
            subdirs[:] = sorted(d for d in subdirs if d not in ("target", "__pycache__"))
            for name in names:
                full = os.path.join(directory, name)
                files.append((os.path.relpath(full, root), read_bytes(full)))
    return benchlib.tree_digest(files)


def drift(records_path, key, passes):
    """Counters that differ between this run's traced passes, or from an
    earlier run of the same source tree, workload and seed."""
    drifted = set()
    for other in passes[1:]:
        drifted.update(benchlib.counter_drift(passes[0], other))
    records = {}
    if os.path.isfile(records_path):
        with open(records_path) as handle:
            records = json.load(handle)
    if key in records:
        drifted.update(benchlib.counter_drift(records[key], passes[0]))
    else:
        records[key] = passes[0]
        with open(records_path, "w") as handle:
            json.dump(records, handle, indent=1, sort_keys=True)
    for name in sorted(drifted):
        log(f"counter `{name}` differs between runs of one commit")
    return len(drifted)


def process_start_ms(bbs):
    walls = []
    for _ in range(PROCESS_START_PROBES):
        start = time.perf_counter()
        subprocess.run([bbs, "list"], stdout=subprocess.DEVNULL, check=True)
        walls.append((time.perf_counter() - start) * 1000.0)
    return benchlib.median(walls)


# ---------------------------------------------------------------- main


def load_metric_names(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return {m["name"]: m["unit"] for m in benchmark["end_to_end"]}, {
        m["name"]: m["unit"] for m in benchmark["per_layer"]
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--gen-seed", type=int, default=None,
                        help="override the generator seed of gen_* workloads (held-out checks)")
    args = parser.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    spec = WORKLOADS[args.workload]
    gen_seed = args.gen_seed if args.gen_seed is not None else spec.get("gen_seed")
    end_to_end, per_layer = load_metric_names(root)
    bbs, traced_bin = build(root, target, args.trace == 1)
    work = fresh_dir(os.path.join(target, "perfbench", args.workload))

    if spec["kind"] == "serve":
        workload = Serve(spec, bbs, work)
    else:
        workload = Batch(args.workload, spec, bbs, work, root, args.seed, gen_seed)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        metrics, attempted, failed, wall = workload.measure(args.seconds)
        metrics["setup_s"] = (benchlib.median(setups), "s")
        if args.trace:
            passes, counters = workload.traced(traced_bin, wall)
            layers = {name: benchlib.median([p[name] for p in passes]) for name in passes[0]}
            # The tail of the untraced passes: too volatile on a shared host
            # to carry an end-to-end bound, so it is reported here.
            layers["rtt_p99_ms"] = metrics["rtt_p99_ms"][0]
            layers["process.start_ms"] = process_start_ms(bbs)
            records = os.path.join(target, "perfbench", "counters.json")
            key = f"{source_tree(root)}/{args.workload}/{args.seed}/{gen_seed}"
            layers["counters.drift"] = drift(records, key, counters)
            # A layer the workload never reaches (the IPM on gen_warm, the
            # daemon on batch workloads) reads 0.
            metrics = {n: (layers.get(n, 0), unit) for n, unit in per_layer.items()}
    finally:
        if isinstance(workload, Serve):
            workload.stop_daemon()
    shutil.rmtree(work, ignore_errors=True)

    wanted = per_layer if args.trace else end_to_end
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    for error in workload.errors:
        log(f"check failed: {error}")
    correct = not workload.errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log(str(error))
        sys.exit(2)
