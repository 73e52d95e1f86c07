"""The ``server`` workload: ``python -m repro.server`` in its own process.

The server runs durable (a fresh directory under the benchmark's output
directory), with fsync, group commit and no checkpoints. Two client
sessions on two connections, driven from one thread of this process,
take turns request by request: session 0 writes, session 1 reads, and
exactly one request is in flight at a time. The turns are fixed, so the
interleaving (and with it every context switch and validation of the
server's transaction coordinator) is the same in every run of a seed,
and each request's CPU time is read exactly: the calling thread's and
the server process's, before and after it. Set-up (server start, schema,
load, rules) is repeated :data:`SETUP_REPEATS` times on fresh servers;
the last one serves the measured window. After it stops,
``repro.durability.recover`` must rebuild exactly the state the model
expects from the acknowledged ops.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
from time import clock_gettime, perf_counter, thread_time

from repro.durability import recover
from repro.server.client import ReproClient
from repro.server.protocol import decode_response

from . import measure
from .trace import read_spans
from .workloads import (
    ALL_DEPT,
    ALL_EMP,
    ALL_LOG,
    SERVER_CLIENTS,
    Feed,
    expected_after,
    server_stream,
    setup_statements,
    state_errors,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
WARMUP_OPS = 200          # per client
#: ops generated per client and second of window; well above the rate
#: the server sustains, so the window never runs out
OPS_PER_SECOND_CAP = 1000
#: the window op after which the server's peak_rss_mb is read (see
#: measure.Window): fewer than the slowest run completes, about 15k ops
#: in 25 s on a 2-core machine
RSS_OPS = 10_000
MAX_TXN_ATTEMPTS = 50
START_TIMEOUT_S = 60
SESSION_TIMEOUT_S = 120


class Server:
    """One server process serving a fresh durability directory."""

    def __init__(self, directory, spans_file=None):
        self.directory = directory
        shutil.rmtree(directory, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if spans_file is None:
            command = [sys.executable, "-u", "-m", "repro.server"]
        else:
            command = [sys.executable, "-u",
                       os.path.join(ROOT, "perfbench", "launch_server.py"),
                       spans_file, "--"]
        command += ["--port", "0", directory]
        self._stderr = open(directory + ".stderr", "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self.port = self._read_port()

    def _read_port(self):
        timer = threading.Timer(START_TIMEOUT_S, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline().decode()
        finally:
            timer.cancel()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def client(self):
        return ReproClient(port=self.port, timeout=120)

    def signal(self, signum):
        self.process.send_signal(signum)

    def peak_rss_mb(self):
        return measure.peak_rss_mb(self.process.pid)

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        if not self._stderr.closed:
            self._stderr.close()
            if os.path.getsize(self._stderr.name) == 0:
                os.remove(self._stderr.name)


def _committed(result, op):
    return bool(result.get("committed")) and (
        result.get("rule_firings") == sum(op.expect.values())
    )


def check(op, result):
    """Whether an op's last response matches its expected outcome."""
    if op.kind == "read":
        rows = result["rows"]
        return len(rows) == 1 and (rows[0][0], rows[0][2]) == op.expect[0]
    return _committed(result, op)


def requests(op):
    """The request lines of one op, in order."""
    if op.kind == "txn":
        return ["\\begin", *op.sql, "\\commit"]
    return [op.sql]


def cpu_clock(pid):
    """The clock id of a process's CPU time (Linux: the whole process's
    scheduler clock), readable with :func:`time.clock_gettime`."""
    return ((~pid) << 3) | 2


class Session:
    """One client session: a connection and its ops, run one request at
    a time by :func:`run_window`. An op's times are the sums over its own
    requests; an explicit transaction that loses validation is retried
    from ``begin``, and its times include the lost attempts."""

    def __init__(self, port, ops, server_clock):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=SESSION_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.server_clock = server_clock
        self.ops = ops
        self.index = 0
        self.failed = 0
        self.retries = 0
        self.rows_written = 0
        self.done = []        # ops acknowledged as committed
        self.pending = []     # request lines of the op in flight
        self._attempts = 0
        self._cpu = self._wall = 0.0

    def has_ops(self):
        return self.index < len(self.ops)

    def _request(self, line):
        data = " ".join(line.split()).encode("utf-8") + b"\n"
        server = clock_gettime(self.server_clock)
        cpu = thread_time()
        wall = perf_counter()
        self.sock.sendall(data)
        response = self.reader.readline()
        wall = perf_counter() - wall
        cpu = thread_time() - cpu
        server = clock_gettime(self.server_clock) - server
        self._cpu += cpu + server
        self._wall += wall
        if not response:
            raise RuntimeError("the server closed a session's connection")
        return decode_response(response)

    def step(self):
        """Send the next request of the op in flight, starting the next op
        if none is; returns the op's ``(kind, cpu_s, wall_s)`` record when
        this request finished it, else None."""
        op = self.ops[self.index]
        if not self.pending:
            self.pending = requests(op)
            self._attempts = 1
            self._cpu = self._wall = 0.0
        response = self._request(self.pending.pop(0))
        ok = bool(response.get("ok"))
        if ok and self.pending:
            return None
        if (not ok and response.get("code") == "conflict"
                and op.kind == "txn" and self._attempts < MAX_TXN_ATTEMPTS):
            self._attempts += 1
            self.retries += 1
            self.pending = requests(op)
            return None
        if self.pending:  # a statement of a transaction failed
            self.pending = []
            self._request("\\rollback")
        ok = ok and check(op, response["result"])
        self.failed += not ok
        if ok and op.kind != "read":
            self.done.append(op)
            self.rows_written += op.rows
        self.index += 1
        return op.kind, self._cpu, self._wall

    def close(self):
        try:
            self.sock.sendall(b"\\quit\n")
            self.reader.readline()
        except OSError:
            pass
        self.reader.close()
        self.sock.close()


def run_window(server, feeds, count, seconds, window=None):
    """Both sessions for ``seconds`` of wall-clock time over the next
    ``count`` ops of their feeds (ops not run go back), recorded in
    ``window`` (a new :class:`~perfbench.measure.Window` by default).
    Returns ``(sessions, window)``.

    The window runs in segments. In a segment the sessions take turns,
    one request each, until the segment's end, then finish the ops in
    flight; then, with both sessions idle, the speed probe runs.
    """
    batches = [feed.take(count) for feed in feeds]
    server_clock = cpu_clock(server.process.pid)
    sessions = []
    window = window or measure.Window()
    try:
        for ops in batches:
            sessions.append(Session(server.port, ops, server_clock))
        before = measure.probe()
        while window.clock_s < seconds and any(
            session.has_ops() for session in sessions
        ):
            start = perf_counter()
            end = start + min(measure.SEGMENT_S, seconds - window.clock_s)
            segment = []
            stepped = True
            while stepped:
                stepped = False
                for session in sessions:
                    if session.has_ops() and (session.pending
                                              or perf_counter() < end):
                        record = session.step()
                        stepped = True
                        if record is not None:
                            segment.append(record)
            segment_s = perf_counter() - start
            after = measure.probe()
            window.add(segment, segment_s, measure.scale(before, after))
            before = after
    finally:
        for session in sessions:
            session.close()
    window.finish()
    for feed, session in zip(feeds, sessions):
        feed.put_back(session.ops[session.index:])
    window.failed = sum(session.failed for session in sessions)
    window.rows_written = sum(session.rows_written for session in sessions)
    return sessions, window


def load(server, statements, rule_statements):
    """Send the set-up statements; returns the mean create-rule time (ms)."""
    client = server.client()
    try:
        for sql in statements:
            client.execute(sql)
        times = []
        for sql in rule_statements:
            start = perf_counter()
            client.execute(sql)
            if not sql.startswith("create rule priority"):
                times.append(perf_counter() - start)
    finally:
        client.close()
    return statistics.mean(times) * 1e3


def run(seed, seconds, out_dir, trace=False):
    statements, rule_statements, _chart, model = setup_statements(
        "server", seed
    )
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"server-{seed}")
    spans_file = base + "-spans.tsv"
    setups = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            before = measure.probe()
            start = perf_counter()
            server = Server(f"{base}-db{repeat}",
                            spans_file if trace and last else None)
            define_rule_ms = load(server, statements, rule_statements)
            setup_s = perf_counter() - start
            setups.append(
                (setup_s * measure.scale(before, measure.probe()), setup_s)
            )
            if not last:
                server.stop()
                shutil.rmtree(server.directory, ignore_errors=True)
        return _measure(server, seed, seconds, trace, model, setups,
                        define_rule_ms, spans_file)
    finally:
        if server is not None:
            server.stop()


def _measure(server, seed, seconds, trace, model, setups, define_rule_ms,
             spans_file):
    per_window = int(seconds * OPS_PER_SECOND_CAP) + 100
    feeds = [Feed(server_stream(seed, c)) for c in range(SERVER_CLIENTS)]
    attempted = failed = 0
    acknowledged = []
    errors = []

    def account(sessions, window):
        nonlocal attempted, failed
        attempted += window.ops
        failed += window.failed
        for session in sessions:
            acknowledged.extend(session.done)

    # warm-up: the first WARMUP_OPS of each stream, with counters around it
    with server.client() as client:
        before = client.stats()
    warm, warm_window = run_window(server, feeds, WARMUP_OPS, 3600)
    account(warm, warm_window)
    with server.client() as client:
        warm_delta = measure.stats_delta(before, client.stats())
    counters = measure.deterministic_counters(warm_delta, subquery_runs=None)

    sessions, window = run_window(server, feeds, per_window, seconds,
                                  measure.Window(server.peak_rss_mb, RSS_OPS))
    account(sessions, window)
    result = {
        "setup_s": statistics.median(scaled for scaled, _raw in setups),
        "counters": counters,
        "warmup_ops": WARMUP_OPS * SERVER_CLIENTS,
        "deterministic": False,
        "client_retries": sum(session.retries for session in sessions),
        "peak_rss_mb": window.peak_rss_mb,
        **window.metrics(),
    }
    result["raw"]["setup_s"] = statistics.median(raw for _s, raw in setups)
    if trace:
        with server.client() as client:
            before = client.stats()
        server.signal(signal.SIGUSR1)
        with server.client() as client:
            client.ping()
        traced, traced_window = run_window(server, feeds, per_window, seconds)
        server.signal(signal.SIGUSR2)
        with server.client() as client:
            client.ping()
            delta = measure.stats_delta(before, client.stats())
        account(traced, traced_window)

    expected = expected_after(model, acknowledged)
    with server.client() as client:
        served = [client.query(sql) for sql in (ALL_EMP, ALL_DEPT, ALL_LOG)]
    errors.extend(state_errors(served, expected, "served state",
                               exact_log=False))
    server.stop()

    start = perf_counter()
    recovered = recover(server.directory)
    recovery_s = perf_counter() - start
    rows = [recovered.rows(sql) for sql in (ALL_EMP, ALL_DEPT, ALL_LOG)]
    recovered.durability.close()
    shutil.rmtree(server.directory)
    errors.extend(state_errors(rows, expected, "recovered state",
                               exact_log=False))
    if sorted(rows[2]) != sorted(tuple(row) for row in served[2]):
        errors.append("recovered salary_log differs from the served one")

    if trace:
        spans = read_spans(spans_file)
        os.remove(spans_file)
        ops = traced_window.ops
        round_trip_ms = 1e3 * traced_window.wall_op_s
        layers = measure.layer_metrics(
            spans, delta, ops, traced_window.rows_written, define_rule_ms
        )
        layers.update(measure.server_layer_metrics(
            spans, delta, ops, traced_window.rows_written, round_trip_ms,
            sum(session.retries for session in traced), recovery_s,
        ))
        traced_metrics = traced_window.metrics()
        layers["trace.overhead_share"] = (
            traced_metrics["p50_ms"] / result["p50_ms"] - 1.0
        )
        result.update(layers=layers, traced=traced_metrics, spans=spans,
                      traced_ops=ops)
    failed += len(errors)
    result.update(
        attempted=attempted, failed=failed, errors=errors,
        error_rate=failed / attempted, recovery_s=recovery_s,
    )
    return result
