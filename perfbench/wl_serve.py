"""``serve``: requests over a socket to a real ``fast serve --listen``.

The server is a subprocess (``--jobs 2``) with a fresh ``REPRO_CACHE_DIR``
under the run's work directory, so nothing carries over from an earlier
run.  Half the requests repeat one of the five ``examples/fast_programs``
as ``run`` jobs ("hot": the artifact cache is hit); the other half are
unique seeded variants of ``fast_sanitizer_source(tags)`` that assert the
Section 2 property ("cold": compiled and proved afresh, PROVED by
construction).  Expected outcomes are committed in ``spec.json``.

The load comes from one thread using ``selectors`` over two connections:
an open-loop phase at a fixed offered rate (each request timed from when
it was due), then a closed-loop phase that keeps a fixed number of
requests in flight and measures capacity.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from harness import Outcome, Rounds, percentile
from spans import Spans

from repro.apps.html import fast_sanitizer_source

COLD_ASSERT = "\nassert-true (is-empty (pre-image sani badOutput))\n"
_TAG_WORDS = ("iframe", "object", "embed", "style", "frame", "applet", "svg", "form")


class InvalidRun(Exception):
    """The load generator itself fell behind; the run measures nothing."""


@dataclass
class Request:
    index: int
    kind: str  # "hot" | "cold" | "warmup"
    source: str
    expected: str
    phase: str = ""
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    reply: Optional[dict] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class RequestStream:
    """The seeded request sequence, a fixed share of it hot."""

    def __init__(self, seed: int, hot_programs: dict[str, tuple[str, str]], hot_share: float) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.hot = sorted(hot_programs.items())
        self.count = 0
        # every ten requests hold exactly hot_share * 10 hot ones
        hot = round(hot_share * 10)
        self._kinds = Rounds(self.rng, ["hot"] * hot + ["cold"] * (10 - hot))

    def next(self) -> Request:
        kind = self._kinds.next()
        i = self.count
        self.count += 1
        if kind == "hot":
            _name, (source, expected) = self.hot[self.rng.randrange(len(self.hot))]
            return Request(i, kind, source, expected)
        tag = f"{self.rng.choice(_TAG_WORDS)}{self.seed}x{i}"
        return Request(i, kind, fast_sanitizer_source(("script", tag)) + COLD_ASSERT, "PROVED")


class Server:
    """A ``fast serve --listen 127.0.0.1:0`` subprocess."""

    def __init__(self, root: str, work: str, jobs: int) -> None:
        os.makedirs(work, exist_ok=True)
        self.log_path = os.path.join(work, "serve.log")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.fast.cli", "serve",
             "--listen", "127.0.0.1:0", "--jobs", str(jobs)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,  # its workers share the process group
        )
        self.port = 0

    def wait_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                for line in f:
                    if line.startswith("listening on "):
                        self.port = int(line.split()[2].rsplit(":", 1)[1])
                        return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; log: {self.log_path}")

    def stop(self, timeout: float) -> int:
        """SIGTERM (graceful drain), then SIGKILL; waits for the workers too."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            code = self.proc.wait()
            self._reap_group(timeout)
            return code
        finally:
            self._log.close()

    def _reap_group(self, timeout: float) -> None:
        """Wait until no process of the server's group is left."""
        deadline = time.monotonic() + timeout
        sig = 0
        while True:
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                return
            if time.monotonic() > deadline:
                sig = signal.SIGKILL
            time.sleep(0.01)


class LoadGen:
    """One thread, ``selectors``, a fixed set of connections."""

    def __init__(self, port: int, connections: int, spans: Spans) -> None:
        self.spans = spans
        #: seconds the generator spent recording spans (traced run only)
        self.tracing_s = 0.0
        self.sel = selectors.DefaultSelector()
        self.conns = []
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = {"sock": sock, "out": bytearray(), "in": b""}
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)
        self.pending: dict[str, tuple[Request, dict]] = {}
        self.answered: list[Request] = []
        self.on_reply = None

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn["sock"])
            conn["sock"].close()
        self.sel.close()

    def _trace(self, req: Request) -> None:
        t0 = time.perf_counter()
        self.spans.op = req.index
        self.spans.add("svc.request", req.sent, req.done)
        # the reply does not say where the worker's time sits inside the
        # request; it is drawn ending when the reply was read
        duration = req.reply.get("duration") or 0.0
        self.spans.add("svc.worker", max(req.sent, req.done - duration), req.done, depth=1)
        self.tracing_s += time.perf_counter() - t0

    def send(self, req: Request, conn: dict, doc: dict) -> None:
        req.sent = time.perf_counter()
        self.pending[doc["id"]] = (req, conn)
        conn["out"] += (json.dumps(doc) + "\n").encode()
        self._flush(conn)

    def _flush(self, conn: dict) -> None:
        try:
            sent = conn["sock"].send(conn["out"])
            del conn["out"][:sent]
        except BlockingIOError:
            pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn["out"] else 0)
        self.sel.modify(conn["sock"], events, conn)

    def pump(self, timeout: float) -> None:
        for key, mask in self.sel.select(timeout):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if mask & selectors.EVENT_READ:
                chunk = conn["sock"].recv(1 << 16)
                if not chunk:
                    raise RuntimeError("server closed a connection")
                now = time.perf_counter()
                lines = (conn["in"] + chunk).split(b"\n")
                conn["in"] = lines.pop()
                for line in lines:
                    doc = json.loads(line)
                    req, owner = self.pending.pop(doc.get("id"))
                    req.done, req.reply = now, doc
                    self.answered.append(req)
                    if self.spans.enabled:
                        self._trace(req)
                    if self.on_reply is not None:
                        self.on_reply(req, owner)


def _doc(req: Request) -> dict:
    return {"id": f"r{req.index}", "kind": "run", "source": req.source}


def _verdict(req: Request, limit_s: float) -> tuple[bool, bool]:
    """(answered correctly, within the latency limit)."""
    reply = req.reply or {}
    correct = not reply.get("shed") and reply.get("outcome") == req.expected
    return correct, correct and req.done - req.due <= limit_s


def open_loop(gen: LoadGen, stream: RequestStream, rate: float, seconds: float) -> list[float]:
    """Send on schedule; returns how late each send was (seconds)."""
    count = int(rate * seconds)
    start = time.perf_counter() + 0.01
    late = []
    for k in range(count):
        req = stream.next()
        req.phase, req.due = "open", start + k / rate
        while True:
            now = time.perf_counter()
            if now >= req.due:
                break
            gen.pump(req.due - now)
        gen.send(req, gen.conns[k % len(gen.conns)], _doc(req))
        late.append(req.sent - req.due)
    return late


def closed_loop(gen: LoadGen, stream: RequestStream, inflight: int, seconds: float) -> tuple[float, float]:
    """Keep ``inflight`` requests outstanding for ``seconds``; (start, end)."""
    start = time.perf_counter()
    end = start + seconds

    def submit(conn: dict) -> None:
        req = stream.next()
        req.phase = "closed"
        req.due = time.perf_counter()
        gen.send(req, conn, _doc(req))

    def refill(_req: Request, conn: dict) -> None:
        if time.perf_counter() < end:
            submit(conn)

    for k in range(inflight):
        submit(gen.conns[k % len(gen.conns)])
    gen.on_reply = refill
    try:
        while (now := time.perf_counter()) < end:
            gen.pump(end - now)
    finally:
        gen.on_reply = None
    return start, end


def drain(gen: LoadGen, limit_s: float) -> None:
    deadline = time.perf_counter() + limit_s
    while gen.pending and time.perf_counter() < deadline:
        gen.pump(0.01)


def spawn_until_healthy(root: str, work: str, jobs: int, timeout: float) -> tuple[Server, float]:
    """Start a server; seconds from spawn to the first ``health`` reply."""
    t0 = time.perf_counter()
    server = Server(root, work, jobs)
    try:
        port = server.wait_listening(timeout)
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
            sock.sendall(b'{"id": "probe", "kind": "health"}\n')
            reply = sock.makefile().readline()
        if not json.loads(reply).get("ready"):
            raise RuntimeError(f"server not ready: {reply!r}")
    except BaseException:
        server.stop(timeout)
        raise
    return server, time.perf_counter() - t0


def run(args, spec: dict, spans: Spans) -> Outcome:
    limit_s = spec["latency_limit_ms"] / 1e3
    work = os.path.join(args.work_dir, f"serve-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    hot = {}
    for name, expected in spec["hot_programs"].items():
        with open(os.path.join(args.root, "examples", "fast_programs", name)) as f:
            hot[name] = (f.read(), expected)
    stream = RequestStream(args.seed, hot, spec["hot_share"])
    try:
        setups = []
        server = None
        for k in range(spec["setups"]):
            if server is not None:
                server.stop(spec["stop_timeout_s"])
            server, seconds = spawn_until_healthy(
                args.root, os.path.join(work, f"s{k}"), spec["jobs"], spec["start_timeout_s"]
            )
            setups.append(seconds)
        try:
            requests, late, closed, tracing_s = _drive(server.port, stream, spec, args, spans, limit_s)
        finally:
            server.stop(spec["stop_timeout_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = _outcome(requests, late, closed, statistics.median(setups), spec, limit_s, args)
    if spans.enabled:
        out.layers = _layers(requests, late, closed, spec, tracing_s)
    return out


def _drive(port, stream, spec, args, spans, limit_s):
    gen = LoadGen(port, spec["connections"], spans)
    try:
        # warm-up: every hot program once, so "hot" means cache-warm
        for k, (_name, (source, expected)) in enumerate(stream.hot):
            req = Request(-1 - k, "warmup", source, expected, phase="warmup")
            req.due = time.perf_counter()
            gen.send(req, gen.conns[k % len(gen.conns)], {"id": f"w{k}", "kind": "run", "source": source})
        drain(gen, spec["start_timeout_s"])
        open_s = args.seconds * spec["open_share"]
        late = open_loop(gen, stream, spec["offered_rate"], open_s)
        drain(gen, limit_s * 2)
        closed = closed_loop(gen, stream, spec["closed_inflight"], args.seconds - open_s)
        drain(gen, limit_s * 2)
        unanswered = [req for req, _conn in gen.pending.values()]
        return gen.answered + unanswered, late, closed, gen.tracing_s
    finally:
        gen.close()


def _outcome(requests, late, closed, setup_s, spec, limit_s, args) -> Outcome:
    if args.corrupt is not None:
        for req in requests:
            if req.reply is not None:
                req.reply = args.corrupt(req.index, req.reply)
    late_limit = spec["max_gen_late_ms"] / 1e3
    if late and percentile(late, 99) > late_limit:
        raise InvalidRun(
            f"load generator ran late: p99 {percentile(late, 99) * 1e3:.1f} ms "
            f"> {spec['max_gen_late_ms']} ms"
        )
    out = Outcome(attempted=len(requests))
    start, end = closed
    good_closed = 0
    for req in requests:
        correct, in_time = _verdict(req, limit_s)
        reply = req.reply or {}
        if not in_time:
            out.failed += 1
        if req.reply is not None and not reply.get("shed") and not correct:
            out.wrong += 1
        if req.phase == "closed" and in_time and start <= req.done <= end:
            good_closed += 1
    opened = [r for r in requests if r.phase == "open" and r.reply is not None]
    out.latencies = [r.latency for r in opened]
    # capacity over the window from the first send to the last counted
    # answer, so the figure is not quantized by the fixed phase length
    last = max((r.done for r in requests if r.phase == "closed" and start <= r.done <= end), default=end)
    out.ops_per_s = good_closed / (last - start)
    out.setup_s = setup_s
    rss = [r.reply.get("hygiene", {}).get("rss_bytes", 0) for r in requests if r.reply]
    out.peak_rss_mb = max(rss, default=0) / 2**20
    out.info = {
        "offered_rate": spec["offered_rate"],
        "latency_limit_ms": spec["latency_limit_ms"],
        "open_requests": sum(r.phase == "open" for r in requests),
        "closed_requests": sum(r.phase == "closed" for r in requests),
    }
    return out


def _layers(requests, late, closed, spec, tracing_s) -> dict:
    start, end = closed
    answered = [r for r in requests if r.reply is not None and not r.reply.get("shed")]
    duration = lambda r: r.reply.get("duration") or 0.0  # noqa: E731
    waits = [(r.done - r.sent) - duration(r) for r in answered if r.phase == "open"]
    closed_busy = sum(duration(r) for r in answered if r.phase == "closed" and start <= r.done <= end)
    return {
        "exec_hot_ms": statistics.median(duration(r) for r in answered if r.kind == "hot") * 1e3,
        "exec_cold_ms": statistics.median(duration(r) for r in answered if r.kind == "cold") * 1e3,
        "wait_ms": statistics.median(waits) * 1e3,
        "wait_tail_ms": percentile(waits, spec["tail_pct"]) * 1e3,
        "worker_busy_frac": closed_busy / (spec["jobs"] * (end - start)),
        "worker_rss_mb": max(r.reply.get("hygiene", {}).get("rss_bytes", 0) for r in answered) / 2**20,
        "shed": sum(1 for r in requests if r.reply and r.reply.get("shed")),
        "retries": sum(max(0, (r.reply.get("attempts") or 1) - 1) for r in answered),
        "gen_late_ms": percentile(late, 99) * 1e3,
        # spans are recorded by the load generator as replies arrive; the
        # share of the run it spent doing so bounds their cost to ops_per_s
        "tracing_overhead_frac": tracing_s / (end - start),
    }
