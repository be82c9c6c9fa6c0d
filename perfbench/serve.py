"""The ``serve-greedy`` workload: ``repro serve`` under the benchmark's own load.

The server runs as a subprocess (``--executor warm-pool --workers 1``).
The client lives in the benchmark process and never imports the program:
it sends ``POST /simulate`` requests built from the seed over at most
``nproc`` keep-alive connections, one thread per connection.

* Open loop: requests are due at a fixed rate; each is sent when due on
  a free connection, and its latency counts from when it was due, so a
  stall also charges the requests queued behind it.  How late the client
  itself ran is reported as ``client.send_lag_ms``.
* Closed loop: every connection sends its next request as soon as the
  previous reply arrives; completed requests per second is the capacity.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import spans
import tracer as tr
import workloads

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


class Server:
    """One server subprocess, booted and waited for until ``/healthz`` is up."""

    def __init__(self, cmd: list[str], env: dict, log_path: str):
        self.start = time.monotonic()
        self._log = open(log_path, "ab")
        try:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log,
                                         env=env, text=True)
        except OSError:
            self._log.close()
            raise
        self.port = None
        self._lines: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.setup_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line)
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def _wait_healthy(self) -> float:
        if not self._ready.wait(BOOT_TIMEOUT_S) or self.port is None:
            raise RuntimeError(f"server did not start: {''.join(self._lines)[-500:]}")
        deadline = self.start + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _ = get(self.port, "/healthz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return time.monotonic() - self.start
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        """The server process's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(STOP_TIMEOUT_S)
        self._log.close()
        return code


def get(port: int, path: str, timeout: float = 30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def request_body(sim_seed: int) -> bytes:
    spec = workloads.SERVE
    return json.dumps({
        "scenario": spec["scenario"],
        "policy": spec["policy"],
        # Simulation knobs left unset: the service's defaults apply, as for
        # a client that does not know them.
        "config": {"n_trials": spec["n_trials"], "seed": sim_seed},
        "include_samples": True,
    }).encode()


class Client:
    """Open- and closed-loop load over ``n_conns`` keep-alive connections."""

    def __init__(self, port: int, n_conns: int, seeds, ref: dict):
        self.port = port
        self.n_conns = n_conns
        self.seeds = seeds
        self.ref = ref
        self._lock = threading.Lock()
        self._in_flight = 0
        self.max_in_flight = 0
        self.problems: list[str] = []

    def _send(self, conn, body: bytes) -> tuple[bool, float]:
        """One request; returns (ok, actual send time)."""
        with self._lock:
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
        sent = time.monotonic()
        try:
            conn.request("POST", "/simulate", body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            if resp.status != 200:
                return self._fail(f"HTTP {resp.status}: {data[:200]!r}"), sent
            payload = json.loads(data)
            bad = workloads.check_samples(payload.get("samples", []),
                                          workloads.SERVE["n_trials"],
                                          float(payload["lower_bound"]), self.ref)
            if payload.get("n_trials") != workloads.SERVE["n_trials"]:
                bad.append(f"n_trials {payload.get('n_trials')}")
            return (self._fail("; ".join(bad)) if bad else True), sent
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            conn.close()  # reconnects on the next request
            return self._fail(f"{type(exc).__name__}: {exc}"), sent
        finally:
            with self._lock:
                self._in_flight -= 1

    def _fail(self, message: str) -> bool:
        with self._lock:
            self.problems.append(message)
        return False

    def _conn(self):
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=workloads.REQUEST_TIMEOUT_S)

    def _threads(self, fn) -> None:
        threads = [threading.Thread(target=fn, daemon=True) for _ in range(self.n_conns)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    def open_loop(self, rate: float, seconds: float) -> list[dict]:
        """Requests due every ``1/rate`` s for ``seconds``; one record each."""
        n = max(1, int(rate * seconds))
        bodies = [(s, request_body(s)) for _, s in zip(range(n), self.seeds)]
        t0 = time.monotonic() + 0.05
        due = [t0 + i / rate for i in range(n)]
        records: list[dict] = []
        nxt = iter(range(n))

        def worker():
            conn = self._conn()
            try:
                while True:
                    with self._lock:
                        i = next(nxt, None)
                    if i is None:
                        return
                    delay = due[i] - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    ok, sent = self._send(conn, bodies[i][1])
                    done = time.monotonic()
                    with self._lock:
                        records.append({"rid": bodies[i][0], "due": due[i], "sent": sent,
                                        "done": done, "ok": ok})
            finally:
                conn.close()

        self._threads(worker)
        return records

    def closed_loop(self, seconds: float) -> tuple[list[dict], float]:
        """Back-to-back requests on every connection; returns the records
        and the phase's wall time (start to last reply)."""
        records: list[dict] = []
        start = time.monotonic()
        deadline = start + seconds

        def worker():
            conn = self._conn()
            try:
                while time.monotonic() < deadline:
                    with self._lock:
                        seed = next(self.seeds)
                    ok, sent = self._send(conn, request_body(seed))
                    with self._lock:
                        records.append({"rid": seed, "due": sent, "sent": sent,
                                        "done": time.monotonic(), "ok": ok})
            finally:
                conn.close()

        self._threads(worker)
        return records, max(r["done"] for r in records) - start


def server_cmd(traced: bool) -> list[str]:
    args = ["--executor", "warm-pool", "--workers", "1", "--port", "0"]
    if traced:
        return [sys.executable, os.path.join(workloads.HERE, "launcher.py"), *args]
    return [sys.executable, "-m", "repro", "serve", *args]


def run(seed: int, seconds: float, trace: bool, out_dir: str, boots: int) -> dict:
    """Boot ``boots`` servers (set-up samples), load the last one, stop it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p)
    trace_dir = os.path.join(out_dir, f"trace-serve-{seed}-{os.getpid()}")
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    log = os.path.join(out_dir, "server.log")
    setups = []
    for _ in range(boots - 1):
        probe = Server(server_cmd(False), env, log)
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(server_cmd(trace), env, log)
    setups.append(server.setup_s)
    spec = workloads.SERVE
    client = Client(server.port, min(os.cpu_count() or 1, 8),
                    workloads.call_seeds("serve-greedy", seed),
                    workloads.references()["serve-greedy"])
    try:
        _, health0 = get(server.port, "/healthz")
        open_recs = client.open_loop(spec["open_rps"], seconds * spec["open_share"])
        max_in_flight = client.max_in_flight
        closed_recs, closed_wall = client.closed_loop(seconds * (1 - spec["open_share"]))
        _, health1 = get(server.port, "/healthz")
        rss = server.peak_rss_mb()
    finally:
        exit_code = server.stop()
    server_problems = [] if exit_code == 0 else [f"server exited with code {exit_code}"]
    if health1["executor"].get("pools_built") != 1:
        server_problems.append(f"warm pool built {health1['executor'].get('pools_built')} "
                               "times, expected once")
    ok_open = [r for r in open_recs if r["ok"]]
    completed = sum(1 for r in closed_recs if r["ok"])
    result = {
        "setups_s": setups,
        "open": {"n": len(open_recs), "ok": len(ok_open),
                 "latency_ms": [1e3 * (r["done"] - r["due"]) for r in ok_open],
                 "send_lag_ms": [1e3 * (r["sent"] - r["due"]) for r in open_recs],
                 "max_in_flight": max_in_flight},
        "closed": {"n": len(closed_recs), "ok": completed, "wall_s": closed_wall,
                   "conns": client.n_conns},
        "attempted": len(open_recs) + len(closed_recs),
        "failed": sum(1 for r in open_recs + closed_recs if not r["ok"]),
        "problems": client.problems + server_problems,
        "server_problems": server_problems,
        "peak_rss_mb": rss,
        "health": [health0, health1],
    }
    if trace:
        result["trace"] = traced_summary(trace_dir, open_recs + closed_recs)
    return result


def traced_summary(trace_dir: str, records: list[dict]) -> dict:
    """Per-layer numbers from the server's and workers' span files."""
    all_spans, selfcheck, files = [], [], sorted(os.listdir(trace_dir))
    for name in files:
        path = os.path.join(trace_dir, name)
        if name.startswith("spans-"):
            loaded = tr.read_spans(path)
            if name.startswith("spans-server-"):
                # Only spans caused by a load request; /healthz probes carry
                # no request id.
                loaded = [sp for sp in loaded if sp[5] is not None]
            all_spans += loaded
        elif name.startswith("selfcheck-"):
            with open(path) as fh:
                selfcheck += [f"{name}: {p}" for p in json.load(fh)]
    roles = {name.split("-")[1] for name in files if name.startswith("spans-")}
    if roles != {"server", "worker"}:
        selfcheck.append(f"span files from {sorted(roles)}, expected server and worker")
    handler = {sp[5]: sp[2] for sp in all_spans if sp[1] == "server.handler"}
    waits = [1e3 * (handler[r["rid"]] - r["sent"]) for r in records if r["rid"] in handler]
    summary = spans.summarize(all_spans, units=len(handler), root="server.handler")
    summary.update(queue_wait_ms=waits, selfcheck=selfcheck + tr.check_self_time())
    return summary
