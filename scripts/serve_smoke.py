"""End-to-end smoke test for ``repro serve``.

Launches the CLI server as a real subprocess on an ephemeral port, waits
for its "serving on http://HOST:PORT" announcement, exercises the HTTP
surface (``/healthz``, ``/estimate``, ``/stats``, and the live-graph
mutation routes ``/insert_edge`` / ``/apply_deltas``), then delivers
SIGINT and asserts a clean shutdown — the documented Ctrl-C path.  This
is the one test that covers argv parsing, stdout protocol, and signal
handling together; CI runs it on every push.

Every call goes over one keep-alive connection, as a real client's
would, and ten ``/healthz`` round trips must have a median under 20 ms:
half the ~40 ms delayed-ACK stall a response split across two socket
writes would cost on every request after a connection's first.

Usage: ``PYTHONPATH=src python scripts/serve_smoke.py``
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.parse

TIMEOUT = 60.0
#: Median /healthz round trip on a keep-alive connection must stay below
#: this (half the delayed-ACK floor a split response would pay).
STALL_MS = 20.0
HEALTH_CALLS = 10


def _write_edge_list(path: str) -> None:
    """A small deterministic digraph (a ring with chords)."""
    with open(path, "w", encoding="utf-8") as handle:
        n = 60
        for i in range(n):
            handle.write(f"{i} {(i + 1) % n} 0.4\n")
            handle.write(f"{i} {(i + 7) % n} 0.2\n")


def _wait_for_banner(proc: subprocess.Popen) -> str:
    """Read stdout until the serve banner appears; return the URL."""
    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited early (code {proc.poll()}) without a banner"
            )
        sys.stdout.write(f"[server] {line}")
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            return match.group(1)
    raise SystemExit("timed out waiting for the serve banner")


def _call(conn: http.client.HTTPConnection, method: str, path: str,
          payload: "dict | None" = None) -> dict:
    """One request on the shared keep-alive connection; the JSON reply."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    assert response.status == 200, (path, response.status, data)
    return json.loads(data.decode("utf-8"))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        edges = os.path.join(tmp, "smoke.txt")
        _write_edge_list(edges)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", edges,
             "--port", "0", "-r", "4", "--simulations", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        conn = None
        try:
            url = urllib.parse.urlsplit(_wait_for_banner(proc))
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=TIMEOUT)

            health_ms = []
            for _ in range(HEALTH_CALLS):
                start = time.perf_counter()
                health = _call(conn, "GET", "/healthz")
                health_ms.append((time.perf_counter() - start) * 1e3)
                assert health.get("status") == "ok", health
            health_p50 = statistics.median(health_ms)
            assert health_p50 < STALL_MS, (
                f"keep-alive /healthz median {health_p50:.1f} ms >= "
                f"{STALL_MS:.0f} ms: responses are stalling"
            )

            estimate = _call(conn, "POST", "/estimate",
                             {"seeds": [0, 3], "n_samples": 2000})
            assert estimate["value"] > 0, estimate
            assert estimate["n_samples"] == 2000, estimate
            assert estimate["epoch"] == 0, estimate

            # Live-graph round trip: mutate, check the epoch advances and
            # queries keep answering (on the mutated graph).
            inserted = _call(conn, "POST", "/insert_edge",
                             {"u": 0, "v": 30, "p": 0.5})
            assert inserted["epoch"] == 1, inserted
            assert inserted["applied"] == 1, inserted
            batched = _call(conn, "POST", "/apply_deltas", {"deltas": [
                {"op": "delete", "u": 0, "v": 30},
                {"op": "insert", "u": 5, "v": 40, "p": 0.3},
            ]})
            assert batched["epoch"] == 2, batched
            assert batched["applied"] == 2, batched
            estimate2 = _call(conn, "POST", "/estimate",
                              {"seeds": [0, 3], "n_samples": 2000})
            assert estimate2["epoch"] == 2, estimate2
            assert estimate2["value"] > 0, estimate2

            stats = _call(conn, "GET", "/stats")
            assert stats["dynamic"][0]["epoch"] == 2, stats

            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=TIMEOUT)
            assert code == 0, f"server exited with {code} after SIGINT"
        finally:
            if conn is not None:
                conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=TIMEOUT)
    print("serve smoke test: OK "
          f"(estimate={estimate['value']:.3f} on {estimate['n_samples']} "
          f"RR sets; keep-alive /healthz p50 {health_p50:.2f} ms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
