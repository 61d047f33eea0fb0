"""The served program as a child process: boot, health, stop, reap.

``python -m repro serve --port 0`` runs in its own session (process
group), so one ``killpg`` reaches the server *and* the shard workers it
spawned; :meth:`ServerChild.stop` asserts that nothing in the group
survives, on success, failure and Ctrl-C alike.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class ServerChild:
    """One ``repro serve`` child listening on an ephemeral port."""

    def __init__(self, db_path, extra_args=(), workers=2):
        # PYTHONPATH (set by run.py) is inherited.  Fixed string hashing:
        # dict and set layouts, and with them the server's speed, do not
        # vary from one boot to the next.
        env = dict(os.environ, PYTHONHASHSEED="0")
        argv = [sys.executable, "-m", "repro", "serve", "--db", db_path,
                "--port", "0", "--quiet", "--workers", str(workers)]
        self._log_path = db_path.rstrip(os.sep) + ".serve.log"
        self._log = open(self._log_path, "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv + list(extra_args), env=env, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True)
        self.pgid = self.proc.pid
        self.port = None

    def wait_healthy(self):
        """Block until ``/healthz`` answers ok; returns the port."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        while self.port is None:
            self._check_running(deadline)
            with open(self._log_path, "r", encoding="utf-8") as f:
                match = re.search(r"on http://[\d.]+:(\d+)", f.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.01)
        while True:
            self._check_running(deadline)
            try:
                if get_json(self.port, "/healthz")["status"] == "ok":
                    return self.port
            except (OSError, http.client.HTTPException, ValueError):
                pass
            time.sleep(0.01)

    def _check_running(self, deadline):
        if self.proc.poll() is not None:
            raise RuntimeError("server exited with code %s during boot:\n%s"
                               % (self.proc.returncode, self.log_text()))
        if time.monotonic() > deadline:
            raise RuntimeError("server not healthy after %.0f s:\n%s"
                               % (BOOT_TIMEOUT, self.log_text()))

    def log_text(self):
        with open(self._log_path, "r", encoding="utf-8") as f:
            return f.read()

    def stop(self, kill=False):
        """Stop the child (SIGTERM drains; ``kill`` is SIGKILL) and reap
        its whole process group.  Idempotent."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
                try:
                    proc.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            self._reap_group(proc)
            self._log.close()

    def _reap_group(self, proc):
        """SIGKILL whatever is left in the group; assert it is empty."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass                    # already empty
        proc.wait(timeout=STOP_TIMEOUT)
        deadline = time.monotonic() + STOP_TIMEOUT
        while _alive_in_group(self.pgid):
            if time.monotonic() > deadline:
                raise RuntimeError("repro children survived SIGKILL: %s"
                                   % _alive_in_group(self.pgid))
            time.sleep(0.01)


def _alive_in_group(pgid):
    """Pids in process group ``pgid`` that are not zombies (orphaned
    shard workers are reaped by init, whenever it gets to them)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, "r") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue                # exited while we were looking
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def get_json(port, path):
    """One GET on a fresh connection, decoded as JSON."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise ValueError("GET %s -> %d" % (path, response.status))
        return json.loads(body)
    finally:
        conn.close()
