"""Start, probe and stop the program's processes from the checkout's sources.

Every child runs ``python -m repro.cli ...`` (or a benchmark helper script)
with ``PYTHONPATH=src`` from the checkout root, exactly as a user runs the
command-line entry point, so nothing needs installing.  Children write their
stderr to a file in the run's work directory; the server's listening
addresses are read back from it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from percentiles import median

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: What the reference start-up (see :func:`reference_startup_s`) takes on the
#: 2-vCPU machine the benchmark was sized on; set-up times are given in
#: seconds of a host of that speed.
REFERENCE_STARTUP_S = 0.15

_LISTEN = re.compile(r"listening on ([0-9.]+):(\d+)")
_ADMIN = re.compile(r"admin plane on http://([0-9.]+):(\d+)")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reference_startup_s() -> float:
    """Wall time to start a bare interpreter that imports numpy, and exit.

    Set-up is process start, imports and pure-Python work, whose speed on a
    shared virtual machine drifts by up to 1.5x over minutes.  This fixed
    task, timed next to every set-up sample, measures that drift so that
    :func:`scaled_setup_s` can divide it out.  It runs none of the program.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def setup_samples(take: Callable[[], float], count: int) -> List[Tuple[float, float]]:
    """``count`` set-up times from ``take()``, each paired with the reference
    start-up time around it (the mean of the ones just before and after)."""
    refs = [reference_startup_s()]
    samples = []
    for _ in range(count):
        value = take()
        refs.append(reference_startup_s())
        samples.append((value, (refs[-2] + refs[-1]) / 2.0))
    return samples


def scaled_setup_s(samples: Sequence[Tuple[float, float]]) -> float:
    """``setup_s``: the median set-up time in seconds of a host whose reference
    start-up takes ``REFERENCE_STARTUP_S``."""
    return REFERENCE_STARTUP_S * median([value / ref for value, ref in samples])


def run_helper(script: str, args: Sequence[str], log: Path, timeout: float) -> dict:
    """Run a benchmark helper script in a fresh process; return its JSON result line."""
    cmd = [sys.executable, str(HERE / script), *args]
    with open(log, "ab") as err:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err,
            timeout=timeout,
        )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{script} exited {proc.returncode}; see {log}:\n" + _tail(log)
        )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


class Server:
    """A running ``serve --async`` process and its two listening addresses."""

    def __init__(self, proc: subprocess.Popen, tcp, http, startup_s: float):
        self.proc = proc
        self.tcp: Tuple[str, int] = tcp
        self.http: Tuple[str, int] = http
        self.startup_s = startup_s

    @classmethod
    def start(cls, serve_args: Sequence[str], log: Path, *, launcher: Optional[List[str]] = None,
              timeout: float = 120.0) -> "Server":
        """Spawn the server; return once its TCP listener accepts a connection.

        ``startup_s`` is the time from spawn until a TCP connect succeeds:
        interpreter start, index load or dynamic build, kernel preparation
        and the listener.
        """
        prefix = launcher or [sys.executable, "-m", "repro.cli"]
        cmd = [*prefix, "serve", *serve_args, "--async", "--port", "0", "--http-port", "0"]
        err = open(log, "wb")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        err.close()
        tcp = http = None
        try:
            while tcp is None or http is None:
                if proc.poll() is not None:
                    raise RuntimeError(f"server exited {proc.returncode} during start-up:\n" + _tail(log))
                if time.perf_counter() - t0 > timeout:
                    raise RuntimeError("server did not start listening in time:\n" + _tail(log))
                text = log.read_text(errors="replace")
                listen, admin = _LISTEN.search(text), _ADMIN.search(text)
                if listen and admin:
                    tcp = (listen.group(1), int(listen.group(2)))
                    http = (admin.group(1), int(admin.group(2)))
                else:
                    time.sleep(0.002)
            with socket.create_connection(tcp, timeout=10):
                pass
            startup = time.perf_counter() - t0
        except BaseException:
            _terminate(proc)
            raise
        return cls(proc, tcp, http, startup)

    def scrape(self, path: str = "/metrics") -> str:
        host, port = self.http
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=30) as resp:
            return resp.read().decode("utf-8")

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.proc.pid)

    def stop(self) -> int:
        return _terminate(self.proc)


def _terminate(proc: subprocess.Popen, grace: float = 30.0) -> int:
    """SIGTERM (graceful drain), then SIGKILL after ``grace`` seconds; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def parse_prometheus(text: str) -> Dict[str, float]:
    """Flatten a text exposition into ``{series: value}`` (labels kept in the key)."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out
