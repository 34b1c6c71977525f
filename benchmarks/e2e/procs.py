"""Program processes: spawn ``python -m repro ...``, wait for its banner,
SIGTERM and reap it, and report what it cost.

Every program process runs in its own process group so that nothing it
spawned (the service's worker pool) can outlive it unnoticed: after the
reap, a group that still has members is a *survivor* and fails the run,
as does a non-zero exit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


class ProgramError(RuntimeError):
    """A program process misbehaved (no banner, non-zero exit, survivor)."""


def program_env() -> dict[str, str]:
    """The environment program processes run in: ``src`` importable and
    observability left at the program's own default."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def _live_members(pgid: int) -> list[int]:
    """Pids in process group ``pgid`` that are still running.

    Zombies do not count: a container without an init that reaps leaves
    the reparented (already exited) multiprocessing resource tracker
    defunct, and a signal-0 probe of the group cannot tell the two apart.
    """
    deadline = time.monotonic() + 2.0
    while True:
        alive = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path("/proc", entry, "stat").read_text(encoding="utf-8")
            except OSError:
                continue  # exited while we were listing
            state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
            if int(pgrp) == pgid and state != "Z":
                alive.append(int(entry))
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.01)


class Program:
    """One ``python -m repro <args>`` subprocess."""

    def __init__(self, args: list[str], log_path: Path) -> None:
        self.args = args
        self.log_path = log_path
        self.returncode: int | None = None
        self.maxrss_mb = 0.0
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=program_env(),
                start_new_session=True,
            )

    def wait_banner(self, banner: str, timeout: float = 60.0) -> str:
        """Block until a log line contains ``banner``; return what follows it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8")
            for line in text.splitlines():
                if banner in line:
                    return line.split(banner, 1)[1].strip()
            if self.proc.poll() is not None:
                self.returncode = self.proc.returncode
                raise ProgramError(
                    f"repro {' '.join(self.args)} exited {self.proc.returncode}: {text}"
                )
            time.sleep(0.005)
        raise ProgramError(f"no {banner!r} banner from repro {' '.join(self.args)}")

    def _reap(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                self.returncode = os.waitstatus_to_exitcode(status)
                # wait4 reports the child together with the descendants
                # it reaped, so this is the largest program process.
                self.maxrss_mb = usage.ru_maxrss / 1024.0
                self.proc.returncode = self.returncode
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, reap, and verify a clean exit with no survivors."""
        if self.returncode is not None:
            return
        pgid = self.proc.pid
        self.proc.send_signal(signal.SIGTERM)
        clean = self._reap(timeout)
        if not clean:
            os.killpg(pgid, signal.SIGKILL)
            self._reap(10.0)
        survivors = _live_members(pgid)
        if survivors:
            os.killpg(pgid, signal.SIGKILL)
        name = f"repro {' '.join(self.args)}"
        if not clean:
            raise ProgramError(f"{name} ignored SIGTERM for {timeout}s")
        if survivors:
            raise ProgramError(f"{name} left processes behind: {survivors}")
        if self.returncode != 0:
            log = self.log_path.read_text(encoding="utf-8")[-2000:]
            raise ProgramError(f"{name} exited {self.returncode}: {log}")


def stop_all(programs: list[Program]) -> None:
    """Stop every program, raising the first problem only after all ended."""
    errors: list[Exception] = []
    for program in programs:
        try:
            program.stop()
        except (ProgramError, OSError) as exc:
            errors.append(exc)
    if errors:
        raise errors[0]
