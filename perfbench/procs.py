"""Process hygiene for child processes the benchmark starts.

A child runs in its own session, so it and everything it starts (pool
workers, the multiprocessing resource tracker) share one process
group whose id is the child's pid. :func:`stop` asks the child to
drain with SIGTERM, SIGKILLs the whole group after a bound, and then
checks through ``/proc`` that no member of the group is still alive;
a survivor is an error, never a warning.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Dict, List, Tuple


class LeftoverProcess(RuntimeError):
    """A process the benchmark started is still alive after teardown."""


def _stat(pid: int) -> Tuple[str, int, int, int]:
    """``(state, ppid, pgrp, session)`` of ``pid`` from /proc."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("ascii", "replace")
    # The command name may contain spaces and parentheses; the fields
    # after the last ")" are fixed.
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[2]), int(fields[3])


def _living() -> List[Tuple[int, str, int, int, int]]:
    processes = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            state, ppid, pgrp, session = _stat(int(entry))
        except (OSError, ValueError):
            continue  # exited while we looked
        if state in ("Z", "X"):
            continue  # a zombie runs nothing; its parent reaps it
        processes.append((int(entry), state, ppid, pgrp, session))
    return processes


def group_members(pgid: int) -> List[int]:
    """Living processes in process group or session ``pgid``."""
    return sorted(
        pid
        for pid, _, _, pgrp, session in _living()
        if pgrp == pgid or session == pgid
    )


def children_of(pid: int) -> List[int]:
    """Living direct children of ``pid``."""
    return sorted(child for child, _, ppid, _, _ in _living() if ppid == pid)


def check_group_gone(pgid: int, what: str) -> None:
    survivors = group_members(pgid)
    if survivors:
        raise LeftoverProcess(
            f"{what}: processes {survivors} of group {pgid} are still "
            f"alive after teardown"
        )


def start(argv: List[str], env: Dict[str, str], log_path: str,
          cwd: str) -> subprocess.Popen:
    """Start ``argv`` as the leader of a new session, its output
    written to ``log_path``."""
    with open(log_path, "wb") as log:
        return subprocess.Popen(
            argv,
            env=env,
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )


def _wait_group(pgid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while group_members(pgid):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


def stop(process: subprocess.Popen, drain_seconds: float = 20.0,
         kill_seconds: float = 5.0) -> Dict[str, object]:
    """SIGTERM ``process`` (a graceful drain), SIGKILL its process
    group if the group has not emptied within ``drain_seconds``, and
    raise :class:`LeftoverProcess` if anything survives that. Returns
    ``{"graceful": bool, "exit_code": int}``."""
    pgid = process.pid
    graceful = True
    if process.poll() is None:
        try:
            process.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
    try:
        process.wait(timeout=drain_seconds)
    except subprocess.TimeoutExpired:
        graceful = False
    if graceful and not _wait_group(pgid, timeout=min(drain_seconds, 5.0)):
        graceful = False
    if not graceful:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            process.wait(timeout=kill_seconds)
        except subprocess.TimeoutExpired:
            pass
        _wait_group(pgid, timeout=kill_seconds)
    check_group_gone(pgid, f"child {process.args[:2]}")
    return {"graceful": graceful, "exit_code": process.returncode}
