"""What the benchmark reads from outside the program: ``/proc``,
``/dev/shm``, the environment, versions."""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: Set in the environment, these change what is measured; a run refuses
#: them unless ``--allow-env``.
REFUSED_ENV = ("REPRO_BENCH_SMOKE", "REPRO_BATCH_CROSSOVER", "REPRO_NO_NUMBA")

_TICK = os.sysconf("SC_CLK_TCK")

#: The benchmark process (generator, oracle, in-process caller) pins
#: itself to the first CPU it may use; processes the program spawns
#: (``repro serve``, pool workers) get the rest, or share it when there
#: is one.  The generator's polling never takes cycles from a server,
#: and where a worker runs relative to its parent is the same every run.
_CPUS = sorted(os.sched_getaffinity(0))
BENCHMARK_CPUS, PROGRAM_CPUS = _CPUS[:1], _CPUS[1:] or _CPUS


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """``utime + stime`` of a live process, in seconds."""
    with open(f"/proc/{pid}/stat") as stat:
        # The command name may hold spaces; fields restart after ')'.
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def shm_listing() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants: one orphaned by
    a child is re-parented here, not to init, so ``stop_children`` sees
    and waits for it too."""
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children only
        pass


def _child_pids() -> list[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # gone meanwhile
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Wait until every process this one started has ended; returns the
    pids that had to be killed to get there (none on a clean run).

    ``multiprocessing``'s resource tracker (started with the first
    shared-memory segment) otherwise outlives its parent: it only leaves
    once the parent's end of its pipe is closed.
    """
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the pipe and waits for the tracker
    killed: list[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                killed.append(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def repro_env() -> dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def refused_env() -> list[str]:
    return [name for name in REFUSED_ENV if os.environ.get(name)]


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ("git", *args), cwd=REPO, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _importable(module: str) -> bool:
    try:
        __import__(module)
    except ImportError:
        return False
    return True


def provenance(seed: int, op_counts: dict) -> dict:
    import numpy

    from repro.core.slab_tree import kernel_backend

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "kernel_backend": kernel_backend(),
        "numba": _importable("numba"),
        "msgpack": _importable("msgpack"),
        "seed": seed,
        "op_counts": op_counts,
        "env": repro_env(),
        "argv": sys.argv[1:],
    }
