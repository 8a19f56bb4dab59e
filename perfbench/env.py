"""Pinned environment and provenance.

The ``REPRO_*`` switches below change what the library does (fault
injection, tracing, worker processes, kernel route, plan cache).  The
benchmark strips them from its own process and every child, so an ambient
CI setting cannot change its results.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any, Dict

__all__ = ["STRIPPED_VARS", "ROOT", "pinned_env", "strip_environ", "nproc", "provenance"]

STRIPPED_VARS = (
    "REPRO_FAULTS",
    "REPRO_TRACE",
    "REPRO_WORKERS",
    "REPRO_SCALAR_KERNELS",
    "REPRO_PLAN_CACHE",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pinned_env() -> Dict[str, str]:
    """The environment for child processes: stripped, with ``src`` and the
    repository root on ``PYTHONPATH`` and string hashing fixed."""
    env = {name: value for name, value in os.environ.items() if name not in STRIPPED_VARS}
    env["PYTHONPATH"] = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
    env["PYTHONHASHSEED"] = "0"
    return env


def strip_environ() -> None:
    """Remove the stripped switches from this process (before importing
    ``repro``, which reads them at first import)."""
    for name in STRIPPED_VARS:
        os.environ.pop(name, None)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def provenance() -> Dict[str, Any]:
    return {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "stripped_env": list(STRIPPED_VARS),
    }
