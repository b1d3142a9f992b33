"""The environment stamp carried by every result: code, interpreter, machine, inputs."""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

__all__ = ["environment"]


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def _git_state(root: Path) -> tuple[str | None, bool | None]:
    """(sha, dirty) of ``root``'s own git checkout; ``(None, None)`` outside one."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != root.resolve():
        return None, None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return (sha.strip() if sha else None), (bool(status.strip()) if status is not None else None)


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, workload, seed: int) -> dict:
    """What produced a result: git state, versions, CPU, workload, scale, seed."""
    sha, dirty = _git_state(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "scales": sorted({row.scale for row in workload.rows}),
        "seed": seed,
    }
