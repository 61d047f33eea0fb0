"""Machine and source identity recorded in every result file."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess


def nproc():
    return len(os.sched_getaffinity(0))


def source_digest(root):
    """sha256 over ``src/`` and ``perf/`` python files: names the code
    that was measured even where there is no git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perf"):
        for folder, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs
                             if d not in ("__pycache__", "out"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    h.update(os.path.relpath(path, root).encode("utf-8"))
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def describe(root):
    """Facts about the machine and the code; no placeholder values —
    a fact that cannot be had (git sha outside a checkout) is left out."""
    import numpy
    meta = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "source_sha256": source_digest(root),
    }
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            meta["git_sha"] = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return meta


def load_average():
    return os.getloadavg()[0]
