"""The environment stamp every result carries, so rows from different
machines or configurations are never compared by mistake.

Run as a script it prints the stamp as JSON (the serve workload uses this
to stamp a run without loading the program into the client process).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(root: str) -> str:
    """sha256 over the program's sources; identifies the code in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def stamp(root: str = ".") -> dict:
    import numpy
    import scipy

    from repro.api.config import resolve_knobs
    from repro.kernels import numba_available

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_available(),
        "knobs": resolve_knobs().as_dict(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    print(json.dumps(stamp()))
