"""What the benchmark scripts share: running a checkout, git revision and machine."""

import json
import os
import platform
import subprocess
import sys

import numpy as np


def tree_env(tree):
    """The environment with the checkout at ``tree``'s ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(script, tree, mode):
    """The JSON that ``script --worker mode`` prints when run against the checkout at ``tree``."""
    out = subprocess.run([sys.executable, str(script), "--worker", mode], cwd=tree,
                         env=tree_env(tree), check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def git_rev(tree):
    """``git describe`` of the checkout at ``tree`` (``-dirty`` when edited), or None."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=tree, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            return next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        return platform.processor() or None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }
