#!/usr/bin/env python3
"""Time interpreter start-up, package import and CLI commands; write BENCH_startup.json.

Every call of a case starts one fresh interpreter: a bare one, ``import
cantordim``, ``import cantordim.cli``, each scalar CLI command (``dim``,
``scale``, the four ``op`` operators, ``pow``, ``ddgamma``, ``bounds``) and
one numpy-bound command (``verify``). CLI cases run as ``python -m
cantordim.cli ...``. Each case also records, from one more run of the same
work in a ``-c`` probe, whether numpy and ``dataclasses`` were loaded; the
trees need not agree on that. The shared driver in ``_host.py`` runs each
case in its own worker processes, at its best of the row's ``calls``
(5 launches), and writes the paired timings (20 pairs by default) and the
report.

Usage: python benchmarks/bench_startup.py [--repeats N] [--baseline DIR]
Writes BENCH_startup.json at the root of the checkout and prints a summary.
"""

import subprocess
import sys

from _host import bench

SCALAR = [
    ["dim", "--n", "3", "--gamma", "0.1"],
    ["scale", "--n", "2", "--d", "0.5"],
    *(["op", op, "--da", "0.2", "--db", "0.5", "--n", "2"] for op in ("add", "sub", "mul", "div")),
    ["pow", "--da", "0.5", "--k", "3", "--n", "2"],
    ["ddgamma", "--n", "2", "--gamma", "0.25"],
    ["bounds", "--n", "5", "--gamma", "0.1"],
]
HEAVY = [["verify", "--op", "mul", "--da", "0.5", "--db", "0.5", "--n", "2", "--stage", "6"]]
CALLS = 5  # launches per worker of a case, best of them


def cases():
    """(name, kind, argv after the interpreter, code of the numpy probe)."""
    yield "bare interpreter", "bare", ["-c", "pass"], "pass"
    yield "import cantordim", "import", ["-c", "import cantordim"], "import cantordim"
    yield "import cantordim.cli", "import", ["-c", "import cantordim.cli"], "import cantordim.cli"
    for kind, commands in (("scalar", SCALAR), ("heavy", HEAVY)):
        for argv in commands:
            name = "cantordim " + " ".join(argv[:2] if argv[0] == "op" else argv[:1])
            probe = f"from cantordim.cli import main\nmain({argv!r})"
            yield name, kind, ["-m", "cantordim.cli", *argv], probe


WATCHED = ("numpy", "dataclasses")


def loaded(code) -> dict:
    """Module -> whether the work in ``code`` leaves it imported, for each WATCHED module."""
    probe = f"{code}\nimport sys\nprint(*[m in sys.modules for m in {WATCHED!r}])"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True)
    return dict(zip(WATCHED, (v == "True" for v in out.stdout.splitlines()[-1].split())))


CASES = {name: (argv, probe) for name, _, argv, probe in cases()}


def setup(name):
    """``(prepare, call, answer)`` for the driver: a call launches the case's interpreter."""
    argv, probe = CASES[name]
    return (None,
            lambda _: subprocess.run([sys.executable, *argv], check=True,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL),
            lambda _: loaded(probe))


def check(answers, faults):
    """The modules each tree's cases load, as row fields."""
    return {name: {f"{m}_loaded": {label: a[name][m] for label, a in answers.items()}
                   for m in WATCHED} for name in CASES}


if __name__ == "__main__":
    bench(__file__, __doc__, "startup",
          {name: {"kind": kind, "argv": ["python", *argv], "calls": CALLS}
           for name, kind, argv, _ in cases()},
          setup, check, repeats=20)
