"""Lazy package exports: scalar commands run without numpy, every export resolves.

The scalar path also leaves ``dataclasses`` (and the ``inspect`` it imports)
unloaded: its records are named tuples. ``serialize``, which the CLI's
numpy-bound commands import, builds its formatter tables from ints and numpy
and loads neither ``fractions`` nor ``decimal``; it shares its block loops
among threads with ``threading`` alone, loads no ``concurrent.futures`` and
starts no thread on import.

Checks that depend on what has been imported run in a fresh interpreter,
since this test process has long loaded numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantordim
from cantordim import core, geometry

SRC = str(Path(cantordim.__file__).resolve().parent.parent)

NUMPY_LOADED = "\nimport sys\nprint('numpy' in sys.modules)\n"


def fresh(code: str) -> str:
    """Last line printed by ``code`` in a new interpreter importing this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def numpy_loaded_after(code: str) -> bool:
    return fresh(code + NUMPY_LOADED) == "True"


DATACLASSES_LOADED = "\nimport sys\nprint('dataclasses' in sys.modules or 'inspect' in sys.modules)\n"


def dataclasses_loaded_after(code: str) -> bool:
    return fresh(code + DATACLASSES_LOADED) == "True"


SCALAR_COMMANDS = [
    ["dim", "--n", "3", "--gamma", "0.1"],
    ["scale", "--n", "2", "--d", "0.5"],
    *(["op", op, "--da", "0.2", "--db", "0.5", "--n", "2"] for op in ("add", "sub", "mul", "div")),
    ["pow", "--da", "0.5", "--k", "3", "--n", "2"],
    ["ddgamma", "--n", "2", "--gamma", "0.25"],
    ["bounds", "--n", "5", "--gamma", "0.1"],
]


def test_import_cantordim_leaves_numpy_unloaded():
    assert not numpy_loaded_after("import cantordim")
    assert not dataclasses_loaded_after("import cantordim")


def test_import_cli_leaves_numpy_unloaded():
    assert not numpy_loaded_after("import cantordim.cli")
    assert not dataclasses_loaded_after("import cantordim.cli")


@pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=lambda a: "-".join(a[:2]) if a[0] == "op" else a[0])
def test_scalar_command_leaves_numpy_unloaded(argv):
    assert not numpy_loaded_after(f"from cantordim.cli import main\nassert main({argv!r}) == 0")
    assert not dataclasses_loaded_after(f"from cantordim.cli import main\nassert main({argv!r}) == 0")


def test_refused_scalar_command_leaves_numpy_unloaded():
    argv = ["op", "sub", "--da", "0.4", "--db", "0.5", "--n", "2"]
    assert not numpy_loaded_after(f"from cantordim.cli import main\nassert main({argv!r}) == 1")
    assert not dataclasses_loaded_after(f"from cantordim.cli import main\nassert main({argv!r}) == 1")


def test_numpy_bound_command_loads_numpy():
    # the probe itself can see numpy
    argv = ["grid", "--op", "add", "--res", "2", "--n", "2"]
    assert numpy_loaded_after(f"from cantordim.cli import main\nassert main({argv!r}) == 0")


@pytest.mark.parametrize("fmt, loaded", [("json", "False"), ("svg", "True")])
def test_construct_loads_render_for_svg_only(fmt, loaded, tmp_path):
    argv = ["construct", "--n", "2", "--gamma", "0.3", "--stage", "2", "--format", fmt,
            "--out", str(tmp_path / f"set.{fmt}")]
    code = (f"import sys\nfrom cantordim.cli import main\nassert main({argv!r}) == 0\n"
            "print('cantordim.render' in sys.modules)\n")
    assert fresh(code) == loaded


def test_import_serialize_leaves_fractions_and_decimal_unloaded():
    code = "import sys\nimport cantordim.serialize\nprint('fractions' in sys.modules, 'decimal' in sys.modules)\n"
    assert fresh(code) == "False False"


def test_import_serialize_leaves_concurrent_futures_unloaded_and_starts_no_thread():
    # the block loops use threading, which numpy loads; concurrent.futures would cost ms
    code = (
        "import sys, threading\nimport cantordim.serialize\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    assert fresh(code) == "False 1"


def test_every_export_resolves_on_first_access():
    code = (
        "import cantordim\n"
        "listed = set(dir(cantordim))\n"
        "for name in cantordim.__all__:\n"
        "    getattr(cantordim, name)\n"
        "    assert name in listed, name\n"
        "assert cantordim.BACKEND in cantordim.available_backends()\n"
        "print('ok')\n"
    )
    assert fresh(code) == "ok"


def test_star_import_binds_every_export():
    code = (
        "import cantordim\n"
        "ns = {}\n"
        "exec('from cantordim import *', ns)\n"
        "assert [n for n in cantordim.__all__ if n not in ns] == []\n"
        "print('ok')\n"
    )
    assert fresh(code) == "ok"


def test_exports_are_the_submodule_objects():
    assert cantordim.add is cantordim.arith.add
    assert cantordim.box_count is cantordim.estimation.box_count
    assert cantordim.BACKEND == cantordim._kernels_py.BACKEND
    assert "add" in vars(cantordim)  # cached after the first access
    assert set(cantordim.__all__) <= set(dir(cantordim))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cantordim.no_such_name
    assert not hasattr(cantordim, "arith_add")
    with pytest.raises(ImportError):
        exec("from cantordim import no_such_name", {})


def test_geometry_reexports_the_core_bounds():
    assert geometry.lacunarity_bounds is core.lacunarity_bounds
    assert geometry.LacunarityBounds is core.LacunarityBounds
    assert cantordim.lacunarity_bounds is core.lacunarity_bounds
