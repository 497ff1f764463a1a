"""The block loops of export, the grid CSV and import, shared out among threads.

``serialize._in_shares`` gives each usable CPU a contiguous share of the
blocks. With ``os.sched_getaffinity`` reporting more CPUs than the host may
have and the interpreter switching threads every microsecond, the bytes and
arrays must equal the per-value references in ``reference_text.py``. An
exception raised in a worker's share reaches the caller unchanged, a bad
field in the last share declines to the per-document path with its error,
and every thread is joined either way. A single-block input, or a single
usable CPU, starts no thread. A str document is read without an encoded copy
of the whole of it.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import reference_text as ref

from cantordim import (
    CantorParams,
    IntervalSet,
    ParseError,
    construct_prefractal,
    emit_operator_grid,
    export_intervals,
    import_intervals,
    lacunarity_bounds,
)
from cantordim import serialize
from cantordim.serialize import _BLOCK

#: seconds a stressed run may take on a loaded host
TIMEOUT = 300


def usable_cpus(monkeypatch, k):
    """Have ``os.sched_getaffinity`` report k usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def paramless(m, seed=0):
    x = np.sort(np.random.default_rng(seed).random(2 * m))
    return IntervalSet(x[0::2], x[1::2])


def bits(s):
    return s.starts.tobytes(), s.ends.tobytes(), s.params


def threads_started(monkeypatch):
    """A list that gets one entry per thread started from here on."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def no_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)


def run_bounded(body):
    """``body()`` on a thread of its own that must finish within TIMEOUT; its exception is raised here."""
    errors = []

    def target():
        try:
            body()
        except BaseException as exc:  # re-raised below, on the test's thread
            errors.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(TIMEOUT)
    assert not runner.is_alive(), f"not done in {TIMEOUT} s"
    if errors:
        raise errors[0]


def test_more_workers_than_cores_switching_every_microsecond(monkeypatch):
    s = construct_prefractal(CantorParams(5, 0.1, 0.125, 7))  # 78,125 rows: 5 export blocks
    sheet, _ = emit_operator_grid("sub", 300, 2)  # 6 blocks of 54 grid rows
    want = {"json": ref.export_json(s), "csv": ref.export_csv(s)}
    want_back = {"json": bits(s), "csv": bits(ref.import_csv(want["csv"]))}
    want_grid = ref.grid_csv(sheet)
    usable_cpus(monkeypatch, 4)
    runs = []

    def body():
        started = threads_started(monkeypatch)
        for _ in range(2):
            for fmt in ("json", "csv"):
                assert export_intervals(s, fmt) == want[fmt]
                assert len(started) == 3, "four shares of five blocks"
                started.clear()
                for doc in (want[fmt], want[fmt].encode()):
                    assert bits(import_intervals(doc, fmt)) == want_back[fmt]
                    assert len(started) == 3, "four shares of the spans"
                    started.clear()
            assert serialize.format_grid(sheet.centers, sheet.values) == want_grid
            assert len(started) == 3, "four shares of 300 grid rows"
            started.clear()
            runs.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_bounded(body)
    finally:
        sys.setswitchinterval(interval)
    assert runs == [True, True]


def raising_off_the_caller(fn, caller):
    def wrapped(*args):
        if threading.get_ident() != caller:
            raise ValueError("a share failed on a worker thread")
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("case", ["export_json", "export_csv", "grid", "import_json", "import_csv"])
def test_an_exception_in_a_worker_share_reaches_the_caller(monkeypatch, case):
    s = paramless(3 * _BLOCK)
    docs = {fmt: export_intervals(s, fmt) for fmt in ("json", "csv")}
    usable_cpus(monkeypatch, 2)
    caller = threading.get_ident()
    kernel = "_read_block" if case.startswith("import") else "put_f17"
    monkeypatch.setattr(serialize, kernel, raising_off_the_caller(getattr(serialize, kernel), caller))
    calls = {
        "export_json": lambda: export_intervals(s, "json"),
        "export_csv": lambda: export_intervals(s, "csv"),
        "grid": lambda: emit_operator_grid("add", 300, 2),
        "import_json": lambda: import_intervals(docs["json"], "json"),
        "import_csv": lambda: import_intervals(docs["csv"], "csv"),
    }
    before = threading.active_count()
    with pytest.raises(ValueError) as raised:
        calls[case]()
    assert type(raised.value) is ValueError
    assert str(raised.value) == "a share failed on a worker thread"
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("scan", [64, 333])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_bad_field_in_the_last_share_declines_with_the_present_error(
    monkeypatch, fmt, scan, cpus
):
    # import shares the rows' bytes out as _in_shares does, and each share cuts its run
    # into spans of at most about scan bytes: the arrays are those of one CPU, each
    # share but the first gets a thread, and a bad field in the last span of the last
    # share declines to the per-document path with its error
    text = export_intervals(paramless(300), fmt)
    at = text.rindex("]\n  ]") if fmt == "json" else len(text) - 1  # where the last b ends
    broken = text[:at] + "x" + text[at:]
    layout = serialize._LAYOUTS[fmt]
    monkeypatch.setattr(serialize, "_SCAN", scan)
    monkeypatch.setattr(serialize, "_cpus", lambda: 1)
    want = bits(serialize._read_exported(text, layout))
    shares = []

    def in_shares(work, n, block):
        shares.append(in_shares.__wrapped__(work, n, block))
        return shares[-1]

    def read_span(data, lo, hi, *args):
        spans.append(hi - lo)
        return read_span.__wrapped__(data, lo, hi, *args)

    in_shares.__wrapped__ = serialize._in_shares
    read_span.__wrapped__ = serialize._read_span
    monkeypatch.setattr(serialize, "_in_shares", in_shares)
    monkeypatch.setattr(serialize, "_read_span", read_span)
    monkeypatch.setattr(serialize, "_cpus", lambda: cpus)
    row = max(map(len, text.splitlines(keepends=True)))
    before = threading.active_count()
    started = threads_started(monkeypatch)
    for doc in (text, text.encode()):
        spans = []
        assert bits(serialize._read_exported(doc, layout)) == want
        assert len(shares) == 1 and len(shares[0]) == cpus
        assert len(started) == cpus - 1
        assert max(spans) <= scan + row  # each cut moves on to the next row start
        shares.clear()
        started.clear()
    for doc in (broken, broken.encode()):
        assert serialize._read_exported(doc, layout) is None
        with pytest.raises(ParseError) as want_error:
            (serialize._parse_json if fmt == "json" else ref.import_csv)(broken)
        with pytest.raises(ParseError) as got:
            import_intervals(doc, fmt)
        assert str(got.value) == str(want_error.value)
        assert "line" in str(got.value)
    assert threading.active_count() == before


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_single_block_starts_no_thread(monkeypatch, fmt):
    usable_cpus(monkeypatch, 4)
    s, small = paramless(_BLOCK), paramless(_BLOCK // 4)  # one export block; one import block
    doc = export_intervals(small, fmt)
    assert len(doc) <= serialize._SCAN  # one scan chunk
    no_threads(monkeypatch)
    assert export_intervals(s, fmt) == (ref.export_json if fmt == "json" else ref.export_csv)(s)
    assert bits(import_intervals(doc, fmt)) == bits(small)
    sheet, text = emit_operator_grid("div", 128, 2)  # 128 x 128 cells: one block
    assert text == ref.grid_csv(sheet)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_one_usable_cpu_starts_no_thread(monkeypatch, fmt):
    usable_cpus(monkeypatch, 1)
    s = paramless(3 * _BLOCK)
    no_threads(monkeypatch)
    doc = export_intervals(s, fmt)
    assert doc == (ref.export_json if fmt == "json" else ref.export_csv)(s)
    assert bits(import_intervals(doc, fmt)) == bits(s)
    sheet, text = emit_operator_grid("sub", 300, 2)
    assert text == ref.grid_csv(sheet)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_str_document_is_read_without_a_whole_encoded_copy(monkeypatch, fmt):
    eps = lacunarity_bounds(10, 0.06).eps_reg
    s = construct_prefractal(CantorParams(10, 0.06, eps, 5))  # 1e5 intervals, a 4-5 MB document
    text = export_intervals(s, fmt)
    raw = text.encode()
    assert bits(import_intervals(text, fmt)) == bits(import_intervals(raw, fmt))
    assert bits(import_intervals(text, fmt)) == (bits(s) if fmt == "json" else bits(s)[:2] + (None,))
    usable_cpus(monkeypatch, 1)  # one share: the peaks do not hang on how threads interleave
    peaks = {}
    for doc in (text, raw):
        tracemalloc.start()
        try:
            import_intervals(doc, fmt)
            peaks[type(doc)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # an encoded copy of the whole document would add len(text) to the str peak
    assert peaks[str] - peaks[bytes] < len(text) / 2
