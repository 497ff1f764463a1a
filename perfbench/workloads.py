"""Seeded inputs, operation lists and output checks of the three workloads.

A workload turns a seed into a fixed list of operations. ``run_pass`` runs
that list once and records one latency and one output per operation.
``check`` checks every output of a pass in full; later passes are checked
by fingerprint equality with the fully checked one. The library receives
only the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter_ns

import numpy as np

import cantordim
from cantordim import arith, core, estimation, geometry, render, serialize
from cantordim.errors import CantorDimError, OpDomainError

OPS = ("add", "sub", "mul", "div")
ARITIES = (2, 3, 4, 5)

# Verification tiers: sets of about 1e3-4e3 (small), 1e4-2e4 (medium) and
# 3e4-8e4 (large) intervals. The work of a verification (n**S intervals
# times 16*(S-1)+1 box sizes) depends on (n, S) only, so a pass does the same
# work for every seed.
SMALL_STAGE = {2: 10, 3: 7, 4: 6, 5: 5}
MEDIUM_STAGE = {2: 13, 3: 9, 4: 7, 5: 6}
LARGE_STAGE = {2: 15, 3: 10, 4: 8, 5: 7}
# 128 small verifications: their mean relative error varies by about 5%
# between seeds, their maximum by about 13%
SMALL_DRAWS = 8

# tolerance of the natural-ladder estimate in `documents` (observed <= 0.016)
DOC_EST_TOL = 0.05

CLI_CONSTRUCT_STAGE = {2: 11, 3: 7, 4: 6, 5: 5}
CLI_GRID_RES = 48


@dataclass(frozen=True)
class Raised:
    """An exception an operation raised in place of an output."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class Recorder:
    """Runs operations one at a time, keeping each latency and output."""

    def __init__(self):
        self.latencies_ns = []
        self.outputs = []

    def __call__(self, fn):
        t0 = perf_counter_ns()
        try:
            out = fn()
        except Exception as exc:  # any exception is an output the checks report
            out = Raised(type(exc).__name__, str(exc))
        self.latencies_ns.append(perf_counter_ns() - t0)
        self.outputs.append(out)
        return out


def fingerprint(obj) -> bytes:
    """Digest of an operation output; equal outputs give equal digests."""
    h = hashlib.blake2b(digest_size=16)

    def feed(o):
        if isinstance(o, str):
            h.update(o.encode())
        elif isinstance(o, bytes):
            h.update(o)
        elif isinstance(o, np.ndarray):
            h.update(o.tobytes())
        elif isinstance(o, geometry.IntervalSet):
            feed((o.starts, o.ends, repr(o.params)))
        elif isinstance(o, render.GridSheet):
            feed((o.op, o.resolution, o.centers, o.values))
        elif isinstance(o, tuple):
            for item in o:
                feed(item)
                h.update(b"\x00")
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.digest()


def _digest(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def _same_bits(a, b) -> bool:
    return (
        a.starts.view(np.uint64).tobytes() == b.starts.view(np.uint64).tobytes()
        and a.ends.view(np.uint64).tobytes() == b.ends.view(np.uint64).tobytes()
    )


def _f17(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class Verification:
    op: str
    d_a: float
    d_b: float
    n: int
    stage: int

    def __str__(self) -> str:
        return (
            f"verify_operator_geometrically({self.op!r}, {self.d_a!r}, {self.d_b!r}, "
            f"n={self.n}, stage={self.stage})"
        )


def _draw_operands(rng, op):
    """Operands with D_C in about [0.42, 0.95], away from every domain edge.

    Above D_C = 0.38 the result is constructible at every tier stage:
    gamma_C**S stays above the library's 1e-13 resolution floor.
    """
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if op == "add":
        return u(0.85, 1.0), u(0.85, 1.0)
    if op == "sub":
        d_b, target = u(0.5, 1.0), u(0.45, 0.9)
        return 1.0 / (1.0 / target + 1.0 / d_b), d_b
    if op == "mul":
        return u(0.66, 0.97), u(0.66, 0.97)
    d_b = u(0.3, 1.0)
    return u(0.45, 0.95) * d_b, d_b


def accuracy_batch(seed: int, tiny: bool = False) -> list[Verification]:
    """The small verification tier; every workload reports its accuracy."""
    rng = np.random.default_rng([seed, 1])
    draws = 1 if tiny else SMALL_DRAWS
    return [
        Verification(op, *_draw_operands(rng, op), n, SMALL_STAGE[n])
        for n in ARITIES
        for op in OPS
        for _ in range(draws)
    ]


def verify_one(case: Verification):
    report = estimation.verify_operator_geometrically(
        case.op, case.d_a, case.d_b, case.n, case.stage
    )
    return report, arith.check_gamma_consistency(case.op, case.d_a, case.d_b, case.n)


def check_verification(out) -> str | None:
    if isinstance(out, Raised):
        return f"raised {out}"
    report, gap = out
    if report.status != "pass":
        return f"status {report.status}: {report}"
    if not gap <= cantordim.ABS_TOL:
        return f"D-route and gamma-route differ by {gap!r}"
    return None


def relative_errors(outputs) -> list[float]:
    return [
        out[0].abs_error / out[0].d_c
        for out in outputs
        if not isinstance(out, Raised) and out[0].status == "pass"
    ]


class VerifyWorkload:
    """Batches of verify_operator_geometrically over all operators, arities 2-5."""

    name = "verify"
    # the four large verifications of a pass cost about the same, so three
    # passes put at least ten samples beyond op_tail_ms
    min_passes = 3

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.cases = accuracy_batch(seed, tiny)
        if not tiny:
            rng = np.random.default_rng([seed, 2])
            self.cases += [
                Verification(op, *_draw_operands(rng, op), n, MEDIUM_STAGE[n])
                for n in ARITIES
                for op in OPS
            ]
            large_ops = [str(op) for op in rng.permutation(OPS)]
            self.cases += [
                Verification(op, *_draw_operands(rng, op), n, LARGE_STAGE[n])
                for n, op in zip(ARITIES, large_ops)
            ]
        self.input_digest = _digest(self.cases)

    def describe(self, i: int) -> str:
        return str(self.cases[i])

    def run_pass(self, tracer=None) -> Recorder:
        rec = Recorder()
        for case in self.cases:
            rec(lambda: verify_one(case))
        return rec

    def check(self, outputs) -> list[str | None]:
        return [check_verification(out) for out in outputs]

    def kernel_parity(self) -> list[str | None]:
        """Compare every importable kernel with the python one on these inputs.

        One verdict per case; empty when only the python kernel imports.
        """
        kernels = cantordim.available_backends()
        if len(kernels) < 2:
            return []
        ref = kernels["python"]
        verdicts = []
        for case in self.cases:
            gamma = arith.OPERATORS[case.op](case.d_a, case.d_b, case.n).gamma
            eps = geometry.regular_epsilon(case.n, gamma)
            params = geometry.CantorParams(case.n, gamma, eps, case.stage)
            offsets = np.asarray(geometry.stage_one_offsets(case.n, gamma, eps))
            s = geometry.construct_prefractal(params)
            ladder = estimation.scale_ladder(gamma, case.stage, per_level=16, start_level=2)
            want_starts = ref.prefractal_starts(offsets, gamma, case.stage).tobytes()
            want = [ref.box_count(s.starts, s.ends, d, estimation.SNAP_ETA) for d in ladder]
            differ = []
            for name, kern in kernels.items():
                if kern is ref:
                    continue
                starts = np.asarray(kern.prefractal_starts(offsets, gamma, case.stage))
                if starts.tobytes() != want_starts:
                    differ.append(f"{name} interval starts")
                if [kern.box_count(s.starts, s.ends, d, estimation.SNAP_ETA)
                        for d in ladder] != want:
                    differ.append(f"{name} box counts")
            verdicts.append(f"differ from python: {', '.join(differ)}" if differ else None)
        return verdicts


# ---------------------------------------------------------------------------
# documents


@dataclass(frozen=True)
class DocumentCase:
    n: int
    gamma: float
    epsilon: float
    stage: int
    svg_stage: int
    grid_res: int
    grid_cells: tuple  # per operator: ((i, j), ...) cells checked against arith


DOC_LABELS = (
    "construct", "export_json", "export_csv", "import_json", "import_csv",
    "estimate", "render_svg", *(f"grid_{op}" for op in OPS),
)


class DocumentsWorkload:
    """One large set through JSON/CSV export and import, estimate, SVG and grids."""

    name = "documents"
    # every operation of a pass costs differently: op_tail_ms needs eleven
    # passes to lie inside the slowest operation's samples
    min_passes = 11

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        rng = np.random.default_rng([seed, 3])
        n = 7
        stage, svg_stage, res, samples = (3, 2, 8, 4) if tiny else (6, 4, 192, 32)
        gamma = n ** (-1.0 / float(rng.uniform(0.5, 0.9)))
        eps_max = (1.0 - n * gamma) / (n - 3)
        cells = tuple(
            tuple((int(i), int(j)) for i, j in rng.integers(0, res, size=(samples, 2)))
            for _ in OPS
        )
        self.case = DocumentCase(
            n, gamma, float(rng.uniform(0.0, 1.0)) * eps_max, stage, svg_stage, res, cells
        )
        self.input_digest = _digest(self.case)

    def describe(self, i: int) -> str:
        c = self.case
        return (
            f"{DOC_LABELS[i]} of n={c.n} gamma={c.gamma!r} epsilon={c.epsilon!r} "
            f"stage={c.stage} (svg stage {c.svg_stage}, grid res {c.grid_res})"
        )

    def _params(self, stage):
        c = self.case
        return geometry.CantorParams(c.n, c.gamma, c.epsilon, stage)

    def run_pass(self, tracer=None) -> Recorder:
        c = self.case
        rec = Recorder()
        x = rec(lambda: geometry.construct_prefractal(self._params(c.stage)))
        text_json = rec(lambda: serialize.export_intervals(x, "json"))
        text_csv = rec(lambda: serialize.export_intervals(x, "csv"))
        rec(lambda: serialize.import_intervals(text_json, "json"))
        rec(lambda: serialize.import_intervals(text_csv, "csv"))
        rec(lambda: estimation.estimate_dimension(x))
        rec(lambda: render.render_stages_svg(self._params(0), c.svg_stage))
        for op in OPS:
            rec(lambda: render.emit_operator_grid(op, c.grid_res, c.n))
        return rec

    def check(self, outputs) -> list[str | None]:
        c = self.case
        x, text_json, text_csv, from_json, from_csv, est, svg, *grids = outputs
        verdicts = [f"raised {o}" if isinstance(o, Raised) else None for o in outputs]
        if verdicts[0] is None and len(x) != c.n**c.stage:
            verdicts[0] = f"{len(x)} intervals, want {c.n ** c.stage}"
        for k, (fmt, text, back) in enumerate(
            (("json", text_json, from_json), ("csv", text_csv, from_csv))
        ):
            i_export, i_import = 1 + k, 3 + k
            if verdicts[0] or verdicts[i_export] or verdicts[i_import]:
                continue
            want_params = x.params if fmt == "json" else None
            if not _same_bits(x, back) or back.params != want_params:
                verdicts[i_import] = f"import(export(x)) is not bit-identical to x ({fmt})"
            elif serialize.export_intervals(back, fmt) != text:
                verdicts[i_export] = f"exporting the imported set gives other bytes ({fmt})"
        if verdicts[5] is None:
            d = core.dimension_from_scale(c.n, c.gamma)
            if len(est.samples) != c.stage or not abs(est.d_hat - d) <= DOC_EST_TOL * d:
                verdicts[5] = f"d_hat={est.d_hat!r} for D={d!r} over {len(est.samples)} sizes"
        if verdicts[6] is None and render.render_stages_svg(self._params(0), c.svg_stage) != svg:
            verdicts[6] = "a second render gives other bytes"
        for k, (op, out) in enumerate(zip(OPS, grids)):
            if verdicts[7 + k] is None:
                verdicts[7 + k] = check_grid(op, c.n, c.grid_res, out, c.grid_cells[k])
        return verdicts


def check_grid(op, n, res, out, cells) -> str | None:
    """Sampled cells must equal the scalar operator, NaN where it refuses."""
    sheet, text = out
    lines = text.split("\n")
    if sheet.values.shape != (res, res) or len(lines) != res * res + 2:
        return f"grid has shape {sheet.values.shape} and {len(lines)} lines"
    for i, j in cells:
        a, b = float(sheet.centers[i]), float(sheet.centers[j])
        if a != (i + 0.5) / res or b != (j + 0.5) / res:
            return f"cell ({i}, {j}) is not centred at ({i}+0.5)/{res}"
        try:
            want = arith.OPERATORS[op](a, b, n).d
        except OpDomainError:
            want = None
        except CantorDimError as exc:
            return f"scalar {op}({a!r}, {b!r}, n={n}) raised {type(exc).__name__}: {exc}"
        got = float(sheet.values[i, j])
        if (want is None and not math.isnan(got)) or (want is not None and got != want):
            return f"cell {op}({a!r}, {b!r}) = {got!r}, scalar operator gives {want!r}"
        row = f"{_f17(a)},{_f17(b)},{'nan' if want is None else _f17(want)}"
        if lines[1 + i * res + j] != row:
            return f"CSV row {1 + i * res + j} is {lines[1 + i * res + j]!r}, want {row!r}"
    return None


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliCall:
    """One `python -m cantordim.cli` call and the output the library implies.

    ``text`` is compared exactly when set; otherwise the printed
    ``name = value`` pairs and the count of ``note:`` lines must equal
    ``pairs`` and ``notes``. ``files`` maps written paths to their bytes.
    ``defect`` is set when the library's own answer to this input is wrong;
    the call then fails however the CLI answers.
    """

    kind: str  # "scalar" | "heavy"
    args: tuple
    returncode: int
    text: str | None = None
    pairs: tuple = ()
    notes: int = 0
    files: tuple = ()
    defect: str | None = None

    def __str__(self) -> str:
        return "cantordim " + " ".join(self.args)


_PAIR = re.compile(r"([A-Za-z_/]+) ?= ?(\S+)")


def parse_values(text: str):
    pairs = tuple((m.group(1), float(m.group(2))) for m in _PAIR.finditer(text))
    return pairs, sum(line.startswith("note:") for line in text.splitlines())


def _same_pairs(got, want) -> bool:
    return len(got) == len(want) and all(
        gn == wn and (gv == wv or (math.isnan(gv) and math.isnan(wv)))
        for (gn, gv), (wn, wv) in zip(got, want)
    )


def check_cli_call(call: CliCall, returncode: int, output: str, files=()) -> str | None:
    """Exit code, printed values and written files must match a correct library answer."""
    if call.defect:
        return call.defect
    if returncode != call.returncode:
        return f"exit code {returncode}, want {call.returncode}; output {output!r}"
    if call.text is not None:
        if output != call.text:
            return f"printed {output!r}, want {call.text!r}"
    else:
        try:
            pairs, notes = parse_values(output)
        except ValueError:
            return f"unparsable output {output!r}"
        if not _same_pairs(pairs, call.pairs) or notes != call.notes:
            return f"printed {output!r}, want values {call.pairs!r} and {call.notes} notes"
    for (path, want), got in zip(call.files, files):
        if got != want:
            return f"{path} holds other bytes than the library writes"
    return None


def _expect(kind, args, fn, answer):
    """The CLI's answer per the library.

    ``answer(result)`` gives the CliCall fields of a result. An
    ``OpDomainError`` is a documented refusal: exit 1 with its message. Any
    other library error is a defect on this input.
    """
    try:
        result = fn()
    except OpDomainError as exc:
        return CliCall(kind, args, 1, text=f"error: {exc}\n")
    except CantorDimError as exc:
        return CliCall(kind, args, 1, text=f"error: {exc}\n",
                       defect=f"the library raised {type(exc).__name__}: {exc}")
    return CliCall(kind, args, **answer(result))


def _values(pairs, notes=0, defect=None):
    return {"returncode": 0, "pairs": tuple(pairs), "notes": int(notes), "defect": defect}


def _op_answer(*operands):
    """Answer of `op` and `pow`; a positive result must not come back as the void set."""

    def answer(r):
        defect = None
        if min(operands) > 0 and r.d == 0.0 and not r.underflow:
            defect = "D_C is 0 for positive operands and the result is not flagged as underflow"
        return _values([("D_C", r.d), ("gamma_C", r.gamma)], r.underflow, defect)

    return answer


def _verify_answer(report):
    return {"returncode": 1 if report.status == "fail" else 0, "text": f"{report}\n",
            "defect": None if report.status == "pass" else f"status {report.status}: {report}"}


def _cli_calls(seed: int, tiny: bool, workdir: Path) -> list[CliCall]:
    rng = np.random.default_rng([seed, 4])
    u = lambda lo=0.0, hi=1.0: float(rng.uniform(lo, hi))  # noqa: E731
    arity = lambda lo=2, hi=6: int(rng.integers(lo, hi + 1))  # noqa: E731
    r = repr
    digits = ("--digits", "17")
    calls = []

    n = arity()
    g = u(0.0, 1.0 / n)
    calls.append(_expect("scalar", ("dim", "--n", str(n), "--gamma", r(g), *digits),
                         lambda: core.dimension_from_scale(n, g),
                         lambda v: _values([("D", v)])))
    n, d = arity(), u()
    calls.append(_expect("scalar", ("scale", "--n", str(n), "--d", r(d), *digits),
                         lambda: core.scale_from_dimension(n, d),
                         lambda s: _values([("gamma", s.gamma)], s.underflow)))
    for op in OPS:
        n, da, db = arity(), u(), u()
        calls.append(_expect(
            "scalar", ("op", op, "--da", r(da), "--db", r(db), "--n", str(n), *digits),
            lambda: arith.OPERATORS[op](da, db, n), _op_answer(da, db)))
    n, da, k = arity(), u(), int(rng.integers(0, 6))
    calls.append(_expect(
        "scalar", ("pow", "--da", r(da), "--k", str(k), "--n", str(n), *digits),
        lambda: arith.int_pow(da, k, n), _op_answer(da)))
    n = arity()
    g = u(0.0, 1.0 / n)
    calls.append(_expect("scalar", ("ddgamma", "--n", str(n), "--gamma", r(g), *digits),
                         lambda: arith.d_dimension_d_scale(n, g),
                         lambda v: _values([("dD/dgamma", v)])))
    n = arity(4, 7)
    g = u(0.0, 1.0 / n)
    calls.append(_expect(
        "scalar", ("bounds", "--n", str(n), "--gamma", r(g), *digits),
        lambda: geometry.lacunarity_bounds(n, g),
        lambda b: _values([("eps_min", b.eps_min), ("eps_reg", b.eps_reg),
                           ("eps_max", b.eps_max)])))

    # numpy-bound minority: construct -> estimate, verify, grid
    n = arity(2, 5)
    g = n ** (-1.0 / u(0.5, 0.9))
    eps = 0.0
    if n >= 4:
        eps = u() * (1.0 - n * g) / (n - 2 if n % 2 == 0 else n - 3)
    stage = CLI_CONSTRUCT_STAGE[n]
    params = geometry.CantorParams(n, g, eps, stage)
    set_path = str(workdir / "set.json")
    calls.append(_expect(
        "heavy",
        ("construct", "--n", str(n), "--gamma", r(g), "--eps", r(eps), "--stage", str(stage),
         "--format", "json", "--out", set_path),
        lambda: serialize.export_intervals(geometry.construct_prefractal(params), "json"),
        lambda text: {"returncode": 0, "text": "", "files": ((set_path, text.encode()),)}))
    calls.append(_expect(
        "heavy", ("estimate", "--in", set_path, *digits),
        lambda: estimation.estimate_dimension(geometry.construct_prefractal(params)),
        lambda est: _values([("d_hat", est.d_hat), ("stderr", est.stderr)])))
    op = OPS[int(rng.integers(0, 4))]
    n = arity(2, 5)
    da, db = _draw_operands(rng, op)
    calls.append(_expect(
        "heavy",
        ("verify", "--op", op, "--da", r(da), "--db", r(db), "--n", str(n),
         "--stage", str(SMALL_STAGE[n])),
        lambda: estimation.verify_operator_geometrically(op, da, db, n, SMALL_STAGE[n]),
        _verify_answer))
    op = OPS[int(rng.integers(0, 4))]
    grid_path = str(workdir / "grid.csv")
    calls.append(_expect(
        "heavy",
        ("grid", "--op", op, "--res", str(CLI_GRID_RES), "--n", str(n), "--out", grid_path),
        lambda: render.emit_operator_grid(op, CLI_GRID_RES, n)[1],
        lambda text: {"returncode": 0, "text": "", "files": ((grid_path, text.encode()),)}))
    if tiny:
        calls = [calls[0], calls[3], calls[-4], calls[-3]]
    return calls


def run_child(argv, env, timeout_s: float = 60.0):
    """Run a command to completion; returns (exit code, stdout+stderr, peak RSS in KiB).

    The exit is awaited with a blocking wait4, which also gives the child's
    own resource usage; Popen.wait with a timeout would poll in steps of up
    to 50 ms and blur the timing.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    chunks = []
    deadline = monotonic() + timeout_s
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                proc.kill()
                break
            if sel.select(remaining):
                data = os.read(proc.stdout.fileno(), 65536)
                if not data:
                    break
                chunks.append(data)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks).decode(errors="replace"), usage.ru_maxrss


def run_cli(args, env):
    return run_child([sys.executable, "-m", "cantordim.cli", *args], env)


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class CliWorkload:
    """A scripted sequence of CLI subprocesses, one at a time."""

    name = "cli"
    # four numpy-bound calls per pass cost about the same, so three passes
    # put at least ten samples beyond op_tail_ms
    min_passes = 3

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.workdir = Path(workdir)
        self.calls = _cli_calls(seed, tiny, self.workdir)
        self.env = cli_env(Path(cantordim.__file__).resolve().parent.parent)
        self.peak_child_rss_kib = 0
        self.input_digest = _digest([c.args for c in self.calls])

    def describe(self, i: int) -> str:
        return str(self.calls[i])

    def run_pass(self, tracer=None) -> Recorder:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for call in self.calls:
            for path, _ in call.files:
                Path(path).unlink(missing_ok=True)
        rec = Recorder()
        for call in self.calls:
            if tracer is None:
                out = rec(lambda: run_cli(call.args, self.env))
            else:
                with tracer.span(f"cli.{call.kind}"):
                    out = rec(lambda: run_cli(call.args, self.env))
            if not isinstance(out, Raised):
                self.peak_child_rss_kib = max(self.peak_child_rss_kib, out[2])
        rec.outputs = [
            out if isinstance(out, Raised) else (out[0], out[1], tuple(
                Path(p).read_bytes() if Path(p).is_file() else b"" for p, _ in call.files))
            for call, out in zip(self.calls, rec.outputs)
        ]
        return rec

    def check(self, outputs) -> list[str | None]:
        return [
            f"raised {out}" if isinstance(out, Raised) else check_cli_call(call, *out)
            for call, out in zip(self.calls, outputs)
        ]


WORKLOADS = {w.name: w for w in (VerifyWorkload, DocumentsWorkload, CliWorkload)}


def make(name: str, seed: int, tiny: bool = False, workdir: Path | None = None):
    return WORKLOADS[name](seed, tiny=tiny, workdir=workdir)
