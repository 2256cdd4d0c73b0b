"""labelforge benchmark: the four CLI commands on generated and committed inputs.

    python3 perfbench/run.py --workload label_dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; it benchmarks the checkout's `src/`.

--trace 0 runs each command as a fresh `python -m labelforge.cli` process
in a closed loop, one process at a time, and reports wall times that
include interpreter start-up and imports, scaled by a reference process
run next to them (see REFERENCE_PROBE); the summary lines also give the
plain wall times. --trace 1 calls
`labelforge.cli.main` in-process with timing wrappers around each
module's public functions (see spans.py) and reports per-layer self
times, call counts and bytes. End-to-end figures never come from a
traced run.

Every command's output is checked against what the workload generator
knows. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads
from checks import CheckFailed, expect

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("export", "inspect", "preview", "renumber")
MIN_CYCLES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import labelforge.cli; "
                "print(time.perf_counter() - t)")
# The reference process: interpreter start, the standard-library imports a
# labelforge command makes, and a fixed tokenize-and-convert loop like the
# commands' own work, but nothing of labelforge, so no change to the program
# moves it. On a shared host every process's wall time moves with the
# machine's speed, for minutes at a time and from one second to the next.
# The reference runs right after each case's commands, and each command
# time is reported in reference seconds, wall time * REFERENCE_S / that
# reference's wall time, which cancels most of that movement: on a shared
# 2-CPU virtual machine it cut the ten-run spread (quartile distance over
# median) of the command medians from 0.07-0.72 to 0.03-0.08.
REFERENCE_PROBE = """\
import argparse, dataclasses, enum, fractions, functools, json, math, pathlib, random, re
import shutil, tempfile, typing, warnings
rng = random.Random(0)
text = " ".join(f"{rng.uniform(0, 500):.4f} {rng.uniform(0, 500):.4f} L" for _ in range(12000))
values = []
for m in re.finditer(r"[-+]?\\d*\\.?\\d+|[A-Za-z]+|\\S", text):
    token = m.group()
    values.append(float(token) if token[0].isdigit() else token)
table = {i % 997: (v, str(v)) for i, v in enumerate(values)}
"""
REFERENCE_S = 0.2

# Per-layer metrics of the traced run, with their units.
PER_LAYER = (
    [(f"{c}.epsio.tokenize.{m}", u) for c in COMMANDS
     for m, u in (("self_s", "s"), ("calls", "count"), ("bytes", "bytes"),
                  ("bytes_per_input_byte", "ratio"))]
    + [(f"{c}.epsio.scan_tags.{m}", u) for c in COMMANDS
       for m, u in (("self_s", "s"), ("calls", "count"))]
    + [("export.epsio.write_eps.self_s", "s"), ("export.scenefile.load_scene.self_s", "s")]
    + [(f"export.{layer}.{m}", u)
       for layer in ("exprkit.parse_expr", "exprkit.print_source", "exprkit.guess_tex",
                     "labeling.build_entry")
       for m, u in (("self_s", "s"), ("calls", "count"))]
    + [(f"export.{layer}.self_s", "s")
       for layer in ("scene.expand_decorations", "scene.auto_wrap", "labeling.emit_tex",
                     "labeling.psfrag_export")]
    + [("renumber.labeling.parse_psfrag_document.self_s", "s"),
       ("preview.labeling.parse_psfrag_document.self_s", "s"),
       ("renumber.epsio.rewrite_tags.self_s", "s"),
       ("renumber.labeling.renumber.self_s", "s"),
       ("preview.preview.substitute_preview.self_s", "s")]
    + [(f"{c}.fileio.self_s", "s") for c in ("export", "preview", "renumber")]
    + [(f"{c}.cli.self_s", "s") for c in COMMANDS]
    + [(f"{c}.inprocess_s", "s") for c in COMMANDS]
    + [(f"{c}.trace_overhead_s", "s") for c in COMMANDS]
)


@dataclass
class Case:
    scene: workloads.SceneInput
    scene_path: Path
    reference: tuple[bytes, str] | None = None  # first export's (eps, tex)
    pair: tuple[Path, Path] | None = None  # pristine copy of that export


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, operation, *args):
        """Run one operation; return its result, or None when it failed."""
        self.attempted += 1
        try:
            return operation(*args)
        except (CheckFailed, OSError, ValueError) as exc:  # missing or malformed output
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(str(exc))
            return None


class Subprocess:
    """Runs `python -m labelforge.cli` on the checkout's src/, one at a time."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.peak_rss_kb = 0  # of command processes only, not of import probes

    def python(self, args: list[str]) -> tuple[float, str, int]:
        """Run the checkout's Python; return wall time, stdout and peak RSS in KiB."""
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        expect(proc.returncode == 0,
               f"{' '.join(args)} exited {proc.returncode}: {stderr.strip()[-300:]}")
        expect("Traceback" not in stderr, f"{' '.join(args)} printed a traceback")
        return elapsed, stdout, usage.ru_maxrss

    def __call__(self, argv: list[str]) -> tuple[float, str]:
        elapsed, stdout, rss_kb = self.python(["-m", "labelforge.cli", *argv])
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return elapsed, stdout


class InProcess:
    """Calls labelforge.cli.main in this process, optionally inside a root span."""

    def __init__(self, cli, tracer: spans.Tracer | None = None) -> None:
        self.cli = cli
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.span(spans.ROOT, self.cli.main, argv)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # the program under test failed, not the benchmark
            raise CheckFailed(f"{' '.join(argv)} raised {exc!r}") from exc
        expect(code == 0, f"{' '.join(argv)} returned {code}: {err.getvalue().strip()[-300:]}")
        return elapsed, out.getvalue()


def materialise(wl: workloads.Workload, work: Path) -> list[Case]:
    (work / "in").mkdir(parents=True)
    cases = []
    for scene in wl.scenes:
        path = work / "in" / f"{scene.name}.scene"
        path.write_text(scene.text, encoding="utf-8")
        cases.append(Case(scene, path))
    return cases


class Cycle:
    """One pass of export, inspect, preview and renumber over every case.

    Renumber rewrites its pair in place, so the pair is restored from the
    pristine copy before every renumber; each repetition sees the same input.
    """

    def __init__(self, wl: workloads.Workload, cases: list[Case], work: Path,
                 tally: Tally) -> None:
        self.wl, self.cases, self.work, self.tally = wl, cases, work, tally
        for sub in ("out", "renumber"):
            (work / sub).mkdir(exist_ok=True)

    def export(self, invoke, case: Case) -> float:
        base = self.work / "out" / case.scene.name
        elapsed, stdout = invoke(["export", str(case.scene_path), "--basename", str(base)])
        eps = base.with_name(base.name + "-psfrag.eps").read_bytes()
        tex = base.with_name(base.name + "-psfrag.tex").read_text(encoding="utf-8")
        if case.reference is None:
            checks.check_export(case.scene, stdout, eps, tex)
            golden = self.wl.golden.get(case.scene.name)
            expect(golden is None or (eps, tex) == golden,
                   f"export of {case.scene.name} differs from tests/golden")
            case.reference = (eps, tex)
        else:
            expect((eps, tex) == case.reference,
                   f"exporting {case.scene.name} twice gave different bytes")
            expect(stdout.strip() == f"{case.scene.labels} labels, {case.scene.labels} tagged",
                   f"export of {case.scene.name} printed {stdout.strip()!r}")
        return elapsed

    def pin_pair(self, case: Case) -> None:
        """Keep the first export as the pair the other commands read."""
        eps, tex = case.reference
        pristine = self.work / "in" / case.scene.name
        eps_path = pristine.with_name(pristine.name + "-psfrag.eps")
        tex_path = pristine.with_name(pristine.name + "-psfrag.tex")
        eps_path.write_bytes(eps)
        tex_path.write_text(tex, encoding="utf-8")
        case.pair = (eps_path, tex_path)

    def inspect(self, invoke, case: Case) -> float:
        elapsed, stdout = invoke(["inspect", str(case.pair[0])])
        checks.check_inspect(case.scene, stdout)
        return elapsed

    def preview(self, invoke, case: Case) -> float:
        out = self.work / "out" / f"{case.scene.name}-preview.eps"
        elapsed, stdout = invoke(["preview", *map(str, case.pair), str(out)])
        checks.check_preview(case.scene.labels, stdout, out.read_bytes())
        return elapsed

    def renumber(self, invoke, case: Case) -> float:
        """Renumber a fresh copy of the pair, with no backups left from an
        earlier repetition, so every repetition sees the same files."""
        copies = []
        for original in case.pair:
            copy = self.work / "renumber" / original.name
            shutil.copyfile(original, copy)
            copy.with_name(copy.name + ".bak").unlink(missing_ok=True)
            copies.append(copy)
        eps, tex = copies
        elapsed, stdout = invoke(["renumber", str(eps), str(tex)])
        checks.check_renumber(case.scene.labels, stdout, eps.read_bytes(),
                              tex.read_text(encoding="utf-8"))
        for copy, original in zip(copies, case.pair):
            backup = copy.with_name(copy.name + ".bak")
            expect(backup.read_bytes() == original.read_bytes(),
                   f"renumber left no faithful backup {backup.name}")
        return elapsed

    def prepare(self, invoke) -> None:
        """Export each scene once, untimed; that export is the pair the
        other commands read and the bytes every later export must equal."""
        for case in self.cases:
            self.tally.run(self.export, invoke, case)
            if case.reference is not None:
                self.pin_pair(case)

    def run(self, invoke, after_command=None, after_case=None) -> list[dict[str, float | None]]:
        """Time each command on each case; None where it failed."""
        times = []
        for case in self.cases:
            case_times: dict[str, float | None] = dict.fromkeys(COMMANDS)
            for command in COMMANDS:
                if command != "export" and case.pair is None:
                    continue  # the first export failed, so there is no pair to read
                case_times[command] = self.tally.run(getattr(self, command), invoke, case)
                if after_command is not None:
                    after_command(command)
            times.append(case_times)
            if after_case is not None:
                after_case()
        return times


def total(times: list[dict[str, float | None]], command: str,
          weights: list[float] | None = None) -> float | None:
    """A command's time summed over the cases, each times its weight; None
    if it failed on any case."""
    values = [t[command] for t in times]
    if None in values:
        return None
    return sum(v * w for v, w in zip(values, weights or [1.0] * len(values)))


def repeat(seconds: float, min_cycles: int, body) -> int:
    """Call body until another call would end after `seconds`; return the count."""
    start, done = time.perf_counter(), 0
    while True:
        t = time.perf_counter()
        body()
        done += 1
        now = time.perf_counter()
        if done >= min_cycles and (now - start) + (now - t) > seconds:
            return done


def median(values) -> float:
    """Median, or 0.0 when every operation behind the values failed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def timing_summary(name: str, values: list[float], unit: str) -> str:
    """Median with the highest percentile that has ten samples beyond it."""
    n = len(values)
    median = statistics.median(values)
    tail = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    if tail:
        cut = statistics.quantiles(values, n=100, method="inclusive")[tail[-1] - 1]
        tail_text = f"p{tail[-1]} {cut:.4f}"
    else:
        tail_text = f"max {max(values):.4f} (no percentile has 10 samples beyond it)"
    return f"{name}: median {median:.4f} {unit}, {tail_text}, n={n}"


def run_end_to_end(wl, cases, work, tally, seconds: float) -> tuple[dict, list[str]]:
    runner = Subprocess(work)
    runner.python(["-c", "import labelforge.cli"])  # compile bytecode once, untimed
    raw: dict[str, list[float]] = {c: [] for c in COMMANDS}  # s, one sample a cycle
    scaled: dict[str, list[float]] = {c: [] for c in COMMANDS}  # ref_s, one sample a cycle
    setup_raw: list[float] = []
    setup_scaled: list[float] = []
    reference: list[float] = []

    def probe() -> None:
        """After each case's commands, time `import labelforge.cli` in a fresh
        interpreter (start-up excluded), then the reference process."""
        setup_raw.append(float(runner.python(["-c", IMPORT_PROBE])[1]))
        reference.append(runner.python(["-c", REFERENCE_PROBE])[0])
        setup_scaled.append(setup_raw[-1] * REFERENCE_S / reference[-1])

    cycle = Cycle(wl, cases, work, tally)
    cycle.prepare(runner)

    def timed_cycle() -> None:
        times = cycle.run(runner, after_case=probe)
        speeds = [REFERENCE_S / r for r in reference[-len(times):]]
        for command in COMMANDS:
            plain, weighted = total(times, command), total(times, command, speeds)
            if plain is not None:
                raw[command].append(plain)
                scaled[command].append(weighted)

    repeat(seconds, MIN_CYCLES, timed_cycle)

    metrics = {f"{c}_s": (median(v), "ref_s") for c, v in scaled.items()}
    metrics["setup_s"] = (median(setup_scaled), "s")
    metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024.0, "MB")
    lines = [timing_summary(f"{c}_s", scaled[c], "ref_s")
             + f"; wall median {median(raw[c]):.4f} s" for c in COMMANDS if raw[c]]
    lines.append(timing_summary("setup_s", setup_scaled, "s")
                 + f"; wall median {median(setup_raw):.4f} s")
    lines.append(timing_summary("reference", reference, "s"))
    lines.append(f"peak_rss_mb: {runner.peak_rss_kb / 1024.0:.2f} MB")
    return metrics, lines


def run_traced(wl, cases, work, tally, seconds: float) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    import labelforge.cli as cli
    expect(Path(cli.__file__).resolve().is_relative_to(ROOT / "src"),
           f"imported labelforge from {cli.__file__}, not from the checkout")

    tracer = spans.Tracer()
    cycle = Cycle(wl, cases, work, tally)
    plain, traced = InProcess(cli), InProcess(cli, tracer)
    cycle.prepare(plain)

    per_cycle: list[dict[str, float]] = []
    inprocess: dict[str, list[float]] = {c: [] for c in COMMANDS}
    traced_total: dict[str, list[float]] = {c: [] for c in COMMANDS}
    last_spans: dict[str, list] = {}

    def traced_cycle() -> None:
        layers: dict[str, float] = {}
        last_spans.clear()

        def collect(command: str) -> None:
            for layer, t in spans.layer_totals(tracer.spans).items():
                for key, value in t.items():
                    name = f"{command}.{layer}.{key}"
                    layers[name] = layers.get(name, 0.0) + value
            last_spans.setdefault(command, []).extend(tracer.spans)
            tracer.clear()

        tracer.install()
        try:
            traced_times = cycle.run(traced, collect)
        finally:
            tracer.uninstall()
        plain_times = cycle.run(plain)
        for command in COMMANDS:
            for samples, t in ((traced_total, traced_times), (inprocess, plain_times)):
                value = total(t, command)
                if value is not None:
                    samples[command].append(value)
        per_cycle.append(layers)

    done = repeat(seconds, 1, traced_cycle)
    input_bytes = {c: sum(case.pair[0].stat().st_size for case in cases if case.pair)
                   for c in COMMANDS}
    input_bytes["export"] = sum(len(case.reference[0]) for case in cases if case.reference)

    def layer(name: str) -> float:
        return median(layers.get(name, 0.0) for layers in per_cycle)

    metrics: dict[str, tuple[float, str]] = {}
    for name, unit in PER_LAYER:
        command, rest = name.split(".", 1)
        if rest == "fileio.self_s":
            value = sum(layer(f"{command}.fileio.{fn}.self_s")
                        for fn in ("atomic_write_bytes", "atomic_write_text", "make_backup"))
        elif rest == "cli.self_s":
            value = layer(f"{command}.{spans.ROOT}.self_s")
        elif rest == "inprocess_s":
            value = median(inprocess[command])
        elif rest == "trace_overhead_s":
            value = median(traced_total[command]) - median(inprocess[command])
        elif rest.endswith("bytes_per_input_byte"):
            read = layer(name.replace("bytes_per_input_byte", "bytes"))
            value = read / input_bytes[command] if input_bytes[command] else 0.0
        else:
            value = layer(name)
        metrics[name] = (value, unit)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for command in COMMANDS:
        spans.write(last_spans.get(command, []), out_dir / f"spans-{wl.name}-{command}.json")
    lines = [f"traced cycles: {done}; spans of the last cycle in {out_dir.name}/"]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "labelforge" / "cli.py", ROOT / "tests" / "fixtures",
              ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a labelforge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        wl = workloads.build(args.workload, args.seed, ROOT)
        cases = materialise(wl, work)
        tally = Tally()
        measure = run_traced if args.trace else run_end_to_end
        metrics, lines = measure(wl, cases, work, tally, args.seconds)
    except CheckFailed as exc:  # outside any counted operation, e.g. the import probe
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = tally.failed / max(tally.attempted, 1)
    lines.append(f"error_rate: {error_rate:.4f} ({tally.failed} of {tally.attempted} operations)")
    for line in lines + [f"FAILED: {m}" for m in tally.messages]:
        print(f"# {args.workload}: {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
