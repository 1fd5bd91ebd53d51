"""Benchmark of the scorepotential toolkit, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from the seed
outside every timed region; calls then run back to back (a closed loop with
one caller) for S seconds, and every output is checked against the numpy
oracle in ``oracle.py``.  Times are reported at a fixed reference speed
(see ``scaled``).  With ``--trace 0`` the result line carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` calls alternate
untraced and traced, and it carries the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it describe the machine, the inputs and each metric's sample count.
See README.md beside this file for the workloads and how to read the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import inputs
import oracle
from bootstrap import closed_loop, reference_s
from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BOOTSTRAP = BENCH / "bootstrap.py"
WORKLOADS = ("evaluate-large", "compare-batch", "ties-library", "gen-write")
SETUP_REPEATS = 5
CALL_TIMEOUT_S = 60.0
COMPARE_QUALITIES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
COMPARE_TARGET = 70.0
# The reference loop's time on the host that reported seconds are given for.
REFERENCE_NOMINAL_S = 0.030


@dataclass(frozen=True)
class Prepared:
    """A workload's generated inputs and how to call and check the program on them."""

    rows_per_call: int
    properties: dict
    setup_args: list[str]
    argv: list[str] | None = None
    check: Callable[[bytes], list[str]] | None = None
    artifacts: tuple[Path, ...] = ()
    npz: Path | None = None


def prepare(workload: str, seed: int, work: Path, scale: int = 1) -> Prepared:
    """Generate a workload's inputs into `work`; `scale` divides every size (tests)."""
    if workload == "evaluate-large":
        sample = inputs.generate("evaluate_large", 200_000 // scale, inputs.QUALITY, seed)
        path = inputs.write_csv(sample, work)
        expected = oracle.expect(sample, "midrank", 10, inputs.DECILES)
        return Prepared(
            rows_per_call=sample.rows,
            properties=inputs.properties([sample], 10, inputs.DECILES),
            setup_args=["cli"],
            argv=["evaluate", str(path), "--format", "json"],
            check=lambda out: oracle.check_summary(
                oracle.summary_of_document(json.loads(out)), expected, sample.stem),
        )
    if workload == "compare-batch":
        samples = [
            inputs.generate(f"model_q{round(q * 100)}", 25_000 // scale, q, seed * 1000 + i)
            for i, q in enumerate(COMPARE_QUALITIES)
        ]
        paths = [str(inputs.write_csv(s, work)) for s in samples]
        expected = {s.stem: oracle.expect(s, "midrank", 10, inputs.DECILES) for s in samples}
        figure = work / "figure.svg"

        def check(out: bytes) -> list[str]:
            problems = oracle.check_comparison_csv(out.decode(), expected, COMPARE_TARGET)
            if figure.read_text(encoding="utf-8").count("<circle") != len(samples):
                problems.append("figure does not plot one point per model")
            return problems

        return Prepared(
            rows_per_call=sum(s.rows for s in samples),
            properties=inputs.properties(samples, 10, inputs.DECILES),
            setup_args=["cli"],
            argv=["compare", *paths, "--target", repr(COMPARE_TARGET), "--format", "csv",
                  "--figure", str(figure)],
            check=check,
            artifacts=(figure,),
        )
    if workload == "ties-library":
        sample = inputs.generate("ties", 50_000 // scale, inputs.QUALITY, seed, decimals=2)
        npz = work / "ties.npz"
        inputs.save_npz(sample, npz)
        return Prepared(
            rows_per_call=len(oracle.POLICIES) * sample.rows,
            properties=inputs.properties([sample], 1000, inputs.PERCENTS),
            setup_args=["library", str(npz)],
            npz=npz,
        )
    if workload == "gen-write":
        sample = inputs.generate("gen", 200_000 // scale, inputs.QUALITY, seed)
        output = work / "gen.csv"
        return Prepared(
            rows_per_call=sample.rows,
            properties=inputs.properties([sample], None, ()),
            setup_args=["cli"],
            argv=["gen", "--size", str(sample.rows), "--rate", repr(float(inputs.RATE)),
                  "--quality", repr(inputs.QUALITY), "--seed", str(seed), "-o", str(output)],
            check=lambda out: oracle.check_generated_csv(
                output.read_text(encoding="utf-8"), sample),
            artifacts=(output,),
        )
    raise ValueError(f"unknown workload {workload!r}")


def spawn(args: list[str], work: Path, timeout: float = CALL_TIMEOUT_S) -> tuple:
    """Run the bootstrap in a fresh interpreter; wall time and rusage are its own.

    Returns (wall seconds, exit code, max RSS in KiB, stdout bytes, stderr bytes).
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BOOTSTRAP), *args],
                                stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed call)."""


def scaled(result: dict) -> float:
    """A result's wall time on a host where the reference loop takes REFERENCE_NOMINAL_S.

    The host's speed swings by about 1.5x in spells of seconds to minutes; a
    pure-Python loop timed right before and after each call slows down with
    it, so the ratio of the two stays put while either alone does not.
    """
    return result["wall_s"] * REFERENCE_NOMINAL_S / result["reference_s"]


def measure_setup(prep: Prepared, work: Path) -> tuple[list[dict], str]:
    """Fresh interpreters doing the set-up every call pays, with reference timings."""
    results, package = [], ""
    before = reference_s()
    for i in range(SETUP_REPEATS + 1):  # the first one fills the bytecode cache
        wall, code, _, out, err = spawn(["setup", *prep.setup_args], work)
        if code != 0:
            raise BenchmarkError(f"set-up failed with exit code {code}: {err.decode()[-500:]}")
        after = reference_s()
        if i:
            results.append({"wall_s": wall, "reference_s": (before + after) / 2})
        before = after
        package = out.decode().strip()
    return results, package


def cli_calls(prep: Prepared, work: Path, seconds: float, trace: bool) -> tuple[list, int]:
    """Closed loop of CLI calls; returns per-call results and the max RSS in KiB."""
    checked = {}  # output digest -> problems found in that output
    max_rss = 0

    def call(call_id: int, traced: bool) -> dict:
        nonlocal max_rss
        for path in prep.artifacts:
            path.unlink(missing_ok=True)
        trace_path = work / f"trace-{call_id}.json"
        wall, code, rss, out, err = spawn(
            ["cli", str(call_id), str(trace_path) if traced else "-", *prep.argv], work)
        result = {"wall_s": wall, "traced": traced, "problems": []}
        if not traced:
            max_rss = max(max_rss, rss)
        if code != 0:
            result["problems"].append(f"exit code {code}: {err.decode()[-300:]!r}")
            return result
        try:
            digest = hashlib.sha256(
                out + b"".join(path.read_bytes() for path in prep.artifacts)).hexdigest()
            if digest not in checked:
                checked[digest] = prep.check(out)
        except (OSError, ValueError, KeyError) as exc:
            result["problems"].append(f"unreadable output: {type(exc).__name__}: {exc}")
            return result
        result["problems"] += checked[digest]
        if len(checked) > 1:
            result["problems"].append("output bytes differ from an earlier call with the same input")
        if traced:
            dump = json.loads(trace_path.read_text(encoding="utf-8"))
            result["layers"] = layer_metrics(dump, call_id)
            result["missing"] = dump["missing"]
        return result

    return closed_loop(seconds, trace, call), max_rss


def library_calls(prep: Prepared, work: Path, seconds: float, trace: bool) -> tuple[list, int]:
    """The ties-library closed loop, warm in one fresh interpreter."""
    result_path = work / "library.json"
    _, code, rss, _, err = spawn(
        ["library", str(prep.npz), repr(seconds), "1" if trace else "0", str(result_path)],
        work, timeout=seconds + CALL_TIMEOUT_S + 30)
    if code != 0:
        raise BenchmarkError(f"library worker failed with exit code {code}: "
                             f"{err.decode()[-500:]}")
    return json.loads(result_path.read_text(encoding="utf-8")), rss


def call_tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile, not below the median, with ten calls beyond it.

    Returns (value, percentile, calls beyond).  With 22 calls or fewer no
    percentile above the median has ten calls beyond it, and the median (the
    upper middle call of an even count) stands in.
    """
    ordered = sorted(walls)
    index = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[index], 100 * (index + 1) / len(ordered), len(ordered) - index - 1


def end_to_end(calls: list, prep: Prepared, rss_kib: int, setup: list[dict]) -> tuple[dict, list]:
    untraced = [c for c in calls if not c["traced"]]
    walls = [scaled(c) for c in untraced]
    n = len(walls)
    tail, pct, beyond = call_tail(walls)
    failed = sum(bool(c["problems"]) for c in calls)
    metrics = {
        "rows_per_s": prep.rows_per_call * n / sum(walls),
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "setup_s": statistics.median(scaled(s) for s in setup),
        "ok_ratio": (len(calls) - failed) / len(calls),
    }
    notes = [
        f"rows_per_s: {prep.rows_per_call} rows per call over {n} calls",
        f"call_p50_s: median of {n} calls",
        f"call_tail_s: p{pct:.0f} of {n} calls, {beyond} calls beyond it",
        f"peak_rss_mb: max RSS of the process running the calls ({n} calls)",
        f"setup_s: median of {len(setup)} fresh interpreters importing the package",
        f"ok_ratio: 1 - failed_ratio; failed_ratio = {failed}/{len(calls)}",
        f"unscaled: call median {statistics.median(c['wall_s'] for c in untraced):.4g} s, "
        f"set-up median {statistics.median(s['wall_s'] for s in setup):.4g} s, reference loop "
        f"{min(c['reference_s'] for c in calls):.4g}-{max(c['reference_s'] for c in calls):.4g} s "
        f"(nominal {REFERENCE_NOMINAL_S} s)",
    ]
    return metrics, notes


def per_layer(calls: list, prep: Prepared) -> tuple[dict, list]:
    traced = [c for c in calls if c["traced"] and "layers" in c]
    untraced = [scaled(c) for c in calls if not c["traced"]]
    if traced:  # layer times are scaled like call times, with their call's reference
        metrics = {name: statistics.median(
                       c["layers"][name] * (scaled(c) / c["wall_s"] if name.endswith("_s") else 1)
                       for c in traced)
                   for name in traced[0]["layers"]}
    else:  # every traced call failed; the failures are reported, the layers read 0
        metrics = layer_metrics({"spans": [], "counters": [], "gc_pauses": []}, 0)
    metrics["sample.tied_row_share"] = prep.properties["tied_row_share"]
    metrics["sample.straddling_tie_groups"] = prep.properties["straddling_tie_groups"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(scaled(c) for c in traced) / statistics.median(untraced) - 1
        if traced else 0.0)
    missing = sorted({m for c in traced for m in c.get("missing", ())})
    notes = [f"per-layer values: median over {len(traced)} traced calls, "
             f"overhead against {len(untraced)} untraced calls"]
    if missing:
        notes.append(f"not traced (attribute missing): {', '.join(missing)}")
    return metrics, notes


def environment(package: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        **caches,
        "scorepotential": package,
    }


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, the one the reference loop times.

    The CPUs of a shared host slow down independently of each other, so a
    reference timed on one CPU does not track a call that runs on another.
    The program's threads run Python under the GIL, so a second CPU would not
    run them in parallel.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> tuple[dict, list]:
    """Prepare, set up, measure and check one workload; return the result and notes."""
    units = declared_metrics(trace)
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        work = Path(tmp)
        prep = prepare(workload, seed, work, scale)
        setup, package = measure_setup(prep, work)
        if prep.npz is not None:
            calls, rss = library_calls(prep, work, seconds, trace)
        else:
            calls, rss = cli_calls(prep, work, seconds, trace)
    if trace:
        values, notes = per_layer(calls, prep)
    else:
        values, notes = end_to_end(calls, prep, rss, setup)
    failed = sum(bool(c["problems"]) for c in calls)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    header = [
        f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}",
        f"environment {json.dumps(environment(package))}",
        f"inputs {json.dumps(prep.properties)}",
    ]
    problems = [p for c in calls for p in c["problems"]]
    return result, header + notes + [f"FAILED: {p}" for p in problems[:10]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "scorepotential" / "__init__.py").is_file():
        print(f"error: no scorepotential sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(f"# {line}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
