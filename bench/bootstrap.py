"""Child-process entry of the benchmark: one fresh interpreter per use.

    bootstrap.py setup cli                    import the package and its CLI
    bootstrap.py setup library NPZ           import the package, build the record list
    bootstrap.py cli CALL_ID TRACE|- ARGS...  run ``scorepotential.cli.main(ARGS)``
    bootstrap.py library NPZ SECONDS TRACE OUT
                                              run the ties-library closed loop

``src`` goes first on ``sys.path``, since the package cannot be installed
offline and has no ``__main__``.  With a TRACE path, ``cli`` records spans and
writes them there when ``main`` returns.  ``library`` checks every call
against the oracle and writes per-call results to OUT as JSON.

The host's speed drifts while a run lasts, so every measured time is taken
together with ``reference_s()``, the time of a fixed pure-Python loop run
right before and right after it; ``run.py`` scales times by it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

TIES_BUCKETS = 1000
TIES_TARGET = 70.0
REFERENCE_ITERATIONS = 500_000
REFERENCE_REPEATS = 3


def reference_s() -> float:
    """Fastest of a few timings of a fixed pure-Python loop: the host's speed now."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i
        best = min(best, perf_counter() - start)
    return best


def build_records(npz: Path) -> list:
    from inputs import load_npz, record_ids
    from scorepotential import ScoredRecord

    sample = load_npz(npz, "ties")
    return [
        ScoredRecord(rid, score, resp)
        for rid, score, resp in zip(record_ids(sample.rows), sample.scores.tolist(),
                                    sample.responses.tolist())
    ]


def library_call(sp, records: list, cutoffs: tuple) -> tuple[dict, float]:
    """One ties-library call: every tie policy, then the AUC cross-check.

    Names are looked up on the package at call time, where a traced run
    replaces them with span recorders.
    """
    results = {}
    for policy in sp.TiePolicy:
        ranked = sp.rank_sample(records, policy)
        if policy is sp.TiePolicy.MIDRANK:
            midrank = ranked
        ctx = sp.EvaluationContext(sample=ranked, bucket_count=TIES_BUCKETS,
                                   cutoffs_of_interest=cutoffs, stretch_target=TIES_TARGET)
        evaluation = sp.evaluate_model(ctx, f"ties_{policy.value}")
        as_json = sp.render_combined_chart(evaluation, "json")
        from_json = sp.evaluation_from_dict(json.loads(as_json))
        as_csv = sp.evaluation_to_csv(evaluation)
        from_csv = sp.evaluation_from_csv(as_csv)
        text = sp.render_combined_chart(evaluation, "text")
        results[policy.value] = (evaluation, from_json, from_csv, as_json + as_csv + text)
    return results, sp.auc_crosscheck(midrank)


def closed_loop(seconds: float, trace: bool, call) -> list[dict]:
    """Call call(call_id, traced) back to back until `seconds` have passed.

    With tracing, calls alternate untraced and traced, so that the same run
    gives the per-layer numbers and the tracing overhead.  The reference loop
    runs between calls; each result gets the mean of the timings before and
    after it as ``reference_s``.
    """
    results = []
    start = perf_counter()
    before = reference_s()
    while True:
        call_id = len(results)
        result = call(call_id, trace and call_id % 2 == 1)
        after = reference_s()
        result["reference_s"] = (before + after) / 2
        before = after
        results.append(result)
        if perf_counter() - start >= seconds and len(results) >= (2 if trace else 1):
            return results


def run_library(npz: Path, seconds: float, trace: bool) -> list[dict]:
    import scorepotential as sp
    from inputs import PERCENTS, load_npz
    from oracle import POLICIES, check_library_call, expect
    from tracing import Tracer, layer_metrics

    sample = load_npz(npz, "ties")
    expected = {p: expect(sample, p, TIES_BUCKETS, PERCENTS) for p in POLICIES}
    records = build_records(npz)
    cutoffs = tuple(sp.CutOff(cut) for cut in PERCENTS)
    digests = set()

    def call(call_id: int, traced: bool) -> dict:
        tracer = Tracer()
        if traced:
            tracer.call_id = call_id
            tracer.install()
        problems = []
        try:
            start = perf_counter()
            if traced:
                results, auc = tracer.call("library.call", library_call, sp, records, cutoffs)
            else:
                results, auc = library_call(sp, records, cutoffs)
            wall = perf_counter() - start
        except Exception as err:  # a raising call is a failed call, not a crash
            wall = perf_counter() - start
            problems.append(f"call raised {type(err).__name__}: {err}")
        finally:
            if traced:
                tracer.uninstall()
        if not problems:
            problems = check_library_call(results, auc, expected)
            digests.add(hashlib.sha256(
                "".join(results[p][3] for p in POLICIES).encode()).hexdigest())
            if len(digests) > 1:
                problems.append("report bytes differ from an earlier call with the same input")
        out = {"wall_s": wall, "traced": traced, "problems": problems}
        if traced:
            out["layers"] = layer_metrics(tracer.dump(), call_id)
            out["missing"] = tracer.missing
        return out

    return closed_loop(seconds, trace, call)


def run_cli(call_id: int, trace_path: str, argv: list[str]) -> int:
    if trace_path == "-":
        from scorepotential.cli import main

        return main(argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.call_id = call_id
    tracer.install()
    from scorepotential.cli import main

    try:
        return tracer.call("cli.main", main, argv)
    finally:
        tracer.uninstall()
        Path(trace_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")


def main(args: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    mode = args[0]
    if mode == "setup":
        import scorepotential

        if args[1] == "library":
            build_records(Path(args[2]))
        else:
            import scorepotential.cli  # noqa: F401
        print(scorepotential.__file__)
        return 0
    if mode == "cli":
        return run_cli(int(args[1]), args[2], args[3:])
    if mode == "library":
        results = run_library(Path(args[1]), float(args[2]), args[3] == "1")
        Path(args[4]).write_text(json.dumps(results), encoding="utf-8")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
