"""Independent correctness oracle for every benchmark output.

Written with numpy and exact integers only; nothing here calls ``rank_sample``
or any other function of the program under test.  Each check returns a list
of mismatch messages, empty when the output is correct, so that the caller
counts every mismatch as a failed call.

The expected values are computed the way the program defines them:

* order: ascending score, file order inside a tie group; pessimistic moves
  responders to the low end of each tie group, optimistic to the high end;
* PoP: ``100.0 * P_up / P_down`` with ``P_up`` the responder rank sum
  (midranks under ties) and ``P_down = k*X - k(k-1)/2``, both exact;
* bucket responder counts: equal buckets of the ordered sample, top first;
* BenI at a cut-off: top-n hit rate over the base rate, times 100, as exact
  fractions, with n the half-up rounding of cut * X;
* AUC under midranks: ``(P_up - k(k+1)/2) / (k(X-k))``, the Mann-Whitney
  identity ``P_up = AUC*k(X-k) + k(k+1)/2``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from inputs import Sample, selection_count, tie_groups

POLICIES = ("midrank", "pessimistic", "optimistic")


@dataclass(frozen=True)
class Expected:
    """What a correct evaluation of one sample under one tie policy reports."""

    rows: int
    responders: int
    rank_sum: Fraction
    pop: float
    buckets: tuple[int, ...]
    beni: dict

    @property
    def auc(self) -> float:
        k, x = self.responders, self.rows
        return float(self.rank_sum - Fraction(k * (k + 1), 2)) / (k * (x - k))


def ordering(sample: Sample, policy: str) -> np.ndarray:
    """Positions of the sample's records in ascending rank order."""
    if policy == "midrank":
        return np.argsort(sample.scores, kind="stable")
    key = -sample.responses if policy == "pessimistic" else sample.responses
    return np.lexsort((key, sample.scores))


def rank_sum(sorted_scores: np.ndarray, sorted_responses: np.ndarray, policy: str) -> Fraction:
    """Exact responder rank sum; ranks are 1-based, tie groups per the policy."""
    starts, ends = tie_groups(sorted_scores)
    hits = np.add.reduceat(sorted_responses, starts)
    if policy == "midrank":
        return Fraction(int(np.sum(hits * (starts + 1 + ends))), 2)
    # Under a reordering policy every record keeps its own position as rank.
    positions = np.arange(1, len(sorted_scores) + 1)
    return Fraction(int(np.sum(positions[sorted_responses == 1])))


def expect(sample: Sample, policy: str, buckets: int, cutoffs) -> Expected:
    order = ordering(sample, policy)
    sorted_responses = sample.responses[order]
    x, k = sample.rows, sample.responders
    p_up = rank_sum(sample.scores[order], sorted_responses, policy)
    p_down = k * x - k * (k - 1) // 2
    per_bucket = sorted_responses.reshape(buckets, x // buckets).sum(axis=1)[::-1]
    base = Fraction(k, x)
    beni = {}
    for cut in cutoffs:
        n = selection_count(x, cut)
        top_hits = int(sorted_responses[x - n:].sum())
        beni[cut] = float(Fraction(top_hits, n) / base * 100)
    return Expected(
        rows=x,
        responders=k,
        rank_sum=p_up,
        pop=100.0 * float(p_up) / float(p_down),
        buckets=tuple(int(c) for c in per_bucket),
        beni=beni,
    )


def summary_of_evaluation(evaluation) -> tuple:
    """(model id, PoP, bucket responders top first, BenI by cut-off) of a ModelEvaluation."""
    return (
        evaluation.model_id,
        evaluation.pop_exact,
        [b.responders for b in evaluation.gains.buckets],
        {cut.fraction: point.beni for cut, point in evaluation.beni_profile.items()},
    )


def summary_of_document(doc: dict) -> tuple:
    """The same summary, read from an evaluation's JSON document."""
    return (
        doc["model_id"],
        doc["pop_exact"],
        [b["responders"] for b in doc["gains"]["buckets"]],
        {Fraction(entry["cutoff"]): entry["beni"] for entry in doc["beni_profile"]},
    )


def check_summary(summary: tuple, exp: Expected, model_id: str) -> list[str]:
    got_id, pop, buckets, beni = summary
    problems = []
    if got_id != model_id:
        problems.append(f"model id {got_id!r}, expected {model_id!r}")
    if pop != exp.pop:
        problems.append(f"{model_id}: pop_exact {pop!r} != oracle {exp.pop!r}")
    if tuple(buckets) != exp.buckets:
        problems.append(f"{model_id}: bucket responder counts differ from the oracle")
    if sum(buckets) != exp.responders:
        problems.append(f"{model_id}: bucket responders sum to {sum(buckets)}, not k={exp.responders}")
    if beni != exp.beni:
        wrong = sorted(str(c) for c in exp.beni if beni.get(c) != exp.beni[c])
        problems.append(f"{model_id}: BenI differs from the oracle at cut-offs {wrong[:5]}")
    return problems


def check_library_call(results: dict, auc: float, expected: dict) -> list[str]:
    """Check one ties-library call: per policy (evaluation, from_json, from_csv, text)."""
    problems = []
    for policy in POLICIES:
        evaluation, from_json, from_csv, _ = results[policy]
        problems += check_summary(summary_of_evaluation(evaluation), expected[policy],
                                  f"ties_{policy}")
        if from_json != evaluation:
            problems.append(f"{policy}: JSON round trip does not reproduce the evaluation")
        if from_csv != evaluation:
            problems.append(f"{policy}: CSV round trip does not reproduce the evaluation")
    pops = [results[p][0].pop_exact for p in ("pessimistic", "midrank", "optimistic")]
    if not pops[0] <= pops[1] <= pops[2]:
        problems.append(f"PoP not bracketed: pessimistic/midrank/optimistic = {pops}")
    if auc != expected["midrank"].auc:
        problems.append(f"auc_crosscheck {auc!r} != (P_up - k(k+1)/2)/(k(X-k)) = "
                        f"{expected['midrank'].auc!r}")
    return problems


COMPARISON_HEADER = [
    "rank", "model_id", "pop_exact", "pop_approx", "pop_approx_min",
    "pop_approx_max", "stretch_target", "meets_stretch_target",
]


def check_comparison_csv(text: str, expected: dict, target: float) -> list[str]:
    """Check `compare --format csv`: every PoP exact, rows in the oracle's PoP order."""
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != COMPARISON_HEADER:
        return ["comparison CSV header differs"]
    body = rows[1:]
    if sorted(r[1] for r in body) != sorted(expected):
        return [f"comparison lists models {[r[1] for r in body]}, expected {sorted(expected)}"]
    problems = []
    for position, row in enumerate(body, start=1):
        model_id, pop = row[1], float(row[2])
        exp = expected[model_id]
        if int(row[0]) != position:
            problems.append(f"rank column {row[0]} at position {position}")
        if pop != exp.pop:
            problems.append(f"{model_id}: pop_exact {pop!r} != oracle {exp.pop!r}")
        if row[6] != repr(target) or row[7] != ("true" if exp.pop >= target else "false"):
            problems.append(f"{model_id}: stretch target columns {row[6:8]}")
    oracle_order = [expected[r[1]].pop for r in body]
    if any(a < b for a, b in zip(oracle_order, oracle_order[1:])):
        problems.append("comparison ranking is not the oracle's PoP order")
    return problems


def check_generated_csv(text: str, expected: Sample) -> list[str]:
    """Check `gen` output: header, unique ids, and every score and response exact."""
    lines = text.split("\n")
    if lines[0] != "id,score,response" or lines[-1] != "":
        return ["generated CSV header or final newline differs"]
    body = [line.split(",") for line in lines[1:-1]]
    if len(body) != expected.rows or any(len(cells) != 3 for cells in body):
        return [f"generated CSV has {len(body)} rows, expected {expected.rows}"]
    ids, scores, responses = zip(*body)
    problems = []
    if len(set(ids)) != len(ids):
        problems.append("generated CSV repeats an id")
    if not np.array_equal(np.array([float(s) for s in scores]), expected.scores):
        problems.append("generated scores differ from the seeded sample")
    if not np.array_equal(np.array([int(r) for r in responses]), expected.responses):
        problems.append("generated responses differ from the seeded sample")
    return problems
