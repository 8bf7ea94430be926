"""Monte Carlo validation, convergence curves, MLE cross-checks, and the
cross-rule/metric hierarchy report.

Sampling is the only place randomness enters; every rate is an exact
count fraction, every winner determination exact (integer-scaled scores),
so identical seeds reproduce outputs bit for bit.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import metrics, noise, oracle, rules
from .core import (
    AlternativeSet,
    Committee,
    Profile,
    check_k,
    committee_masks,
    frac_str,
    mask_words,
    popcount,
)
from .errors import InvalidNoiseParamError, PreconditionError


class TrialRates(NamedTuple):
    recovery: Fraction
    tie: Fraction
    wrong: Fraction


def accuracy_trial(
    rule: rules.AbccRule, model: noise.NoiseModel, n: int, trials: int, seed
) -> TrialRates:
    """Fraction of trials where the ground truth is the unique winner.

    Each trial samples n votes and computes the exact winner set;
    "recovery" means the ground truth wins uniquely, "tie" that it shares
    the win, "wrong" that it is not a winner at all. Trials draw from
    independent child streams of the master seed.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    model.check_rule(rule)
    masks = committee_masks(rule.m, rule.k)
    ground = masks.index(model.ground.mask)
    table = rules.integer_table(rule, n)[0]  # every trial scores n votes
    recovered = tied = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        votes, counts = np.unique(noise.sample_vote_masks(model, n, rng), return_counts=True)
        tally = dict(zip(votes.tolist(), counts.tolist()))
        totals = rules.committee_totals(table, rule.m, tally, masks)
        best = totals == totals.max()
        if best[ground]:
            if best.sum() == 1:
                recovered += 1
            else:
                tied += 1
    wrong = trials - recovered - tied
    return TrialRates(
        Fraction(recovered, trials), Fraction(tied, trials), Fraction(wrong, trials)
    )


class CurveRow(NamedTuple):
    n: int
    recovery: Fraction
    tie: Fraction
    wrong: Fraction


class ConvergenceCurve(NamedTuple):
    rows: tuple[CurveRow, ...]
    rule_name: str
    model_kind: str
    trials: int
    seed: int


def convergence_curve(
    rule: rules.AbccRule, model: noise.NoiseModel, n_grid: tuple[int, ...], trials: int, seed: int
) -> ConvergenceCurve:
    """One accuracy_trial row per grid size, on derived per-row streams.
    Every size and the trial count are checked before the first trial."""
    if any(n < 1 for n in n_grid):
        raise PreconditionError("all grid sizes must be >= 1")
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    rows = [
        CurveRow(n, *accuracy_trial(rule, model, n, trials, [seed, i]))
        for i, n in enumerate(n_grid)
    ]
    return ConvergenceCurve(tuple(rows), rule.name, model.kind, trials, seed)


# ---------------------------------------------------------------------------
# Maximum-likelihood cross-check.

class MleResult(NamedTuple):
    by_distance: tuple[Committee, ...]  # total symmetric-difference minimizers
    by_score: tuple[Committee, ...]     # approval-score maximizers

    @property
    def agree(self) -> bool:
        return self.by_distance == self.by_score


def _check_mle_p(p) -> None:
    if not Fraction(1, 2) < Fraction(p) <= 1:
        raise InvalidNoiseParamError(f"p must be in (1/2, 1], got {frac_str(Fraction(p))}")


def distance_totals(cmasks, m: int, counts) -> np.ndarray:
    """totals[i] = sum of count * |C_i △ S| over a {vote mask S: count} tally,
    from the popcounts of the masks' xor: the distance route, apart from the
    score kernel. Votes are taken in blocks of at most rules.BLOCK_CELLS cells."""
    votes, mult = list(counts), np.array(list(counts.values()), dtype=np.int64)
    cwords = mask_words(cmasks, m)[:, :, None]
    totals = np.zeros(len(cmasks), dtype=np.int64)
    step = max(1, rules.BLOCK_CELLS // len(cmasks))
    for lo in range(0, len(votes), step):
        vwords = mask_words(votes[lo : lo + step], m)[:, None, :]
        totals += popcount(cwords ^ vwords) @ mult[lo : lo + step]
    return totals


def mle_committees(profile: Profile, p, m: int, k: int) -> MleResult:
    """Most likely ground committees under the product model, two routes.

    Route one ranks committees by total symmetric-difference distance to
    the votes (an integer comparison: under p > 1/2 the likelihood is a
    decreasing function of that total). Route two takes the approval-score
    winners. The two argmin and argmax sets must coincide; the result never
    depends on p inside (1/2, 1].
    """
    _check_mle_p(p)
    av = rules.make_rule("av", m, k)
    counts = Counter(rules._vote_masks(av, profile))
    masks = committee_masks(m, k)
    distance = distance_totals(masks, m, counts)
    nearest = [masks[i] for i in np.flatnonzero(distance == distance.min())]
    by_distance, by_score = (
        tuple(Committee(AlternativeSet(c, m), k) for c in best)
        for best in (nearest, rules.argmax_committees(av, counts, masks))
    )
    return MleResult(by_distance, by_score)


def mle_equivalence_check(
    p, m: int, k: int, profiles: int, seed, n_max: int = 12
) -> tuple[int, int]:
    """Count how many random profiles make the two routes agree (all should).

    Profile i is drawn from the stream SeedSequence([seed, i]). The
    committee masks and the AV integer table (scaled for n_max votes) are
    built once; each profile is then one distance sum and one kernel call.
    """
    check_k(m, k)
    if profiles < 0 or n_max < 1:
        raise PreconditionError(f"need profiles >= 0 and n_max >= 1, got {profiles}, {n_max}")
    if m > 63:  # each vote is one draw below 2^m, which numpy bounds by 2^63
        raise PreconditionError(f"m={m}: random profiles are drawn for m <= 63 only")
    _check_mle_p(p)
    masks = committee_masks(m, k)
    table = rules.integer_table(rules.make_rule("av", m, k), n_max)[0]
    agree = 0
    for i in range(profiles):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        n = int(rng.integers(1, n_max + 1))
        counts = Counter(rng.integers(0, 1 << m, size=n).tolist())
        distance = distance_totals(masks, m, counts)
        score = rules.committee_totals(table, m, counts, masks)
        if ((distance == distance.min()) == (score == score.max())).all():
            agree += 1
    return agree, profiles


# ---------------------------------------------------------------------------
# Hierarchy report.

class HierarchyReport(NamedTuple):
    m: int
    k: int
    rule_names: tuple[str, ...]
    metric_names: tuple[str, ...]
    verdicts: dict  # (rule_name, metric_name) -> RobustnessVerdict
    rule_predicates: dict  # rule_name -> {"is_nontrivial": bool, ...}
    metric_taxonomy: dict  # metric_name -> TaxonomyReport


def hierarchy_report(
    rule_list: list[rules.AbccRule], metric_list: list[metrics.DistanceMetric]
) -> HierarchyReport:
    """Verdict matrix over rule x metric, annotated with rule predicates
    and metric taxonomy flags."""
    if not rule_list or not metric_list:
        raise PreconditionError("need at least one rule and one metric")
    m, k = rule_list[0].m, rule_list[0].k
    if any(r.m != m or r.k != k for r in rule_list) or any(d.m != m for d in metric_list):
        raise PreconditionError("all rules and metrics must share the same (m, k)")
    # the report keys its rows by name: a repeated name would overwrite a row
    rule_names = tuple(r.name for r in rule_list)
    metric_names = tuple(d.name for d in metric_list)
    for kind, names in (("rule", rule_names), ("metric", metric_names)):
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise PreconditionError(f"duplicate {kind} name {repeated[0]!r}: rows are keyed by it")
    # the taxonomy first: its sweeps over the 2^m sets (and a table metric's
    # full matrix) are the tightest limits, so an m over them is refused
    # before any verdict runs
    taxonomy = {metric.name: metrics.taxonomy_report(metric, k) for metric in metric_list}
    verdicts = {
        (rule.name, metric.name): oracle.robustness_verdict(rule, metric)
        for rule in rule_list
        for metric in metric_list
    }
    predicates = {
        rule.name: {
            "is_nontrivial": rules.is_nontrivial(rule).ok,
            "has_top_jump": rules.has_top_jump(rule),
            "top_jump_vacuous": m == k,  # the (k-1, k) cell is infeasible
        }
        for rule in rule_list
    }
    return HierarchyReport(
        m,
        k,
        rule_names,
        metric_names,
        verdicts,
        predicates,
        taxonomy,
    )


# ---------------------------------------------------------------------------
# CSV / JSON emission. Rates are exact rationals by default; pass
# approx=True for decimal columns.

def curve_to_csv(curve: ConvergenceCurve, approx: bool = False) -> str:
    lines = ["n,recovery_rate,tie_rate,wrong_rate"]
    for row in curve.rows:
        lines.append(
            f"{row.n},{frac_str(row.recovery, approx)},{frac_str(row.tie, approx)},"
            f"{frac_str(row.wrong, approx)}"
        )
    return "\n".join(lines) + "\n"


def curve_to_json(curve: ConvergenceCurve, approx: bool = False) -> dict:
    return {
        "rule": curve.rule_name,
        "model": curve.model_kind,
        "trials": curve.trials,
        "seed": curve.seed,
        "rows": [
            {
                "n": row.n,
                "recovery_rate": frac_str(row.recovery, approx),
                "tie_rate": frac_str(row.tie, approx),
                "wrong_rate": frac_str(row.wrong, approx),
            }
            for row in curve.rows
        ],
    }


def hierarchy_to_csv(report: HierarchyReport) -> str:
    lines = ["rule," + ",".join(report.metric_names)]
    for rule_name in report.rule_names:
        cells = [
            report.verdicts[(rule_name, metric_name)].status
            for metric_name in report.metric_names
        ]
        lines.append(rule_name + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def hierarchy_to_json(report: HierarchyReport) -> dict:
    return {
        "m": report.m,
        "k": report.k,
        "rules": list(report.rule_names),
        "metrics": list(report.metric_names),
        "matrix": {
            rule_name: {
                metric_name: report.verdicts[(rule_name, metric_name)].status
                for metric_name in report.metric_names
            }
            for rule_name in report.rule_names
        },
        "rule_predicates": report.rule_predicates,
        "metric_taxonomy": {
            name: tax.flags() for name, tax in report.metric_taxonomy.items()
        },
    }
