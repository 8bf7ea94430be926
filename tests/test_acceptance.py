"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Tolerances are pinned here; everything exact is compared exactly.
"""

import time
from fractions import Fraction
import numpy as np
import pytest

import reference
from abcc.cli import main
from abcc.core import AlternativeSet, Committee, default_universe
from abcc.experiments import accuracy_trial, mle_committees
from abcc.metrics import DistanceMetric, is_majority_concentric, make_metric, random_metric
from abcc.noise import (
    audit_d_monotonic,
    av_refutation_model,
    staggered_level_model,
    jump_counterexample,
)
from abcc.oracle import expected_gap, gap_analysis, robustness_verdict, sample_size_bound, uv_bijection
from abcc.rules import is_nontrivial, make_rule, vote_score
from conftest import committee_of, random_profile, random_rule, random_strict_model


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _mixed_random_metric(m, seed_parts, index):
    family = "table" if index % 2 == 0 else "signature"
    return random_metric(
        m, seed=[*seed_parts, index], family=family, monotone=(index % 4 == 3)
    )


def test_criterion_1_mc_universal_robustness():
    t0 = time.monotonic()
    checked = 0
    for m, k in [(3, 2), (4, 2), (5, 2), (5, 3)]:
        mc = make_rule("mc", m, k)
        for i in range(50):
            metric = _mixed_random_metric(m, (1, m, k), i)
            verdict = robustness_verdict(mc, metric)
            assert verdict.status == "robust", (m, k, i)
            checked += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        checked == 200 and elapsed < 300,
        f"MC robust on {checked}/200 random metrics in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_mc_uniqueness():
    details = []
    for kind in ("av", "cc", "pav", "sav"):
        rule = make_rule(kind, 4, 2)
        pkg = jump_counterexample(rule)
        recomputed = expected_gap(rule, pkg.model, pkg.ground, pkg.rival)
        audit_ok, _ = audit_d_monotonic(pkg.model, pkg.metric)
        assert recomputed == pkg.expected_gap
        assert recomputed < 0
        assert audit_ok
        details.append(f"{kind}:{pkg.expected_gap}")
    _report(2, True, "negative recomputed gaps, audited models [" + " ".join(details) + "]")


def test_criterion_3_av_characterization():
    av4, av3 = make_rule("av", 4, 2), make_rule("av", 3, 2)
    concentric_count = violation_count = 0
    for m, k, av in [(4, 2, av4), (3, 2, av3)]:
        for i in range(100):
            metric = _mixed_random_metric(m, (3, m, k), i)
            check = is_majority_concentric(metric, k)
            verdict = robustness_verdict(av, metric)
            assert bool(check) == (verdict.status == "robust"), (m, k, i)
            if check:
                concentric_count += 1
            else:
                violation_count += 1
                ground, a, b, t = check.witness
                model = av_refutation_model(metric, ground, a, b, t)
                rival_mask = ground.mask & ~(1 << a) | (1 << b)
                rival = Committee(AlternativeSet(rival_mask, m), k)
                assert expected_gap(av, model, ground, rival) < 0, (m, k, i)
    _report(
        3,
        concentric_count + violation_count == 200,
        f"verdict == concentricity on 200 metrics "
        f"({concentric_count} concentric, {violation_count} refuted with negative gaps)",
    )


def _unit_form(m, seed):
    """A seeded symmetric signature form with values in [1, 2] (eighths) off
    the diagonal; 1 + 1 >= 2, so every triangle holds."""
    values = np.random.default_rng(seed).integers(8, 17, size=(m + 1,) * 3)
    return lambda a, b, c: Fraction(int(values[min(a, b), max(a, b), c]), 8) if a or b else Fraction(0)


def test_criterion_3_av_characterization_at_m40():
    # criterion 3 past the 2^m sets: the concentricity check, the verdict and
    # the refutation model all run on the signature grid
    m, k = 40, 5
    av = make_rule("av", m, k)
    metrics = [make_metric(kind, m) for kind in
               ("set_difference", "jaccard", "zelinka", "bunke_shearer", "trivial")]
    metrics += [DistanceMetric(f"form{i}", m, signature=_unit_form(m, [3, m, i])) for i in range(10)]
    refuted = 0
    for metric in metrics:
        check = is_majority_concentric(metric, k)
        assert bool(check) == (robustness_verdict(av, metric).status == "robust"), metric.name
        if not check:
            refuted += 1
            ground, a, b, t = check.witness
            model = av_refutation_model(metric, ground, a, b, t)
            rival = Committee(AlternativeSet(ground.mask & ~(1 << a) | (1 << b), m), k)
            assert expected_gap(av, model, ground, rival) < 0, metric.name
    _report(
        "3 at m = 40",
        0 < refuted < len(metrics),
        f"verdict == concentricity on {len(metrics)} metrics "
        f"({len(metrics) - refuted} concentric, {refuted} refuted with negative gaps)",
    )


def test_criterion_4_top_jump_theorem():
    u4 = default_universe(4)
    cc = make_rule("cc", 4, 2)
    trivial = make_metric("trivial", 4)
    verdict = robustness_verdict(cc, trivial)
    assert verdict.status == "degenerate_not_robust"
    ground = committee_of(u4, ["a", "b"])
    model = staggered_level_model(trivial, ground, u4)
    rates = accuracy_trial(cc, model, n=2000, trials=500, seed=20240)
    assert rates.recovery <= Fraction(55, 100), rates
    robust_count = 0
    for kind in ("av", "pav", "sav", "mc"):
        rule = make_rule(kind, 4, 2)
        for i in range(30):
            metric = random_metric(4, seed=[4, i], family="signature", monotone=True)
            assert robustness_verdict(rule, metric).status == "robust", (kind, i)
            robust_count += 1
    _report(
        4,
        robust_count == 120,
        f"CC/trivial degenerate, recovery {float(rates.recovery):.3f} <= 0.55; "
        f"{robust_count}/120 robust on natural metrics",
    )


def test_criterion_5_similarity_corollary():
    combos = [(4, 2), (5, 2), (5, 3)]
    kinds = ["av", "cc", "pav", "sav", "mc", "sainte_lague"]
    checked = 0
    for m, k in combos:
        rules = [make_rule(kind, m, k) for kind in kinds]
        rules.append(make_rule("p_geometric", m, k, p=Fraction(1, 2)))
        if (m, k) == (4, 2):
            rules.append(make_rule("special6_f", 4, 2))
            rules.append(make_rule("special6_fprime", 4, 2))
        for rule in rules:
            if not is_nontrivial(rule):
                continue
            for metric_kind in ("set_difference", "jaccard", "zelinka", "bunke_shearer"):
                verdict = robustness_verdict(rule, make_metric(metric_kind, m))
                assert verdict.status == "robust", (rule.name, metric_kind, m, k)
                checked += 1
    _report(5, checked > 0, f"{checked} (nontrivial rule, similarity metric) cells all robust")


def test_criterion_6_alternative_independent_rule():
    u4 = default_universe(4)
    rule = make_rule("special6_f", 4, 2)
    for i in range(100):
        metric = random_metric(4, seed=[6, i], family="signature", monotone=(i % 5 == 4))
        assert robustness_verdict(rule, metric).status == "robust", i

    # closed forms, symbolically: aggregate the per-vote score gaps by the
    # probability class (|ground ∩ S|, |S|) by direct enumeration
    ground = committee_of(u4, ["a", "b"])
    expected_by_rival = {
        ("a", "c"): {(2, 2): Fraction(1), (0, 2): Fraction(-1)},
        ("c", "d"): {(2, 2): Fraction(2), (0, 2): Fraction(-2)},
    }
    for rival_names, expected in expected_by_rival.items():
        rival = committee_of(u4, list(rival_names))
        coeffs = {}
        for mask in range(16):
            vote = AlternativeSet(mask, 4)
            g = vote_score(rule, ground, vote) - vote_score(rule, rival, vote)
            if g:
                key = ((ground.mask & mask).bit_count(), mask.bit_count())
                coeffs[key] = coeffs.get(key, Fraction(0)) + g
        coeffs = {key: value for key, value in coeffs.items() if value}
        assert coeffs == expected, (rival_names, coeffs)

    # and the oracle reproduces them exactly on alternative-independent models
    for i in range(10):
        metric = random_metric(4, seed=[61, i], family="signature")
        model = random_strict_model(metric, ground, np.random.default_rng(i))
        table = reference.prob_table(model)
        p22 = table[ground.mask]
        p02 = table[u4.set_of(["c", "d"]).mask]
        for rival_names, expected in expected_by_rival.items():
            rival = committee_of(u4, list(rival_names))
            analysis = gap_analysis(rule, metric, ground, rival)
            gap = analysis.gap_for_level_probs(model.level_probs)
            closed = sum(
                (coeff * (p22 if key == (2, 2) else p02) for key, coeff in expected.items()),
                Fraction(0),
            )
            assert gap == closed == expected_gap(rule, model, ground, rival)
            assert gap > 0
    _report(6, True, "100 alt-independent metrics robust; class-probability closed forms exact")


def test_criterion_7_mle_theorem():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, m) + 1))
        n = int(rng.integers(1, 13))
        profile = random_profile(m, n, rng)
        results = [
            mle_committees(profile, p, m, k)
            for p in (Fraction(2, 3), Fraction(3, 4), Fraction(9, 10))
        ]
        for result in results:
            assert result.agree
        assert results[0].by_distance == results[1].by_distance == results[2].by_distance
        # independent oracle: exact likelihood products
        p = Fraction(2, 3)
        best, best_masks = None, []
        from abcc.core import committee_masks

        for cmask in committee_masks(m, k):
            likelihood = Fraction(1)
            for vote in profile:
                d = (vote.mask ^ cmask).bit_count()
                likelihood *= p ** (m - d) * (1 - p) ** d
            if best is None or likelihood > best:
                best, best_masks = likelihood, [cmask]
            elif likelihood == best:
                best_masks.append(cmask)
        assert [c.mask for c in results[0].by_distance] == best_masks
        checked += 1
    _report(7, checked == 200, f"{checked}/200 profiles: likelihood == distance == score routes")


def test_criterion_8_hoeffding_bound():
    t0 = time.monotonic()
    u4 = default_universe(4)
    av = make_rule("av", 4, 2)
    from abcc.noise import make_mp

    model = make_mp(Fraction(3, 4), u4, committee_of(u4, ["a", "b"]))
    bound = sample_size_bound(av, model, 0.05)
    rates = accuracy_trial(av, model, n=bound.n, trials=1000, seed=4242)
    failure = 1 - rates.recovery
    elapsed = time.monotonic() - t0
    _report(
        8,
        failure <= Fraction(1, 20) and elapsed < 120,
        f"n_eps={bound.n}, empirical failure {float(failure):.4f} <= 0.05 in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_9_oracle_internal_consistency():
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 500:
        m = int(rng.integers(3, 7))
        k = int(rng.integers(2, min(3, m - 1) + 1))
        u = default_universe(m)
        rule = random_rule(m, k, rng)
        metric = _mixed_random_metric(m, (9, checked), checked)
        from abcc.core import committee_masks

        masks = committee_masks(m, k)
        umask, vmask = rng.choice(masks, size=2, replace=False)
        ground = Committee(AlternativeSet(int(umask), m), k)
        rival = Committee(AlternativeSet(int(vmask), m), k)
        model = random_strict_model(metric, ground, rng)
        analysis = gap_analysis(rule, metric, ground, rival)
        direct = expected_gap(rule, model, ground, rival)
        assert analysis.gap_for_level_probs(model.level_probs) == direct
        assert analysis.gap_by_parts(model.level_probs) == direct
        mu = uv_bijection(ground, rival)
        for s in range(1 << m):
            image = mu.map_mask(s)
            assert s.bit_count() == image.bit_count()
            assert (ground.mask & s).bit_count() == (rival.mask & image).bit_count()
            assert (ground.mask & image).bit_count() == (rival.mask & s).bit_count()
        checked += 1
    _report(9, checked == 500, f"{checked}/500 instances: two-route equality and swap identities exact")


def test_criterion_10_reproducibility(tmp_path, capsys):
    commands = [
        [
            "converge", "--rule", "av", "--model", "mp", "--p", "3/4", "--m", "4",
            "--k", "2", "--ground", "a,b", "--n-grid", "10,50", "--trials", "40",
            "--seed", "6060",
        ],
        [
            "sample", "--model", "mp", "--p", "4/5", "--m", "6", "--k", "3",
            "--ground", "a,b,c", "--n", "200", "--seed", "6061",
        ],
        [
            "hierarchy", "--rules", "av,cc,mc", "--metrics", "set_difference,trivial",
            "--m", "4", "--k", "2",
        ],
        [
            "mle-check", "--p", "3/4", "--m", "4", "--k", "2", "--profiles", "30",
            "--seed", "6062",
        ],
    ]
    for index, argv in enumerate(commands):
        dir_a = tmp_path / f"a{index}"
        dir_b = tmp_path / f"b{index}"
        assert main(argv + ["--out", str(dir_a)]) == 0
        assert main(argv + ["--out", str(dir_b)]) == 0
        files_a = sorted(p.name for p in dir_a.iterdir() if p.name != "manifest.jsonl")
        files_b = sorted(p.name for p in dir_b.iterdir() if p.name != "manifest.jsonl")
        assert files_a == files_b and files_a
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    capsys.readouterr()
    _report(10, True, "byte-identical CSV/JSON across reruns for 4 commands (manifests excluded)")
