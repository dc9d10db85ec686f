"""Desk-scale reproduction experiments behind the ``reproduce`` CLI command.

Each claim runner re-derives one benchmark family's advertised numbers from
scratch, checks them at fixed tolerances, and returns a plain dict ready for
JSON emission: ``ok`` overall, one entry per check, and every intermediate
number. The acceptance test suite drives the same runners.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from metricdist.distortion import (
    a_det,
    a_rand,
    dist_det,
    dist_rand,
    fairness_det,
    fairness_rand,
)
from metricdist.instanceopt import candidate_response_value, opt_det, opt_rand
from metricdist.metricspace import (
    complete_metric,
    is_consistent,
    is_q_metric,
    percentile_cost,
    random_box_q_metric,
    random_line_metric,
    social_cost,
    top_k_ratio,
)
from metricdist.profiles import (
    PreferenceProfile,
    coupling_instance,
    line_split_instance,
    percentile_gap_instance,
    random_profile,
    ranked_pairs_hard_instance,
    symmetric_tournament_instance,
    warmup_instance,
)
from metricdist.rules import (
    copeland,
    lexicographic_pairs,
    randomized_dictatorship,
    ranked_pairs,
    schulze,
)
from metricdist.tournament import build_weighted

__all__ = ["CLAIM_IDS", "run_claim"]

class _Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def close(self, name, got, want, tol):
        ok = abs(got - want) <= tol
        self.add(name, ok, f"got {got!r}, want {want!r} (tol {tol})")

    def equal(self, name, got, want):
        ok = got == want
        self.add(name, ok, f"got {got!r}, want {want!r} (exact)")

    def at_least(self, name, got, bound):
        ok = got >= bound
        self.add(name, ok, f"got {got!r}, need >= {bound!r}")

    def at_most(self, name, got, bound):
        ok = got <= bound
        self.add(name, ok, f"got {got!r}, need <= {bound!r}")

    @property
    def ok(self):
        return all(item["ok"] for item in self.items)

    def report(self, claim, started, extra=None):
        out = {
            "claim": claim,
            "ok": self.ok,
            "elapsed_s": time.perf_counter() - started,
            "checks": self.items,
        }
        failures = [item for item in self.items if not item["ok"]]
        if failures:
            out["first_failure"] = failures[0]
        if extra:
            out.update(extra)
        return out


def run_claim(claim_id: str, seed: int = 42, trials: int | None = None, eps: float = 1e-4):
    """Run one reproduction experiment; returns its JSON-ready report dict.

    Raises:
        ValueError: ``claim_id`` is unknown, or ``eps`` is not positive and
            finite (only ``optimality-suite`` uses it, but every claim
            records it).
    """
    if claim_id not in _RUNNERS:
        raise ValueError(f"unknown claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    report = _RUNNERS[claim_id](seed=seed, trials=trials, eps=eps)
    report["seed"] = seed
    return report


def _claim_warmup(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    inst = warmup_instance()

    det = dist_det(0, inst.profile)
    checks.close("deterministic worst ratio for alternative 1", det.value, 3.0, 1e-6)

    rand = dist_rand(np.full(3, 1 / 3), inst.profile)
    checks.close("uniform-lottery worst ratio", rand.value, 2.0, 1e-6)

    ratios = [top_k_ratio(inst.metric, np.eye(3)[0], k) for k in range(1, 4)]
    checks.equal("fixed-metric top-k ratios", ratios, [3.0, 2.5, 3.0])

    elapsed = time.perf_counter() - started
    checks.at_most("runtime seconds", elapsed, 1.0)
    return checks.report(
        "warmup",
        started,
        {"det": det.value, "rand": rand.value, "fairness_fixture": max(ratios)},
    )


def _claim_example1(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    table = []
    for n in range(1, 11):
        inst = coupling_instance(n)
        ratio = social_cost(inst.metric, 0) / social_cost(inst.metric, 4)
        expected = (11 * n + 2) / (3 * n + 2)
        checks.equal(f"n={n}: constructed ratio", ratio, expected)
        checks.equal(f"n={n}: ratio exceeds 3", ratio > 3, n >= 3)
        table.append({"n": n, "ratio": ratio})
    return checks.report("example1", started, {"table": table})


def _hard_instance_tie_orders(n, num_pairs_weights, rng, shuffles):
    """Edge priority orders exercising the tie-break claim.

    For n=2 every permutation of the decisive heaviest-weight group is
    enumerated (lighter groups get fresh shuffles); all n additionally get
    ``shuffles`` full shuffled orders.
    """
    pairs, w = num_pairs_weights
    orders = []
    if n == 2:
        heavy = [p for p in pairs if w[p] == n + 1]
        rest = [p for p in pairs if w[p] != n + 1]
        for perm in itertools.permutations(heavy):
            tail = list(rest)
            rng.shuffle(tail)
            orders.append(list(perm) + tail)
    for _ in range(shuffles):
        orders.append([pairs[k] for k in rng.permutation(len(pairs))])
    return orders


def _claim_thm2(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    rng = np.random.default_rng(seed)
    shuffles = trials if trials is not None else 1000
    table = []
    for n in range(2, 13):
        inst = ranked_pairs_hard_instance(n)
        profile = inst.profile
        m = 2 * n + 1
        w = build_weighted(profile).weights

        cycle = {(i, i + 1) for i in range(m - 1)}
        weights_ok = all(
            w[i, j] == n + 1 if (i, j) in cycle else w[i, j] <= n
            for i in range(m)
            for j in range(m)
            if i != j
        )
        checks.add(f"n={n}: cycle edges weigh n+1, others at most n", weights_ok)

        pairs = lexicographic_pairs(m)
        orders = _hard_instance_tie_orders(n, (pairs, w), rng, shuffles)
        rp_ok = all(
            ranked_pairs(profile, edge_tie_break=order).winner == 0
            for order in orders
        )
        checks.add(
            f"n={n}: ranked pairs picks alternative 1 over {len(orders)} tie orders",
            rp_ok,
        )

        base = schulze(profile)
        strict = base.audit["co_winners"] == [0]
        # tie_break acts only among co_winners, so a strict winner wins
        # under every tie order.
        checks.add(f"n={n}: strongest paths strictly favour alternative 1", strict)

        checks.add(
            f"n={n}: constructed metric admissible and consistent",
            is_q_metric(inst.metric)[0] and is_consistent(inst.metric, profile)[0],
        )
        ratio = social_cost(inst.metric, 0) / social_cost(inst.metric, m - 1)
        checks.equal(f"n={n}: constructed ratio", ratio, (5 * n + 4) / (n + 4))

        # LP lower bound on the worst ratio of alternative 1. The worst-case
        # ratio is a max over opponents, so the designated opponent's LP
        # already certifies it; small n also run the full max.
        bound = (5 * n + 4) / (n + 4) - 1e-6
        lp_value, _ = a_det(0, m - 1, profile)
        checks.at_least(f"n={n}: LP value vs designated opponent", lp_value, bound)
        if n <= 5:
            full = dist_det(0, profile).value
            checks.at_least(f"n={n}: full worst-case ratio", full, bound)
            checks.at_least(f"n={n}: full ratio at least designated", full, lp_value - 1e-9)
        table.append({"n": n, "winner": 0, "ratio": ratio, "lp_value": lp_value})

    trend = [row["ratio"] for row in table]
    checks.add(
        "constructed ratios increase toward 5 (reported, not asserted as limit)",
        all(a < b for a, b in zip(trend, trend[1:])) and trend[-1] < 5.0,
    )
    elapsed = time.perf_counter() - started
    checks.at_most("runtime seconds", elapsed, 60.0)
    return checks.report("thm2", started, {"table": table})


def _claim_thm3(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    table = []
    for m in range(2, 9):
        inst = symmetric_tournament_instance(m)
        w = build_weighted(inst.profile).weights
        off = w[~np.eye(m + 1, dtype=bool)]
        checks.add(f"m={m}: every pairwise count equals m", (off == m).all())

        sums = inst.metric.values.sum(axis=0)
        checks.equal(
            f"m={m}: constructed column sums",
            sums.tolist(),
            [float(m)] + [float(3 * m)] * m,
        )

        uniform = np.full(m + 1, 1 / (m + 1))
        expected = 3 - 2 / (m + 1)
        value, _ = a_rand(uniform, 0, inst.profile)
        checks.at_least(f"m={m}: LP value at the hidden optimum", value, expected - 1e-6)

        achieved = Fraction(m + 3 * m * m, m + 1) / Fraction(m)
        checks.equal(
            f"m={m}: constructed metric value under the uniform lottery",
            achieved,
            Fraction(3) - Fraction(2, m + 1),
        )
        table.append({"m": m, "lp_value": value, "target": expected})
    return checks.report("thm3", started, {"table": table})


def _random_suite_profiles(rng, count, max_agents, max_alts, min_alts=2):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_agents + 1))
        m = int(rng.integers(min_alts, max_alts + 1))
        out.append(random_profile(n, m, rng))
    return out


def _claim_thm4(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    rng = np.random.default_rng(seed)
    count = trials if trials is not None else 200

    worst = 0.0
    ok = True
    for profile in _random_suite_profiles(rng, count, 6, 6):
        value = dist_det(copeland(profile).winner, profile).value
        worst = max(worst, value)
        ok = ok and value <= 5 + 1e-6
    checks.add(
        f"worst ratio of the pairwise-victories winner over {count} profiles "
        f"(max seen {worst:.6f})",
        ok,
    )

    fairness_count = max(1, trials // 4) if trials is not None else 50
    worst_fair = 0.0
    fair_ok = True
    for profile in _random_suite_profiles(rng, fairness_count, 7, 5):
        report = fairness_det(copeland(profile).winner, profile)
        worst_fair = max(worst_fair, report.value)
        fair_ok = fair_ok and report.value <= 5 + 1e-6
    checks.add(
        f"top-k fairness of the same winner over {fairness_count} profiles "
        f"(max seen {worst_fair:.6f})",
        fair_ok,
    )
    elapsed = time.perf_counter() - started
    checks.at_most("runtime seconds", elapsed, 600.0)
    return checks.report(
        "thm4-suite", started, {"max_distortion": worst, "max_fairness": worst_fair}
    )


def _claim_thm5(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    rng = np.random.default_rng(seed)
    count = trials if trials is not None else 200

    worst = 0.0
    ok = True
    # Anshelevich and Postl: the top-choice lottery is within 3 - 2/N.
    worst_share = 0.0
    for profile in _random_suite_profiles(rng, count, 6, 6):
        x = randomized_dictatorship(profile).distribution
        value = dist_rand(x, profile).value
        worst = max(worst, value)
        ok = ok and value <= 3 + 1e-6
        worst_share = max(worst_share, value / (3 - 2 / profile.num_agents))
    checks.add(
        f"worst expected ratio of the top-choice lottery over {count} profiles "
        f"(max seen {worst:.6f})",
        ok,
    )
    checks.add(
        f"the same ratios at most 3 - 2/N (max seen {worst_share:.6f} of it)",
        worst_share <= 1 + 1e-9,
    )

    tiny_count = max(1, trials // 6) if trials is not None else 30
    worst_fair = 0.0
    fair_ok = True
    exact_all = True
    for profile in _random_suite_profiles(rng, tiny_count, 5, 3):
        x = randomized_dictatorship(profile).distribution
        report = fairness_rand(x, profile)
        exact_all = exact_all and all(report.exact_k.values())
        value = report.value_bounds[0]
        worst_fair = max(worst_fair, value)
        fair_ok = fair_ok and value <= 3 + 1e-6
    checks.add("tiny-profile fairness enumerations all ran exactly", exact_all)
    checks.add(
        f"exact expected top-k fairness over {tiny_count} tiny profiles "
        f"(max seen {worst_fair:.6f})",
        fair_ok,
    )
    return checks.report(
        "thm5-suite", started, {"max_distortion": worst, "max_fairness": worst_fair}
    )


def _claim_example2(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    alpha = 0.25
    ratios = {}
    for eps_cost in (0.1, 0.01):
        inst = percentile_gap_instance(2, eps_cost)
        ratio = percentile_cost(inst.metric, 0, alpha) / percentile_cost(
            inst.metric, 1, alpha
        )
        ratios[eps_cost] = ratio
        checks.equal(f"eps={eps_cost}: percentile ratio", ratio, 1.0 / eps_cost)
    checks.add(
        "ratio grows strictly as eps shrinks (unboundedness evidence)",
        ratios[0.01] > ratios[0.1],
    )
    inst = percentile_gap_instance(1, 1.0)
    checks.equal(
        "eps=1 equalizes the percentile costs",
        percentile_cost(inst.metric, 0, alpha) / percentile_cost(inst.metric, 1, alpha),
        1.0,
    )
    return checks.report("example2", started, {"ratios": ratios})


def _claim_example3(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    ratios = {}
    for n1, n2 in ((100, 1), (1000, 1)):
        inst = line_split_instance(n1, n2)
        x = randomized_dictatorship(inst.profile).distribution
        checks.equal(
            f"(n1,n2)=({n1},{n2}): lottery",
            x.tolist(),
            [n1 / (n1 + n2), n2 / (n1 + n2)],
        )
        col_sums = inst.metric.values.sum(axis=0)
        expected_sq = float(x @ (col_sums**2))
        optimal_sq = float((col_sums**2).min())
        ratio = expected_sq / optimal_sq
        ratios[(n1, n2)] = ratio
        checks.equal(f"(n1,n2)=({n1},{n2}): squared-sum ratio", ratio, n1 / n2)
    checks.add(
        "squared-sum ratio grows with the bloc imbalance",
        ratios[(1000, 1)] > ratios[(100, 1)],
    )
    inst = line_split_instance(1, 1)
    x = randomized_dictatorship(inst.profile).distribution
    col_sums = inst.metric.values.sum(axis=0)
    checks.equal(
        "(n1,n2)=(1,1): symmetric ratio",
        float(x @ (col_sums**2)) / float((col_sums**2).min()),
        1.0,
    )
    return checks.report(
        "example3", started, {"ratios": {f"{k}": v for k, v in ratios.items()}}
    )


def _claim_lemma1(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    rng = np.random.default_rng(seed)
    count = trials if trials is not None else 500

    worst = -math.inf
    ok = True
    fixtures = [
        warmup_instance().metric,
        coupling_instance(2).metric,
        ranked_pairs_hard_instance(3).metric,
        symmetric_tournament_instance(3).metric,
    ]
    metrics = list(fixtures)
    while len(metrics) < count + len(fixtures):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        if rng.random() < 0.75:
            metrics.append(random_line_metric(n, m, rng))
        else:
            metrics.append(random_box_q_metric(min(n, 4), min(m, 4), rng))
    for d in metrics:
        full = complete_metric(d)
        violation = full.max_triangle_violation()
        worst = max(worst, violation)
        ok = ok and violation <= 1e-9 and full.max_symmetry_violation() == 0.0
    checks.add(
        f"metric completion satisfies every triangle over {len(metrics)} matrices "
        f"(worst violation {worst:.3e})",
        ok,
    )
    return checks.report("lemma1-suite", started, {"count": len(metrics)})


def _claim_optimality(seed, trials, eps):
    started = time.perf_counter()
    checks = _Checks()
    rng = np.random.default_rng(seed)
    # The relations draw from their own stream, so the profiles stay those
    # of the seed.
    relation_rng = np.random.default_rng([seed, 1])
    count = trials if trials is not None else 12
    for idx in range(count):
        profile = random_profile(int(rng.integers(2, 6)), int(rng.integers(2, 5)), rng)
        det = opt_det(profile)
        rand = opt_rand(profile, eps=eps)
        rd = dist_rand(randomized_dictatorship(profile).distribution, profile)
        _, response = candidate_response_value(profile, matrix=det.matrix)

        checks.at_most(f"[{idx}] lottery value vs best winner", rand.value, det.value + eps)
        checks.at_most(f"[{idx}] lottery value vs top-choice lottery", rand.value, rd.value + eps)
        # Plurality Veto's winner is within 3 (Kizilkaya and Kempe, IJCAI 2022).
        checks.at_most(f"[{idx}] best winner within 3", det.value, 3 * (1 + 1e-9))
        for rule_fn in (copeland, ranked_pairs, schulze):
            rule_value = dist_det(rule_fn(profile).winner, profile).value
            checks.at_most(
                f"[{idx}] best winner vs {rule_fn.__name__}", det.value, rule_value + 1e-6
            )
        checks.at_least(f"[{idx}] response-game value", response, rand.value - 2 * eps)
        # The last master value is a lower bound that the lottery's value
        # exceeds by at most eps / 2; round-off may put it a hair above.
        lower = float(rand.state.master_values[-1])
        checks.at_least(f"[{idx}] lottery value vs master bound", rand.value, lower * (1 - 1e-9))
        checks.at_most(f"[{idx}] lottery value within eps/2", rand.value, lower + eps / 2)
        _check_relations(checks, idx, profile, relation_rng, eps)
    return checks.report("optimality-suite", started, {"instances": count})


def _check_relations(checks, idx, profile, rng, eps):
    """Metamorphic relations, each a check of the largest relative gap.

    Relabeling the alternatives permutes every output, permuting the agents
    changes none, and cloning the electorate (every agent twice) keeps every
    ratio and moves fairness at k to 2k.
    """
    n, m = profile.num_agents, profile.num_alternatives
    winner, x = int(rng.integers(m)), rng.dirichlet(np.ones(m))
    base = _relation_outcomes(profile, winner, x, eps)
    perm = rng.permutation(m)  # alternative c is renamed perm[c]
    relabeled = PreferenceProfile(perm[profile.rankings])
    relabeled = _relation_outcomes(relabeled, int(perm[winner]), x[np.argsort(perm)], eps)
    shuffled = _relation_outcomes(
        profile.with_agents_permuted(rng.permutation(n)), winner, x, eps
    )
    cloned = _relation_outcomes(
        PreferenceProfile(np.repeat(profile.rankings, 2, axis=0)), winner, x, eps
    )
    relations = (
        ("relabeling alternatives permutes", relabeled, lambda a, k: (perm[list(a)], k)),
        ("permuting agents keeps", shuffled, lambda a, k: (a, k)),
        ("cloning the electorate keeps (k to 2k)", cloned, lambda a, k: (a, 2 * k)),
    )
    for name, got, rename in relations:
        gap = _relation_gap(base, got, rename)
        checks.at_most(f"[{idx}] {name} every output (relative gap)", gap, 1e-9)


def _relation_outcomes(profile, winner, x, eps):
    """Every output the relations compare, keyed ``(name, alternatives, k)``.

    ``alternatives`` is the tuple of alternatives the value belongs to, and
    ``k`` is fairness' k, 0 elsewhere.
    """
    det = opt_det(profile)
    out = {
        ("opt_rand", (), 0): opt_rand(profile, eps=eps).value,
        ("response", (), 0): candidate_response_value(profile, matrix=det.matrix)[1],
    }
    for (c, z), value in np.ndenumerate(det.matrix):
        out["opt_det", (c, z), 0] = float(value)
    reports = {"dist_det": dist_det(winner, profile), "dist_rand": dist_rand(x, profile)}
    for name, report in reports.items():
        for z, value in report.per_opponent.items():
            out[name, (z,), 0] = value
    for k, value in fairness_det(winner, profile).per_k.items():
        out["fairness", (), k] = value
    return out


def _relation_gap(base, got, rename):
    """Largest relative gap between ``base`` and ``got`` under ``rename``.

    ``rename(alternatives, k)`` gives the alternatives and k of a base key
    in ``got``. Infinite when a key is missing or infinities differ.
    """
    worst = 0.0
    for (name, alternatives, k), want in base.items():
        renamed, k = rename(alternatives, k)
        have = got.get((name, tuple(int(a) for a in renamed), k))
        if have is None:
            return math.inf
        if math.isinf(want) or math.isinf(have):
            if want != have:
                return math.inf
            continue
        worst = max(worst, abs(have - want) / max(1.0, abs(want)))
    return worst


# claim id -> runner, in the order the CLI lists them
_RUNNERS = {
    "warmup": _claim_warmup,
    "example1": _claim_example1,
    "thm2": _claim_thm2,
    "thm3": _claim_thm3,
    "thm4-suite": _claim_thm4,
    "thm5-suite": _claim_thm5,
    "example2": _claim_example2,
    "example3": _claim_example3,
    "lemma1-suite": _claim_lemma1,
    "optimality-suite": _claim_optimality,
}
CLAIM_IDS = tuple(_RUNNERS)
