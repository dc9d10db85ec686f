"""The benchmark's three workloads: input generation, requests and checks.

Every workload is a closed loop of independent requests against the public
``metricdist`` API. Inputs are generated by this module from a seed, before
timing starts; the program only ever sees the generated profiles (``certify``,
``optimize``) or profile text (``tally``).

Sizes are drawn by stratified sampling: every block of requests holds each
size cell exactly once (``certify``, ``optimize``), or one size from each
equal-width stratum of N and of M, the strata paired and ordered the same
way for every seed (``tally``). The marginals stay uniform, but two seeds get the same mix
of sizes, so run-to-run spread comes from the profiles
themselves and not from how many large ones a seed happened to draw.

Each request's outputs are reduced to a small JSON-able record outside the
timed region. Records are checked against seed-independent invariants, and,
for the default seed, against a stored reference.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import metricdist

DEFAULT_SEED = 1
# Warm-up requests are drawn from this fixed seed, so set-up does the same
# work on every run and the warm-up result can be checked against the
# stored reference on every run, whatever the workload seed.
WARMUP_SEED = 20161209

OPT_EPS = 1e-4  # metricdist.instanceopt.DEFAULT_EPS, the eps opt_rand runs at
VALUE_TOL = 1e-6


def _random_rankings(rng, n, m):
    """``n`` independent uniform permutations of ``0..m-1``, one per row."""
    return np.argsort(rng.random((n, m)), axis=1)


def _pairwise_support(rankings):
    """``w[i, j]`` = number of agents ranking ``i`` above ``j``.

    Computed pair by pair, independently of ``metricdist.tournament``.
    """
    n, m = rankings.shape
    pos = np.empty_like(rankings)
    pos[np.arange(n)[:, None], rankings] = np.arange(m)
    w = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            if i != j:
                w[i, j] = int(np.count_nonzero(pos[:, i] < pos[:, j]))
    return w


def _condorcet_winner(w, n):
    """Alternative beating every other by a strict majority, or ``None``."""
    beats = 2 * w > n
    for c in range(w.shape[0]):
        if beats[c].sum() == w.shape[0] - 1:
            return c
    return None


def _copeland_winner(w, n):
    """Copeland with index-order tie-breaking (the library default)."""
    m = w.shape[0]
    wins = (2 * w > n) | ((2 * w == n) & (np.arange(m)[:, None] < np.arange(m)))
    np.fill_diagonal(wins, False)
    return int(np.argmax(wins.sum(axis=1)))


def encode(value):
    """JSON-safe float: infinities become the string ``"inf"``."""
    value = float(value)
    return value if math.isfinite(value) else "inf"


def decode(value):
    return math.inf if value == "inf" else float(value)


def _close(a, b, tol):
    a, b = decode(a), decode(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    why = ""
    pool_size = 0  # requests generated per run; the loop cycles if it runs out
    # Calibration kernel: tableau rows, columns, repeats, pivots per repeat.
    # Measured on a shared machine, this shape tracked the slowdown of the
    # workload best (certify's larger tableaux slow less than small ones).
    kernel_tableau = (30, 60, 6, 25)

    def make_requests(self, rng, count):
        raise NotImplementedError

    def run(self, request):
        """The timed part: one request against the program."""
        raise NotImplementedError

    def summarize(self, request, output):
        """Reduce one output to a JSON-able record (untimed)."""
        raise NotImplementedError

    def invariants(self, record):
        """Seed-independent checks; returns a list of violation messages."""
        raise NotImplementedError

    def compare(self, record, reference):
        """Differences from a stored reference record, as messages."""
        raise NotImplementedError

    def census(self, record):
        """Input and outcome properties a later optimization may depend on."""
        raise NotImplementedError


class _CellWorkload(Workload):
    """Random small profiles, one per request, drawn cell by cell."""

    cells = ()

    def make_requests(self, rng, count):
        requests = []
        while len(requests) < count:
            for k in rng.permutation(len(self.cells)):
                n, m = self.cells[k]
                requests.append(
                    metricdist.PreferenceProfile(_random_rankings(rng, n, m))
                )
        return requests[:count]

    @staticmethod
    def _truth(profile):
        rankings = np.asarray(profile.rankings)
        n = rankings.shape[0]
        w = _pairwise_support(rankings)
        return {
            "n": n,
            "m": rankings.shape[1],
            "condorcet": _condorcet_winner(w, n),
            "top_counts": np.bincount(
                rankings[:, 0], minlength=rankings.shape[1]
            ).tolist(),
        }


class Certify(_CellWorkload):
    name = "certify"
    why = (
        "the paper's core query: worst-case distortion of four rules, almost "
        "all time in linprog pivots under distortion's row generation"
    )
    # N 4..6: with N = 7 the 7 x 6 cell alone takes a third of a run, and its
    # heavy tail (requests of 0.3 to 1.5 s) moved throughput by 15 % from
    # seed to seed.
    cells = tuple((n, m) for n in range(4, 7) for m in range(4, 7))
    pool_size = 3072
    kernel_tableau = (80, 200, 3, 20)

    def run(self, profile):
        winners = (
            metricdist.copeland(profile).winner,
            metricdist.ranked_pairs(profile).winner,
            metricdist.schulze(profile).winner,
        )
        lottery = metricdist.randomized_dictatorship(profile).distribution
        det = {w: metricdist.dist_det(w, profile) for w in sorted(set(winners))}
        rand = metricdist.dist_rand(lottery, profile)
        return winners, lottery, det, rand

    def summarize(self, profile, output):
        winners, lottery, det, rand = output
        record = self._truth(profile)
        record.update(
            winners=[int(w) for w in winners],
            lottery=[float(p) for p in lottery],
            dist_det={str(w): encode(r.value) for w, r in det.items()},
            dist_rand=encode(rand.value),
            unreachable=any(
                math.isinf(v)
                for r in (*det.values(), rand)
                for v in r.per_opponent.values()
            ),
        )
        return record

    def invariants(self, record):
        bad = []
        n = record["n"]
        copeland_w = str(record["winners"][0])
        if decode(record["dist_det"][copeland_w]) > 5 + VALUE_TOL:
            bad.append(f"Copeland distortion {record['dist_det'][copeland_w]} > 5")
        if decode(record["dist_rand"]) > 3 + VALUE_TOL:
            bad.append(f"RD distortion {record['dist_rand']} > 3")
        for value in (*record["dist_det"].values(), record["dist_rand"]):
            if decode(value) < 1 - VALUE_TOL:
                bad.append(f"distortion {value} < 1")
        expected = [c / n for c in record["top_counts"]]
        if any(abs(a - b) > 1e-12 for a, b in zip(record["lottery"], expected)):
            bad.append("RD lottery differs from top-choice counts / N")
        cw = record["condorcet"]
        if cw is not None and any(w != cw for w in record["winners"]):
            bad.append(f"Condorcet winner {cw} not elected: {record['winners']}")
        return bad

    def compare(self, record, ref):
        bad = []
        if record["winners"] != ref["winners"]:
            bad.append(f"winners {record['winners']} != {ref['winners']}")
        elif set(record["dist_det"]) != set(ref["dist_det"]) or not all(
            _close(record["dist_det"][w], ref["dist_det"][w], VALUE_TOL)
            for w in ref["dist_det"]
        ):
            bad.append(f"dist_det {record['dist_det']} != {ref['dist_det']}")
        if not _close(record["dist_rand"], ref["dist_rand"], VALUE_TOL):
            bad.append(f"dist_rand {record['dist_rand']} != {ref['dist_rand']}")
        return bad

    def census(self, record):
        return {
            "unreachable": record["unreachable"],
            "single_winner": len(set(record["winners"])) == 1,
            "condorcet": record["condorcet"] is not None,
        }


class Optimize(_CellWorkload):
    name = "optimize"
    why = (
        "many small LPs over one warm polytope: instanceopt cutting planes, "
        "response game and top-k fairness, fixed per-LP costs dominate"
    )
    # Sizes are capped so that a run holds over 100 requests, the least for
    # a p90 with ten samples beyond it: a 5 x 5 request takes about 1 s and
    # a 6 x 5 one about 2.4 s on a 2-core x86-64 machine.
    cells = tuple((n, m) for n in range(3, 6) for m in range(3, 5))
    pool_size = 1152

    def run(self, profile):
        det = metricdist.opt_det(profile)
        rand = metricdist.opt_rand(profile)
        response = metricdist.candidate_response_value(profile, matrix=det.matrix)
        fairness = metricdist.fairness_det(det.winner, profile)
        return det, rand, response, fairness

    def summarize(self, profile, output):
        det, rand, (_, response), fairness = output
        record = self._truth(profile)
        row_max = det.matrix.max(axis=1)
        record.update(
            opt_det_winner=int(det.winner),
            opt_det=encode(det.value),
            opt_det_ties=int(np.sum(row_max <= det.value + 1e-9)),
            opt_rand=encode(rand.value),
            opt_rand_x=[float(p) for p in rand.x],
            response=encode(response),
            fairness=[encode(fairness.per_k[k]) for k in sorted(fairness.per_k)],
            unreachable=bool(np.isinf(det.matrix).any()),
        )
        return record

    def invariants(self, record):
        bad = []
        det, rand = decode(record["opt_det"]), decode(record["opt_rand"])
        response = decode(record["response"])
        if rand > det + OPT_EPS:
            bad.append(f"opt_rand {rand} > opt_det {det} + eps")
        if response < rand - 2 * OPT_EPS:
            bad.append(f"response {response} < opt_rand {rand} - 2 eps")
        if response > det + VALUE_TOL:
            bad.append(f"response {response} > opt_det {det}")
        values = [det, rand, response] + [decode(v) for v in record["fairness"]]
        if any(v < 1 - VALUE_TOL for v in values):
            bad.append(f"a ratio below 1 in {values}")
        x = record["opt_rand_x"]
        if min(x) < -1e-9 or abs(sum(x) - 1.0) > 1e-9:
            bad.append(f"opt_rand lottery {x} is not a distribution")
        # With k = N the top-k sum is the total cost, so the fairness ratio
        # for k = N is the winner's worst-case distortion.
        if not _close(record["fairness"][-1], record["opt_det"], VALUE_TOL):
            bad.append(f"fairness at k=N {record['fairness'][-1]} != opt_det {det}")
        return bad

    def compare(self, record, ref):
        bad = []
        if record["opt_det_winner"] != ref["opt_det_winner"] or not _close(
            record["opt_det"], ref["opt_det"], VALUE_TOL
        ):
            bad.append(
                f"opt_det {record['opt_det_winner']}:{record['opt_det']} != "
                f"{ref['opt_det_winner']}:{ref['opt_det']}"
            )
        if not _close(record["opt_rand"], ref["opt_rand"], 2 * OPT_EPS):
            bad.append(f"opt_rand {record['opt_rand']} != {ref['opt_rand']}")
        if not _close(record["response"], ref["response"], VALUE_TOL):
            bad.append(f"response {record['response']} != {ref['response']}")
        if len(record["fairness"]) != len(ref["fairness"]) or not all(
            _close(a, b, VALUE_TOL) for a, b in zip(record["fairness"], ref["fairness"])
        ):
            bad.append(f"fairness {record['fairness']} != {ref['fairness']}")
        return bad

    def census(self, record):
        return {
            "unreachable": record["unreachable"],
            "single_winner": record["opt_det_ties"] == 1,
            "condorcet": record["condorcet"] is not None,
        }


class TallyRequest:
    """Profile text plus the facts the checks need, computed at generation."""

    __slots__ = ("text", "n", "digest", "truth")

    def __init__(self, rankings):
        n, m = rankings.shape
        tokens = [str(c + 1) for c in range(m)]
        body = "\n".join(" ".join([tokens[c] for c in row]) for row in rankings.tolist())
        self.text = f"{n} {m}\n{body}\n"
        self.n = n
        self.digest = _rankings_digest(rankings)
        w = _pairwise_support(rankings)
        self.truth = {
            "n": n,
            "m": m,
            "condorcet": _condorcet_winner(w, n),
            "copeland": _copeland_winner(w, n),
            "top_counts": np.bincount(rankings[:, 0], minlength=m).tolist(),
        }


def _rankings_digest(rankings):
    data = np.ascontiguousarray(rankings, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


class Tally(Workload):
    name = "tally"
    why = (
        "large electorates as text, zero LP calls: parse validation loops, "
        "the N x M x M tournament build and the rules do all the work"
    )
    # A 50 000 x 30 text takes about 1.7 s; N is capped for the same reason
    # as the optimize sizes.
    agents = (2000, 16000)
    alternatives = (5, 30)
    # Large texts are costly to hold, so the pool is small and cycled; the
    # census reports the share of requests that repeat an earlier input.
    pool_size = 40

    @staticmethod
    def _stratified(rng, lo, hi, count):
        """One uniform integer from each of ``count`` equal-width strata of
        ``[lo, hi]``, in stratum order."""
        edges = np.linspace(lo, hi + 1, count + 1)
        draws = np.floor(edges[:-1] + rng.random(count) * np.diff(edges))
        return np.minimum(draws, hi).astype(int)

    def make_requests(self, rng, count):
        # Strata are paired and ordered the same way for every seed, so every
        # seed gets the same size mix in the same order (peak memory depends
        # on that order); the seed draws the sizes within the strata and the
        # rankings.
        fixed = np.random.default_rng(count)
        ns = self._stratified(rng, *self.agents, count)[fixed.permutation(count)]
        ms = self._stratified(rng, *self.alternatives, count)[fixed.permutation(count)]
        return [
            TallyRequest(_random_rankings(rng, int(n), int(m))) for n, m in zip(ns, ms)
        ]

    def run(self, request):
        profile = metricdist.parse_profile(request.text)
        winners = (
            metricdist.copeland(profile).winner,
            metricdist.ranked_pairs(profile).winner,
            metricdist.schulze(profile).winner,
        )
        lottery = metricdist.randomized_dictatorship(profile).distribution
        return profile, winners, lottery

    def summarize(self, request, output):
        profile, winners, lottery = output
        record = dict(request.truth)
        record.update(
            parsed_digest_ok=_rankings_digest(profile.rankings) == request.digest,
            winners=[int(w) for w in winners],
            lottery_counts=[float(p) * request.n for p in lottery],
        )
        return record

    def invariants(self, record):
        bad = []
        if not record["parsed_digest_ok"]:
            bad.append("parsed rankings differ from the generated ones")
        if any(
            abs(a - b) > 1e-6 for a, b in zip(record["lottery_counts"], record["top_counts"])
        ):
            bad.append("RD lottery differs from top-choice counts / N")
        if record["winners"][0] != record["copeland"]:
            bad.append(f"Copeland winner {record['winners'][0]} != {record['copeland']}")
        cw = record["condorcet"]
        if cw is not None and any(w != cw for w in record["winners"]):
            bad.append(f"Condorcet winner {cw} not elected: {record['winners']}")
        return bad

    def compare(self, record, ref):
        if record["winners"] != ref["winners"] or record["top_counts"] != ref["top_counts"]:
            return [f"winners {record['winners']} != {ref['winners']}"]
        return []

    def census(self, record):
        return {
            "unreachable": False,
            "single_winner": len(set(record["winners"])) == 1,
            "condorcet": record["condorcet"] is not None,
        }


WORKLOADS = {w.name: w for w in (Certify(), Optimize(), Tally())}
