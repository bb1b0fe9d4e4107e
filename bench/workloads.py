"""The four workloads: seeded inputs, the operations on them, their checks.

A workload is a sequence of rounds.  Every round holds the same mix of
operation kinds (so a run's figures do not hinge on which kinds the seed
happened to favour) with fresh inputs drawn from ``random.Random`` seeded
by (workload, seed, round).  Operations call the library only through
its public names and ``klotzcbi.cli.main``; each records its library
calls on the tracer it is given, and checks its own output afterwards.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import replace

from klotzcbi import (
    GridSpec,
    IndependenceBelief,
    Method,
    NoBoundError,
    ObservationSummary,
    Outcome,
    PriorKnowledge,
    SweepAxis,
    SweepSpec,
    ValidationError,
    confidence_bound,
    conservative_confidence,
    curve,
    infimum,
)
from klotzcbi import cli

import checks as C

#: The eleven closed-form regime branches: evidence kind and parameter range.
BRANCHES = (
    ("nofail", "phi1>=theta"),
    ("nofail", "phi2>=1-theta"),
    ("nofail", "interior"),
    ("rpos", "phi2>=1-theta"),
    ("rpos", "interior"),
    ("rpos", "phi1>=theta"),
    ("r0", "phi1>=1-theta"),
    ("r0", "r0-interior"),
    ("r0", "phi2>=theta"),
    ("belief", "strong"),
    ("belief", "weak"),
)

#: Random feasible priors tried against every conservative value.
CONSERVATISM_SAMPLES = 8
#: Grid the verify workload hands the oracle.
VERIFY_GRID = GridSpec(resolution=201, refine_rounds=2)
#: confidence_bound's bisection tolerance in log b (its default).
BOUND_REL_TOL = 1e-6


def ladder(lo: float, hi: float, k: int) -> list[float]:
    """k log-spaced evidence sizes from lo to hi."""
    return [lo * (hi / lo) ** (i / (k - 1)) for i in range(k)]


def draw_pk(rng: random.Random, branch: str, eps_zero: bool, pl_zero: bool) -> tuple[PriorKnowledge, float]:
    """(pk, b) inside a named parameter branch; the ranges of the acceptance suite."""
    while True:
        theta = rng.uniform(0.2, 0.9)
        b = 10 ** rng.uniform(-4.0, -0.5)
        eps = 0.0 if eps_zero else b * 10 ** rng.uniform(-3.0, -0.5)
        pl = 0.0 if pl_zero else eps * rng.uniform(0.01, 1.0)
        belief = IndependenceBelief.NONE
        if branch == "phi1>=theta":
            phi1 = rng.uniform(theta, min(1.0, theta + 0.3))
            phi2 = rng.uniform(0.0, 1.0 - phi1)
        elif branch == "phi2>=1-theta":
            phi2 = rng.uniform(1.0 - theta, min(1.0, 1.0 - theta + 0.3))
            phi1 = rng.uniform(0.0, 1.0 - phi2)
        elif branch == "interior":
            phi1 = rng.uniform(0.0, theta)
            phi2 = rng.uniform(0.0, min(1.0 - theta, 1.0 - phi1))
        elif branch == "phi1>=1-theta":
            phi1 = rng.uniform(1.0 - theta, min(1.0, 1.0 - theta + 0.3))
            phi2 = rng.uniform(0.0, 1.0 - phi1)
        elif branch == "phi2>=theta":
            phi2 = rng.uniform(theta, min(1.0, theta + 0.3))
            phi1 = rng.uniform(0.0, 1.0 - phi2)
        elif branch == "r0-interior":
            phi2 = rng.uniform(0.0, theta)
            phi1 = rng.uniform(0.0, min(1.0 - theta, 1.0 - phi2))
        elif branch == "strong":
            phi2 = rng.uniform(0.0, 1.0 - theta)
            phi1 = rng.uniform(max(0.0, 1.0 - theta - phi2), 1.0 - phi2)
            belief = IndependenceBelief.STRONG
        elif branch == "weak":
            phi1 = rng.uniform(0.0, min(theta, 0.99))
            phi2 = rng.uniform(max(0.0, theta - phi1), 1.0 - phi1)
            belief = IndependenceBelief.WEAK
        else:
            raise ValueError(branch)
        try:
            pk = PriorKnowledge(p_l=pl, epsilon=eps, theta=theta, phi1=phi1, phi2=phi2,
                                independence_belief=belief)
        except ValidationError:
            continue  # phi1 + phi2 overshot 1 by rounding
        return pk, b


def draw_counts(rng: random.Random, kind: str) -> tuple[int, int]:
    """(s, r) for an evidence kind, as the acceptance suite draws them."""
    if kind in ("nofail", "belief"):
        return 0, 0
    if kind == "r0":
        return rng.randint(1, 3), 0
    s = rng.randint(2, 4)
    return s, rng.randint(1, s - 1)


class Evidences:
    """Hands out observations no earlier operation of the run has seen.

    Sizes come from a fixed ladder, jittered by up to 2% and bumped past
    any size already used with the same (s, r), so that no per-evidence
    cache can hit while every round still assesses about the same total
    number of executions.
    """

    def __init__(self) -> None:
        self._seen: set[tuple[int, int, int]] = set()

    def take(self, rng: random.Random, size: float, s: int, r: int) -> ObservationSummary:
        n = max(int(size * (1.0 + 0.02 * rng.random())), 2 * s + 2)
        while (n, s, r) in self._seen:
            n += 1
        self._seen.add((n, s, r))
        return ObservationSummary.from_counts(n, s, r)


def closed_form_checks(pk, obs, b, res, rng: random.Random) -> None:
    """Everything one closed-form result must satisfy."""
    ev = C.Evidence.of(obs)
    rows = C.prior_rows(res.prior)
    C.check_prior(rows, pk)
    C.check_posterior(rows, ev, b, res.confidence)
    C.check_conservative(pk, ev, b, res.confidence, rng, CONSERVATISM_SAMPLES)
    if obs.s == 0 and pk.phi1 == 0.0 and pk.phi2 == 0.0:
        C.check_reduction(pk, obs.n, b, res.confidence)


# ---------------------------------------------------------------------------
# operations


class Op:
    """One timed unit of work.  ``span`` names the layer call it makes."""

    span = ""
    executions = 0
    pk = obs = b = None

    def run(self, tr):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError


class AssessOp(Op):
    def __init__(self, kind, pk, obs, b, check_seed) -> None:
        self.span = f"worstcase.conservative_confidence.{kind}"
        self.pk, self.obs, self.b = pk, obs, b
        self.executions = obs.n
        self.check_seed = check_seed

    def run(self, tr):
        return tr.call(self.span, conservative_confidence, self.pk, self.obs, self.b)

    def check(self, res) -> None:
        closed_form_checks(self.pk, self.obs, self.b, res, random.Random(self.check_seed))


class CurveOp(Op):
    """One method's n-axis sweep."""

    span = "analysis.curve"

    def __init__(self, method, pk, b, values, beta_alpha, check_seed) -> None:
        self.method, self.pk, self.b = method, pk, b
        self.values, self.beta_alpha = tuple(values), beta_alpha
        self.executions = sum(values)
        self.check_seed = check_seed

    def run(self, tr):
        spec = SweepSpec(
            pk=self.pk, obs=ObservationSummary.from_counts(self.values[0], 0, 0), b=self.b,
            axis=SweepAxis.N, values=self.values, methods=(self.method,), beta_alpha=self.beta_alpha,
        )
        return tr.call(self.span, curve, spec, rows=len(self.values))

    def check(self, rows) -> None:
        C.require(len(rows) == len(self.values), f"{len(rows)} rows for {len(self.values)} values")
        rng = random.Random(self.check_seed)
        m = self.method
        pk = self.pk
        if m is Method.STRONG_PK5:
            pk = replace(pk, independence_belief=IndependenceBelief.STRONG)
        elif m is Method.WEAK_PK6:
            pk = replace(pk, independence_belief=IndependenceBelief.WEAK)
        values = []
        for row, n in zip(rows, self.values):
            C.require(row.error is None, f"{m.value} row at n={n} failed: {row.error}")
            C.require(row.n == n and row.s == 0 and row.r == 0, f"row evidence {(row.n, row.s, row.r)} for n={n}")
            c = row.confidence
            C.require(0.0 <= c <= 1.0, f"{m.value} confidence {c!r} outside [0, 1]")
            if m is Method.UNIVARIATE:
                want = C.univariate(pk.theta, pk.epsilon, self.b, n)
                C.require(abs(c - want) <= C.POSTERIOR_TOL, f"univariate row {c!r}, closed form {want!r}")
            elif m is Method.BETA_BI:
                C.check_beta(self.beta_alpha, pk, n, self.b, c)
            else:
                C.check_conservative(pk, C.Evidence(n, 0, 0, False, False), self.b, c, rng, CONSERVATISM_SAMPLES)
            values.append(c)
        if m is Method.KLOTZ_CBI and pk.epsilon == 0.0:
            # eps = 0: a monotone rise to theta / (theta + (1-b) phi2)
            limit = pk.theta / (pk.theta + (1.0 - self.b) * pk.phi2)
            C.require(all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:])),
                      "eps=0 curve is not nondecreasing in n")
            C.require(all(v <= limit + 1e-12 for v in values), "eps=0 curve exceeds its asymptote")
            C.check_asymptote(pk.theta, pk.phi2, self.b, values[-1])


class BoundOp(Op):
    def __init__(self, kind, method, pk, obs, target, beta_alpha=0.03) -> None:
        self.span = f"analysis.confidence_bound.{kind}"
        self.method, self.pk, self.obs, self.target = method, pk, obs, target
        self.beta_alpha = beta_alpha
        self.executions = obs.n

    def run(self, tr):
        try:
            return tr.call(self.span, confidence_bound, self.pk, self.obs, self.target, self.method,
                           self.beta_alpha)
        except NoBoundError as exc:
            return exc

    def conf(self, b: float) -> float:
        """The method's confidence at b, recomputed here where a formula exists."""
        if self.method is Method.UNIVARIATE:
            return C.univariate(self.pk.theta, self.pk.epsilon, b, self.obs.n)
        if self.method is Method.BETA_BI:
            return C.beta_confidence(self.beta_alpha, self.pk.epsilon, self.pk.theta, self.obs.n, b)
        res = conservative_confidence(self.pk, self.obs, b)
        C.check_posterior(C.prior_rows(res.prior), C.Evidence.of(self.obs), b, res.confidence)
        return res.confidence

    def check(self, out) -> None:
        lo = max(self.pk.epsilon * (1.0 + 1e-9), 1e-12)
        hi = 0.5 * (1.0 - 1e-9)
        if isinstance(out, NoBoundError):
            # the library samples 16 log-spaced bounds; so does the check
            vals = [self.conf(lo * (hi / lo) ** (i / 15.0)) for i in range(16)]
            dips = any(v1 < v0 - 1e-9 for v0, v1 in zip(vals, vals[1:]))
            C.require(dips or vals[-1] < self.target,
                      f"no bound claimed, yet conf rises monotonically to {vals[-1]!r} >= {self.target!r}")
            return
        if self.method is Method.UNIVARIATE:
            C.check_univariate_bound(self.pk, self.obs.n, self.target, out, BOUND_REL_TOL)
        if out * math.exp(-2.0 * BOUND_REL_TOL) <= lo:
            C.require(self.conf(out) >= self.target, f"bound {out!r} at the range floor misses the target")
        else:
            C.check_bound(self.conf, out, self.target, BOUND_REL_TOL)


class VerifyOp(Op):
    span = "oracle.infimum"

    def __init__(self, kind, pk, obs, b, check_seed) -> None:
        self.closed_span = f"worstcase.conservative_confidence.{kind}"
        self.pk, self.obs, self.b = pk, obs, b
        self.executions = obs.n
        self.check_seed = check_seed

    def run(self, tr):
        closed = tr.call(self.closed_span, conservative_confidence, self.pk, self.obs, self.b)
        oracle = tr.call(self.span, infimum, self.pk, self.obs, self.b, VERIFY_GRID)
        return closed, oracle

    def check(self, out) -> None:
        closed, oracle = out
        closed_form_checks(self.pk, self.obs, self.b, closed, random.Random(self.check_seed))
        gap = abs(closed.confidence - oracle.confidence)
        C.require(gap <= oracle.resolution_bound,
                  f"closed {closed.confidence!r} vs oracle {oracle.confidence!r}: "
                  f"gap {gap:.3g} > bound {oracle.resolution_bound:.3g}")
        rows = C.prior_rows(oracle.prior)
        C.check_prior(rows, self.pk)
        C.check_posterior(rows, C.Evidence.of(self.obs), self.b, oracle.confidence, "oracle confidence")


class CampaignOp(Op):
    """simulate -> summarize -> assess, all through ``cli.main``."""

    span = "cli.campaign"

    def __init__(self, x, lam, n, seed, pk, b, workdir, check_seed) -> None:
        self.x, self.lam, self.n, self.seed = x, lam, n, seed
        self.pk, self.b = pk, b
        self.executions = n
        self.check_seed = check_seed
        self.campaign = os.path.join(workdir, "campaign.json")
        self.summary = os.path.join(workdir, "summary.json")
        self.scenario = os.path.join(workdir, "scenario.json")
        self.report = os.path.join(workdir, "assess.json")

    def _main(self, tr, name, argv, **attrs):
        code = tr.call(name, cli.main, argv, **attrs)
        C.require(code == 0, f"klotzcbi {argv[0]} exited with {code}")

    def run(self, tr):
        self._main(tr, "cli.simulate", [
            "simulate", "--x", repr(self.x), "--lambda", repr(self.lam), "--n", str(self.n),
            "--seed", str(self.seed), "--out", self.campaign], n=self.n)
        tr.note(bytes=os.path.getsize(self.campaign))
        self._main(tr, "cli.summarize", ["summarize", "--campaign", self.campaign, "--out", self.summary],
                   n=self.n)
        with open(self.summary, encoding="utf-8") as fh:
            observation = json.load(fh)["observation"]
        o = observation
        self.obs = ObservationSummary(o["n"], o["s"], o["r"], Outcome(o["first"]), Outcome(o["last"]))
        pk = self.pk
        scenario = {
            "metadata": {"id": f"campaign-{self.seed}"},
            "pk": {"p_l": pk.p_l, "epsilon": pk.epsilon, "theta": pk.theta, "phi1": pk.phi1, "phi2": pk.phi2},
            "observation": observation,
            "claim": {"b": self.b},
        }
        with open(self.scenario, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        self._main(tr, "cli.assess", ["assess", "--scenario", self.scenario, "--out", self.report])
        with open(self.campaign, encoding="utf-8") as fh:
            rle = json.load(fh)["outcomes_rle"]
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        return rle, observation, report

    def check(self, out) -> None:
        rle, observation, report = out
        C.check_campaign(rle, observation, self.x, self.lam, self.n, self.seed)
        o = observation
        ev = C.Evidence(o["n"], o["s"], o["r"], o["first"] == "failure", o["last"] == "failure")
        rows = C.json_prior_rows(report["worst_case_prior"])
        C.check_prior(rows, self.pk)
        C.check_posterior(rows, ev, self.b, report["confidence"])
        C.check_conservative(self.pk, ev, self.b, report["confidence"], random.Random(self.check_seed),
                             CONSERVATISM_SAMPLES)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Rounds of operations; round ``i`` depends only on (seed, i) and earlier rounds."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.evidences = Evidences()

    def rng(self, index: int, part: str = "") -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}:{part}")

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError


class Assess(Workload):
    """28 closed-form assessments and one n-sweep per method.

    Per round: two scenarios per no-failure and belief branch, three per
    failure branch.  Operation times fall into tight clusters by kind
    (no failures ~0.1 ms, belief ~5 ms, r = 0 ~6 ms, r > 0 ~7 ms, belief
    sweeps ~30 ms); with this mix the median lands inside the r = 0
    cluster and the 90th percentile inside the r > 0 one, not on a border
    between two kinds, where machine noise would flip it.
    """

    name = "assess"
    PER_BRANCH = {"nofail": 2, "belief": 2, "r0": 3, "rpos": 3}
    SIZES = ladder(20.0, 1e9, sum(map(PER_BRANCH.get, [kind for kind, _ in BRANCHES])))
    AXIS = ladder(20.0, 1e9, 6)

    def round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        sizes = list(self.SIZES)
        rng.shuffle(sizes)
        ops: list[Op] = []
        for kind, branch in BRANCHES:
            for k in range(self.PER_BRANCH[kind]):
                # slot 0 is the eps = 0 (no failures) or p_l = 0 (failures) case
                failures = kind in ("r0", "rpos")
                pk, b = draw_pk(rng, branch, eps_zero=(k == 0 and not failures), pl_zero=(k == 0))
                if branch == "interior" and k == 1:
                    pk = replace(pk, phi1=0.0, phi2=0.0)  # the univariate reduction
                s, r = draw_counts(rng, kind)
                obs = self.evidences.take(rng, sizes.pop(), s, r)
                ops.append(AssessOp(kind, pk, obs, b, rng.getrandbits(32)))
        for method in Method:
            ops.append(self._curve(rng, method))
        return ops

    def _curve(self, rng: random.Random, method: Method) -> CurveOp:
        if method is Method.KLOTZ_CBI:
            # eps = 0 and phi2 <= 1 - theta: the curve ends on its asymptote
            pk, b = draw_pk(rng, "interior", eps_zero=True, pl_zero=True)
        elif method in (Method.STRONG_PK5, Method.WEAK_PK6):
            # inside both belief gates, so one draw serves either method
            theta = rng.uniform(0.3, 0.7)
            phi1 = rng.uniform(max(0.0, 2.0 * theta - 1.0), theta)
            phi2 = rng.uniform(max(0.0, max(theta, 1.0 - theta) - phi1), 1.0 - theta)
            b = 10 ** rng.uniform(-4.0, -1.0)
            eps = b * 10 ** rng.uniform(-3.0, -0.5) if rng.random() < 0.5 else 0.0
            pk = PriorKnowledge(p_l=eps * rng.random(), epsilon=eps, theta=theta, phi1=phi1, phi2=phi2)
        else:
            pk, b = draw_pk(rng, "interior", eps_zero=False, pl_zero=False)
        values = []
        for size in self.AXIS:
            n = self.evidences.take(rng, size, 0, 0).n
            values.append(max(n, values[-1] + 1) if values else n)
        return CurveOp(method, pk, b, values, rng.uniform(0.02, 0.5), rng.getrandbits(32))


class Bound(Workload):
    """Eleven inversions: klotz_cbi with failures (2) and without (3), univariate (4), beta_bi (2).

    The cheap univariate inversions balance the costly ones, so that the
    median operation is a failure-free klotz_cbi inversion, not a border
    between two kinds.
    """

    name = "bound"
    MIX = (("klotz_fail", 2), ("klotz_nofail", 3), ("univariate", 4), ("beta_bi", 2))
    FAIL_SIZES = ladder(1e3, 1e6, 2)
    NOFAIL_SIZES = ladder(20.0, 1e7, 9)

    def round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        fail_sizes, nofail_sizes = list(self.FAIL_SIZES), list(self.NOFAIL_SIZES)
        rng.shuffle(fail_sizes)
        rng.shuffle(nofail_sizes)
        ops: list[Op] = []
        for kind, count in self.MIX:
            for _ in range(count):
                theta = rng.uniform(0.5, 0.9)
                if kind == "klotz_fail":
                    target = rng.uniform(0.5, 0.95)
                    s = rng.randint(1, 3)
                    obs = self.evidences.take(rng, fail_sizes.pop(), s, 0)
                    eps = s / obs.n * 10 ** rng.uniform(-2.0, -0.5)
                    pk = PriorKnowledge(p_l=eps * rng.uniform(0.3, 1.0), epsilon=eps, theta=theta,
                                        phi1=rng.uniform(0.0, 0.1), phi2=rng.uniform(0.0, 0.1))
                    ops.append(BoundOp(kind, Method.KLOTZ_CBI, pk, obs, target))
                    continue
                obs = self.evidences.take(rng, nofail_sizes.pop(), 0, 0)
                eps = 10 ** rng.uniform(-1.0, -0.3) / obs.n
                # without failures every method starts near theta just above eps
                target = rng.uniform(theta + 0.05, 0.99)
                if kind == "klotz_nofail":
                    pk = PriorKnowledge(p_l=eps * rng.random(), epsilon=eps, theta=theta,
                                        phi1=rng.uniform(0.0, 0.5), phi2=rng.uniform(0.0, 1e-3))
                    ops.append(BoundOp(kind, Method.KLOTZ_CBI, pk, obs, target))
                elif kind == "univariate":
                    pk = PriorKnowledge(epsilon=eps, theta=theta)
                    ops.append(BoundOp(kind, Method.UNIVARIATE, pk, obs, target))
                else:
                    pk = PriorKnowledge(epsilon=eps, theta=theta)
                    ops.append(BoundOp(kind, Method.BETA_BI, pk, obs, target, rng.uniform(0.02, 0.5)))
        return ops


class Verify(Workload):
    """One closed form plus oracle per branch; eps = 0 on four, p_l = 0 on five."""

    name = "verify"
    SIZES = ladder(20.0, 1e4, len(BRANCHES))

    def round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        sizes = list(self.SIZES)
        rng.shuffle(sizes)
        eps_zero = set(rng.sample(range(len(BRANCHES)), 4))
        pl_zero = set(rng.sample(range(len(BRANCHES)), 5))
        ops: list[Op] = []
        for i, (kind, branch) in enumerate(BRANCHES):
            pk, b = draw_pk(rng, branch, eps_zero=i in eps_zero, pl_zero=i in pl_zero)
            s, r = draw_counts(rng, kind)
            obs = self.evidences.take(rng, sizes.pop(), s, r)
            ops.append(VerifyOp(kind, pk, obs, b, rng.getrandbits(32)))
        return ops


class Campaign(Workload):
    """Four campaigns of about 1e6 executions, from one RLE run to ~6e5 runs."""

    name = "campaign"
    #: (log10 x range, lambda range) per ground-truth stratum
    STRATA = (
        ((-9.0, -7.5), (0.0, 0.5)),    # near failure-free: almost always one run
        ((-4.0, -3.0), (0.3, 0.8)),    # rare clustered failures: ~1e3 runs
        ((-2.3, -1.7), (0.1, 0.5)),    # frequent failures: ~2e4 runs
        ((-0.53, -0.5), (0.0, 0.02)),  # alternation at x ~ 0.3: ~6e5 runs
    )
    N = 1_000_000

    def round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops: list[Op] = []
        for (x_lo, x_hi), (l_lo, l_hi) in self.STRATA:
            x = 10 ** rng.uniform(x_lo, x_hi)
            lam = rng.uniform(l_lo, l_hi)
            n = int(self.N * rng.uniform(0.98, 1.02))
            pk, b = draw_pk(rng, "interior", eps_zero=False, pl_zero=False)
            ops.append(CampaignOp(x, lam, n, rng.getrandbits(31), pk, b, self.workdir, rng.getrandbits(32)))
        return ops


WORKLOADS = {w.name: w for w in (Assess, Bound, Verify, Campaign)}
