"""Direct calls into single layers, made only by traced runs.

A workload's own operations reach some layers only from inside other
library calls (``likelihood_argmax`` inside ``conservative_confidence``,
say), and some not at all.  The traced run therefore also calls each
layer's public function directly, on the run's own inputs where it has
suitable ones and on inputs drawn from the same seed otherwise, so every
per-layer figure is reported on every workload.
"""

from __future__ import annotations

import random

import numpy as np

from klotzcbi import (
    IndependenceBelief,
    KlotzPoint,
    conservative_confidence,
    engine_worst_prior,
    grid_candidates,
    likelihood_argmax,
    log_likelihood_many,
    posterior_confidence,
    regularized_incomplete_beta,
    simulate,
    summarize,
    transitions_from_summary,
)

import workloads as W

#: Distinct inputs per probed layer.
PROBES = 12
#: Executions per campaign when the workload has no campaigns of its own.
PROBE_CAMPAIGN_N = 200_000


def _instances(ops) -> list[tuple]:
    """Distinct (pk, obs, b) triples from the run's operations."""
    out, seen = [], set()
    for op in ops:
        if op.pk is None or op.obs is None:
            continue
        key = (op.obs.n, op.obs.s, op.obs.r, op.obs.first, op.obs.last)
        if key not in seen:
            seen.add(key)
            out.append((op.pk, op.obs, op.b))
    return out


def run_probes(tr, ops, seed: int, workdir: str) -> None:
    fallback_ops = W.Assess(-1 - seed, workdir).round(0)
    own = _instances(ops)
    extra = _instances(fallback_ops)
    failing = [i for i in own if 0 < i[1].s < i[1].n] or [i for i in extra if i[1].s > 0]
    # bound operations carry no claim bound b; the layers below need one
    pool = [i for i in own if i[2] is not None] or extra
    plain = sorted((i for i in pool if i[0].independence_belief is IndependenceBelief.NONE),
                   key=lambda i: i[1].s == 0)  # evidence with failures first

    for _, obs, _ in failing[:PROBES]:
        tr.call("klotz.likelihood_argmax", likelihood_argmax, transitions_from_summary(obs))
    for pk, obs, b in plain[:PROBES]:
        tr.call("worstcase.engine_worst_prior", engine_worst_prior, pk, transitions_from_summary(obs), b)
    for pk, obs, b in pool[:PROBES]:
        prior = conservative_confidence(pk, obs, b).prior
        for _ in range(5):
            tr.call("priors.posterior_confidence", posterior_confidence, prior, obs, b)

    for span in sorted({op.span for op in fallback_ops if isinstance(op, W.AssessOp)}):
        if not tr.durations(span):
            for op in [o for o in fallback_ops if isinstance(o, W.AssessOp) and o.span == span][:PROBES]:
                op.run(tr)
    if not tr.durations("analysis.curve"):
        for op in fallback_ops:
            if isinstance(op, W.CurveOp):
                op.run(tr)

    # the oracle layers on verify inputs: the run's own if it has them
    verify = [op for op in ops if isinstance(op, W.VerifyOp)] or W.Verify(-1 - seed, workdir).round(0)
    pk, obs, b = verify[0].pk, verify[0].obs, verify[0].b
    cands = tr.call("oracle.grid_candidates", grid_candidates, pk, b, W.VERIFY_GRID)
    tr.note(count=len(cands))
    xs = np.array([c.point.x for c in cands])
    lams = np.array([c.point.lam for c in cands])
    del cands
    t = transitions_from_summary(obs)
    for _ in range(5):
        tr.call("klotz.log_likelihood_many", log_likelihood_many, xs, lams, t, points=xs.size)
    if not tr.durations("oracle.infimum"):
        verify[0].run(tr)

    missing = [kind for kind, _ in W.Bound.MIX if not tr.durations(f"analysis.confidence_bound.{kind}")]
    if missing:
        for op in W.Bound(-1 - seed, workdir).round(0):
            if op.span.rsplit(".", 1)[1] in missing:
                missing.remove(op.span.rsplit(".", 1)[1])
                op.run(tr)

    rng = random.Random(f"probe:{seed}")
    for _ in range(3 * PROBES):
        a, bb, x = rng.uniform(0.02, 0.5), 10 ** rng.uniform(0.0, 9.0), 10 ** rng.uniform(-6.0, -0.5)
        tr.call("analysis.regularized_incomplete_beta", regularized_incomplete_beta, a, bb, x)

    campaigns = [op for op in ops if isinstance(op, W.CampaignOp)]
    if not campaigns:
        probe = W.Campaign(-1 - seed, workdir)
        probe.N = PROBE_CAMPAIGN_N
        campaigns = probe.round(0)
        for op in campaigns:
            op.run(tr)
    for op in campaigns[: len(W.Campaign.STRATA)]:
        point = KlotzPoint(op.x, op.lam)
        trace = tr.call("simulate.simulate", simulate, point, op.n, op.seed, n=op.n)
        tr.call("simulate.summarize", summarize, trace, n=op.n)
        del trace
