"""Shows that no output check of the benchmark is vacuous.

    python3 bench/selftest.py

Runs genuine operations of every workload, requires their checks to
pass, then hands each check a deliberately perturbed output (a
confidence moved beyond its allowance, a prior mass moved across a
constraint, a bound nudged past the bisection tolerance, an RLE with a
dropped run, ...) and requires that check, named by its message, to
trip.  Exits 1 if a genuine output fails or a perturbation goes unseen.
"""

import os
import random
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from klotzcbi import DiscretePrior, Method, NoBoundError  # noqa: E402

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from tracing import NullTracer  # noqa: E402

SEED = 1
failures: list[str] = []


def expect_pass(label: str, op, out) -> None:
    try:
        op.check(out)
    except C.CheckFailed as exc:
        failures.append(f"{label}: genuine output rejected: {exc}")
        print(f"FAIL  {label}: genuine output rejected")
    else:
        print(f"ok    {label}: genuine output passes")


def expect_trip(label: str, op, out, message: str) -> None:
    try:
        op.check(out)
    except C.CheckFailed as exc:
        if message in str(exc):
            print(f"ok    {label}: trips ({exc})")
            return
        failures.append(f"{label}: tripped another check: {exc}")
        print(f"FAIL  {label}: tripped another check: {exc}")
        return
    failures.append(f"{label}: perturbation not detected")
    print(f"FAIL  {label}: perturbation not detected")


def shift_mass(prior: DiscretePrior, amount: float) -> DiscretePrior:
    """Move ``amount`` of mass from the first support point to the last."""
    pts = list(prior.support)
    pts[0] = replace(pts[0], mass=pts[0].mass - amount)
    pts[-1] = replace(pts[-1], mass=pts[-1].mass + amount)
    return DiscretePrior(pts)


def first(ops, cls, pred=lambda op: True):
    return next(op for op in ops if isinstance(op, cls) and pred(op))


def main() -> int:
    null = NullTracer()
    workdir = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    # --- assess ---------------------------------------------------------
    ops = W.Assess(SEED, workdir).round(0)
    for kind in ("nofail", "r0", "rpos", "belief"):
        op = first(ops, W.AssessOp, lambda o: o.span.endswith(kind) and o.pk.p_l > 0)
        res = op.run(null)
        expect_pass(f"assess/{kind}", op, res)
        expect_trip(f"assess/{kind} confidence +1e-6", op, replace(res, confidence=res.confidence + 1e-6),
                    "but its prior gives")
        expect_trip(f"assess/{kind} mass moved between support points", op,
                    replace(res, prior=shift_mass(res.prior, 0.01)), "!=")
    op = first(ops, W.AssessOp, lambda o: o.span.endswith("nofail") and o.pk.phi1 == o.pk.phi2 == 0.0)
    res = op.run(null)
    # 5e-10: inside the posterior check's allowance, outside the reduction's
    nudge = 5e-10 if res.confidence < 0.5 else -5e-10
    expect_trip("assess/reduction confidence moved 5e-10", op, replace(res, confidence=res.confidence + nudge),
                "univariate is")
    op = first(ops, W.AssessOp, lambda o: 0.05 < o.run(null).confidence < 0.95)
    res = op.run(null)
    expect_trip("assess/confidence 1.5", op, replace(res, confidence=1.5), "outside [0, 1]")
    # a worst case 10% too optimistic: the check alone, since the prior no longer matches
    optimistic = res.confidence + 0.1 * (1.0 - res.confidence)
    try:
        C.check_conservative(op.pk, C.Evidence.of(op.obs), op.b, optimistic, random.Random(SEED),
                             W.CONSERVATISM_SAMPLES)
    except C.CheckFailed as exc:
        print(f"ok    assess/conservatism of a 10% too optimistic value: trips ({exc})")
    else:
        failures.append("assess/conservatism: a 10% too optimistic value passes")

    for method in Method:
        op = first(ops, W.CurveOp, lambda o: o.method is method)
        rows = op.run(null)
        expect_pass(f"curve/{method.value}", op, rows)
        last = rows[-1]
        if method is Method.KLOTZ_CBI:
            # every row 2e-4 lower: still monotone and capped, but off the asymptote
            bumped = [replace(r, confidence=max(r.confidence - 2e-4, 0.0)) for r in rows]
        elif method in (Method.STRONG_PK5, Method.WEAK_PK6):
            # the least row halfway to 1: a worst case far too optimistic
            i = min(range(len(rows)), key=lambda k: rows[k].confidence)
            bumped = list(rows)
            bumped[i] = replace(rows[i], confidence=0.5 * (1.0 + rows[i].confidence))
        else:
            bumped = rows[:-1] + [replace(last, confidence=last.confidence + (2e-4 if last.confidence < 0.5 else -2e-4))]
        message = {
            Method.UNIVARIATE: "closed form",
            Method.BETA_BI: "SciPy gives",
            Method.KLOTZ_CBI: "asymptote is",
        }.get(method, "below the closed form")
        expect_trip(f"curve/{method.value} rows moved", op, bumped, message)
        if method is Method.KLOTZ_CBI:
            dipped = [rows[0], replace(rows[1], confidence=rows[0].confidence - 1e-6)] + rows[2:]
            expect_trip("curve/klotz_cbi eps=0 dip", op, dipped, "nondecreasing")

    # --- bound ------------------------------------------------------------
    ops = W.Bound(SEED, workdir).round(0)
    for kind in ("klotz_fail", "klotz_nofail", "univariate", "beta_bi"):
        op = first(ops, W.BoundOp, lambda o: o.span.endswith(kind))
        b_star = op.run(null)
        if isinstance(b_star, NoBoundError):
            failures.append(f"bound/{kind}: the self-test instance has no bound")
            continue
        expect_pass(f"bound/{kind}", op, b_star)
        if kind == "univariate":
            expect_trip("bound/univariate b* x (1+1e-5)", op, b_star * (1 + 1e-5), "closed-form inversion")
        else:
            expect_trip(f"bound/{kind} b* x e^(3 rel_tol)", op, b_star * (1 + 3 * W.BOUND_REL_TOL), "already reaches")
            expect_trip(f"bound/{kind} b* x e^(-3 rel_tol)", op, b_star * (1 - 3 * W.BOUND_REL_TOL), "< target")
        expect_trip(f"bound/{kind} a false 'no bound'", op, NoBoundError("claimed"), "no bound claimed")

    # --- verify -----------------------------------------------------------
    for op in W.Verify(SEED, workdir).round(0):
        closed, oracle = op.run(null)
        if 0.05 < closed.confidence < 0.95:
            break
    expect_pass("verify", op, (closed, oracle))
    c, bound = oracle.confidence, oracle.resolution_bound
    away = 1.0 if c < 0.5 else -1.0
    expect_trip("verify/oracle beyond its resolution bound", op,
                (closed, replace(oracle, confidence=c + away * (2.0 * bound + 1e-6))), "gap")
    expect_trip("verify/witness mass moved", op, (closed, replace(oracle, prior=shift_mass(oracle.prior, 0.01))), "!=")
    # still within the bound of the closed form, but no longer its witness's posterior
    toward = 1.0 if c < closed.confidence else -1.0
    expect_trip("verify/oracle confidence off its witness", op,
                (closed, replace(oracle, confidence=closed.confidence - toward * 0.5 * bound)), "oracle confidence")

    # --- campaign ---------------------------------------------------------
    op = first(W.Campaign(SEED, workdir).round(0), W.CampaignOp, lambda o: o.x > 1e-3)
    op.n = 20_000
    op.executions = op.n
    rle, observation, report = op.run(null)
    expect_pass("campaign", op, (rle, observation, report))
    runs = C._RUN.findall(rle)
    dropped = "".join(f"{c}{k}" for c, k in runs[:-1])
    expect_trip("campaign/RLE with its last run dropped", op, (dropped, observation, report), "sum to")
    swapped = "".join(f"{c}{k}" for c, k in [(runs[0][0], runs[2][1]), runs[1], (runs[2][0], runs[0][1])] + runs[3:])
    if runs[0][1] != runs[2][1]:
        expect_trip("campaign/RLE with two runs swapped", op, (swapped, observation, report), "PCG64 chain")
    expect_trip("campaign/summary s+1", op, (rle, {**observation, "s": observation["s"] + 1}, report), "summary")
    expect_trip("campaign/assess confidence +1e-6", op,
                (rle, observation, {**report, "confidence": report["confidence"] + 1e-6}), "but its prior gives")

    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    os.rmdir(workdir)
    print(f"{len(failures)} problem(s)")
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
