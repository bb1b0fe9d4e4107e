"""Output checks that do not reuse the library's own arithmetic.

Every check raises :class:`CheckFailed` with a reason.  The quantities
are recomputed here from first principles: the sequence likelihood of a
two-state stationary Markov chain (written in log space, from transition
counts this module derives itself), prior masses read off the side
tags, closed-form univariate posteriors, SciPy's incomplete Beta, and
the PCG64 draw rule for campaigns.  No check compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np

NEG_INF = float("-inf")

#: Two codes forming the same posterior ratio from log-likelihoods of
#: magnitude up to ~1e5 agree to a few ulps of those logs; 1e-9 on a
#: probability leaves four orders of margin.
POSTERIOR_TOL = 1e-9
#: Mass bookkeeping tolerance, the library's documented MASS_TOL.
MASS_TOL = 1e-9
#: Conservatism: a sampled feasible prior may score below the closed form
#: by no more than float noise.
CONSERVATISM_TOL = 1e-9
#: phi1 = phi2 = 0 reduction, as pinned by the acceptance suite.
REDUCTION_TOL = 1e-10
#: Large-n asymptote at n = 1e9, as pinned by the acceptance suite.
ASYMPTOTE_TOL = 1e-4
#: Conjugate baseline rows against SciPy (two independent incomplete-Beta
#: codes and two independent shape fits).
BETA_TOL = 1e-9


class CheckFailed(AssertionError):
    """An operation's output contradicts an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# evidence and likelihood


def transition_counts(n: int, s: int, r: int, first_failed: bool, last_failed: bool) -> tuple[int, int, int, int]:
    """(FF, FS, SF, SS) transition counts of any sequence with these statistics.

    Failures form s - r runs; each run but a final one is left by an F->S
    transition and each run but an initial one is entered by an S->F one.
    """
    if n == 0:
        return (0, 0, 0, 0)
    fail_runs = s - r
    ff = r
    fs = fail_runs - (1 if last_failed else 0)
    sf = fail_runs - (1 if first_failed else 0)
    ss = (n - 1) - ff - fs - sf
    require(min(ff, fs, sf, ss) >= 0, f"inconsistent evidence n={n} s={s} r={r}")
    return (ff, fs, sf, ss)


class Evidence:
    """Transition counts plus the first outcome; ``n = 0`` means no evidence."""

    __slots__ = ("n", "first_failed", "ff", "fs", "sf", "ss")

    def __init__(self, n: int, s: int, r: int, first_failed: bool, last_failed: bool) -> None:
        self.n = n
        self.first_failed = first_failed
        self.ff, self.fs, self.sf, self.ss = transition_counts(n, s, r, first_failed, last_failed)

    @classmethod
    def of(cls, obs) -> "Evidence":
        """From a library ``ObservationSummary`` (read through its fields only)."""
        return cls(obs.n, obs.s, obs.r, obs.first.value == "failure", obs.last.value == "failure")


def _k_log(k: int, v: float) -> float:
    if k == 0:
        return 0.0
    return k * math.log(v) if v > 0.0 else NEG_INF


def log_lik(x: float, lam: float, ev: Evidence) -> float:
    """log P(observed sequence | x, lam), built factor by factor."""
    if ev.n == 0:
        return 0.0
    if x >= 1.0:
        # the region forces lam = 1: the chain can only ever fail
        all_failed = ev.first_failed and ev.fs == 0 and ev.sf == 0 and ev.ss == 0
        return 0.0 if all_failed else NEG_INF
    acc = (math.log(x) if x > 0.0 else NEG_INF) if ev.first_failed else math.log1p(-x)
    acc += _k_log(ev.ff, lam)
    if ev.fs:
        acc += ev.fs * math.log1p(-lam) if lam < 1.0 else NEG_INF
    if acc == NEG_INF:
        return NEG_INF
    p_sf = (1.0 - lam) * x / (1.0 - x)
    acc += _k_log(ev.sf, p_sf)
    if ev.ss:
        if p_sf <= 0.5:
            acc += ev.ss * math.log1p(-p_sf)
        else:
            acc += _k_log(ev.ss, max((1.0 - x * (2.0 - lam)) / (1.0 - x), 0.0))
    return acc


def envelope(x: float) -> float:
    return 0.0 if x <= 0.5 else (2.0 * x - 1.0) / x


# ---------------------------------------------------------------------------
# priors as plain rows: (x, lam, mass, x_side, lam_class)
#
# x_side is +1 for a mass approached from the right of x, -1 from the
# left, 0 exact; lam_class is -1 below the diagonal, 0 on it, +1 above
# it, with the lambda-side tag deciding for points exactly on it.

_X_SIDE = {"exact": 0, "from_right": 1, "from_left": -1}


def _lam_class(x: float, lam: float, lambda_side: str) -> int:
    if lam > x:
        return 1
    if lam < x:
        return -1
    return {"from_above": 1, "from_below": -1}.get(lambda_side, 0)


def prior_rows(prior) -> list[tuple]:
    """Plain rows from a library ``DiscretePrior``."""
    return [
        (sp.point.x, sp.point.lam, sp.mass, _X_SIDE[sp.x_side.value],
         _lam_class(sp.point.x, sp.point.lam, sp.lambda_side.value))
        for sp in prior.support
    ]


def json_prior_rows(rows: list[dict]) -> list[tuple]:
    """Plain rows from the CLI's ``worst_case_prior`` report."""
    return [
        (r["x"], r["lambda"], r["mass"], _X_SIDE[r["x_side"]],
         _lam_class(r["x"], r["lambda"], r["lambda_side"]))
        for r in rows
    ]


def _leq(x: float, side: int, cut: float) -> bool:
    """1{X <= cut} for a mass at x, honouring a from-the-right tag."""
    return x < cut or (x == cut and side <= 0)


def _logsumexp(terms: list[float]) -> float:
    finite = [t for t in terms if t != NEG_INF]
    if not finite:
        return NEG_INF
    m = max(finite)
    return m + math.log(math.fsum(math.exp(t - m) for t in finite))


def posterior(rows, ev: Evidence, b: float) -> float:
    """P(X < b | evidence) for a tagged discrete prior; 0 when nothing is likely."""
    num, den = [], []
    for x, lam, mass, side, _ in rows:
        if mass <= 0.0:
            continue
        term = math.log(mass) + log_lik(x, lam, ev)
        den.append(term)
        if _leq(x, side, b):
            num.append(term)
    log_den = _logsumexp(den)
    if log_den == NEG_INF:
        return 0.0
    log_num = _logsumexp(num)
    return 0.0 if log_num == NEG_INF else min(math.exp(log_num - log_den), 1.0)


def check_prior(rows, pk) -> None:
    """Masses, region membership and the four constraints, from the tags alone."""
    require(all(m >= -MASS_TOL for _, _, m, _, _ in rows), "negative mass")
    require(abs(math.fsum(m for _, _, m, _, _ in rows) - 1.0) <= MASS_TOL, "total mass is not 1")
    for x, lam, m, side, _ in rows:
        require(0.0 <= x <= 1.0 and envelope(x) <= lam <= 1.0, f"point ({x}, {lam}) outside the region")
        require(m <= 0.0 or x > pk.p_l or (x == pk.p_l and side >= 0), f"mass below p_l at x={x}")
    theta = math.fsum(m for x, _, m, side, _ in rows if _leq(x, side, pk.epsilon))
    phi1 = math.fsum(m for _, _, m, _, c in rows if c < 0)
    phi2 = math.fsum(m for _, _, m, _, c in rows if c > 0)
    require(abs(theta - pk.theta) <= MASS_TOL, f"P(X<=eps)={theta!r} != theta={pk.theta!r}")
    require(abs(phi1 - pk.phi1) <= MASS_TOL, f"P(lam<x)={phi1!r} != phi1={pk.phi1!r}")
    require(abs(phi2 - pk.phi2) <= MASS_TOL, f"P(lam>x)={phi2!r} != phi2={pk.phi2!r}")


def check_posterior(rows, ev: Evidence, b: float, claimed: float, what: str = "confidence") -> None:
    require(0.0 <= claimed <= 1.0, f"{what} {claimed!r} outside [0, 1]")
    mine = posterior(rows, ev, b)
    require(abs(mine - claimed) <= POSTERIOR_TOL,
            f"{what} {claimed!r} but its prior gives {mine!r}")


# ---------------------------------------------------------------------------
# conservatism: random feasible priors never beat the closed form


def _pick(rng: random.Random, corners: tuple, lo: float, hi: float) -> float:
    """A corner of [lo, hi] half the time, a uniform draw otherwise."""
    return rng.choice(corners) if rng.random() < 0.5 else rng.uniform(lo, hi)


def _support_point(rng: random.Random, pk, b: float, high: bool, cls: int) -> tuple[float, float]:
    """(x, lam) in one constraint cell, biased toward the cell's corners.

    A point on the diagonal in an off-diagonal cell is the limit
    approached from that cell's side.
    """
    if high:
        past_eps = math.nextafter(pk.epsilon, 1.0)
        if rng.random() < 0.5:
            x = rng.choice((b * (1.0 + 1e-9), past_eps))
        elif rng.random() < 0.5:
            lo = max(past_eps, b * 1e-3)
            x = lo * (b / lo) ** rng.random()
        else:
            x = b * (1.0 / b) ** rng.random()
        x = min(x, 1.0 - 1e-12)
    else:
        x = _pick(rng, (pk.p_l, pk.epsilon), pk.p_l, pk.epsilon)
    if cls < 0:
        return x, _pick(rng, (envelope(x), x), envelope(x), x)
    if cls > 0:
        return x, _pick(rng, (x, 1.0), x, 1.0)
    return x, x


#: Points per line in the coarse search for each cell's likelihood extreme.
LINE_POINTS = 48


def _geom(lo: float, hi: float, k: int = LINE_POINTS) -> list[float]:
    return [min(lo * (hi / lo) ** (i / (k - 1)), hi) for i in range(k)]


def _lin(lo: float, hi: float, k: int = LINE_POINTS) -> list[float]:
    return [min(lo + (hi - lo) * i / (k - 1), hi) for i in range(k)]


def _on_region(x: float, lam: float) -> tuple[float, float]:
    """(x, lam) with lam lifted onto the envelope where rounding left it below."""
    return x, max(lam, envelope(x))


def cell_extremes(pk, ev: Evidence, b: float) -> dict:
    """A coarse, independent stand-in for each cell's worst-case location.

    Mass within x <= eps counts for the claim, so the worst case puts it
    where the likelihood is least: some corner of the cell.  Mass beyond
    eps does most harm just past b, where the likelihood is greatest:
    searched here on a few dozen points of each edge of the cell
    (x = b, the diagonal, lam = 0, lam = 1, the envelope) plus the
    conditional maximum-likelihood point.
    """
    out = {}
    for cls in (-1, 0, 1):
        corners = []
        for x in (pk.p_l, pk.epsilon):
            corners += {-1: [(x, 0.0), (x, x)], 0: [(x, x)], 1: [(x, 1.0), (x, x)]}[cls]
        out[(False, cls)] = min(corners, key=lambda p: log_lik(p[0], p[1], ev))
    x0 = b * (1.0 + 1e-9)
    top = 1.0 - 1e-12
    diagonal = [(d, d) for d in _geom(x0, top)]
    edges = {
        -1: diagonal + [(x0, lam) for lam in _lin(envelope(x0), x0)] + [(x, 0.0) for x in _geom(x0, 0.5)]
        + [_on_region(1.0 / (2.0 - lam), lam) for lam in _lin(0.0, top)],
        0: diagonal,
        1: diagonal + [(x0, lam) for lam in _lin(x0, 1.0)] + [(x, 1.0) for x in _geom(x0, top)],
    }
    mle = conditional_mle(ev)
    if mle is not None:
        mle = _on_region(*mle)
    for cls, points in edges.items():
        if mle is not None and mle[0] > b and (mle[1] > mle[0]) - (mle[1] < mle[0]) == cls:
            points.append(mle)
        out[(True, cls)] = max(points, key=lambda p: log_lik(p[0], p[1], ev))
    return out


def pinned_diagonal(pk) -> tuple[list, float | None]:
    """Diagonal mass an independence belief fixes, from the documented rule.

    Strong: as much of theta as the diagonal holds sits at (p_l, p_l) and
    any diagonal remainder just past eps; weak: all diagonal mass at
    (1, 1).  Returns the rows and the quantile mass left to allocate off
    the diagonal (None without a belief).
    """
    belief = pk.independence_belief.value
    if belief == "none":
        return [], None
    diag = 1.0 - pk.phi1 - pk.phi2
    if belief == "strong":
        if pk.theta >= diag:
            return [(pk.p_l, pk.p_l, diag, 0, 0)], pk.theta - diag
        return [(pk.p_l, pk.p_l, pk.theta, 0, 0),
                (pk.epsilon, pk.epsilon, diag - pk.theta, 1, 0)], 0.0
    return [(1.0, 1.0, diag, 0, 0)], pk.theta


def random_feasible_prior(rng: random.Random, pk, b: float, guide: dict | None = None) -> list:
    """A prior meeting every constraint, its masses and support drawn at random.

    tb and ta are the parts of theta below and above the diagonal; they
    range over a polygon whose edges the draw favours.  Each cell's mass
    sits at the ``guide`` location half the time, elsewhere in the cell
    otherwise.
    """
    theta, phi1, phi2 = pk.theta, pk.phi1, pk.phi2
    fixed, theta_off = pinned_diagonal(pk)
    if theta_off is None:
        quant = _pick(rng, (max(0.0, theta + phi1 + phi2 - 1.0), min(theta, phi1 + phi2)),
                      max(0.0, theta + phi1 + phi2 - 1.0), min(theta, phi1 + phi2))
    else:
        quant = theta_off
    tb_lo, tb_hi = max(0.0, quant - phi2), min(phi1, quant)
    tb = _pick(rng, (tb_lo, tb_hi), tb_lo, tb_hi)
    ta = quant - tb
    masses = {(False, -1): tb, (False, +1): ta, (True, -1): phi1 - tb, (True, +1): phi2 - ta}
    if theta_off is None:
        masses[(False, 0)] = theta - tb - ta
        masses[(True, 0)] = 1.0 - theta - phi1 - phi2 + tb + ta
    rows = list(fixed)
    for (high, cls), mass in masses.items():
        if mass <= 0.0:
            continue
        if guide is not None and rng.random() < 0.5:
            x, lam = guide[(high, cls)]
            rows.append((x, lam, mass, 0, cls))
            continue
        parts = rng.randint(1, 2)
        for _ in range(parts):
            x, lam = _support_point(rng, pk, b, high, cls)
            rows.append((x, lam, mass / parts, 0, cls))
    return rows


def conditional_mle(ev: Evidence):
    """(x, lam) from the conditional estimates lam = FF/(FF+FS), y = SF/(SF+SS)."""
    if ev.ff + ev.fs == 0 or ev.sf + ev.ss == 0:
        return None
    lam = ev.ff / (ev.ff + ev.fs)
    y = ev.sf / (ev.sf + ev.ss)
    return y / (y + 1.0 - lam), lam


def check_conservative(pk, ev: Evidence, b: float, claimed: float, rng: random.Random, samples: int) -> None:
    guide = cell_extremes(pk, ev, b)
    for _ in range(samples):
        rows = random_feasible_prior(rng, pk, b, guide)
        check_prior(rows, pk)
        value = posterior(rows, ev, b)
        require(value >= claimed - CONSERVATISM_TOL,
                f"a feasible prior scores {value!r} below the closed form {claimed!r}")


# ---------------------------------------------------------------------------
# univariate and asymptote


def univariate(theta: float, eps: float, b: float, n: int) -> float:
    """theta(1-eps)^n / (theta(1-eps)^n + (1-theta)(1-b)^n), in log space."""
    if theta >= 1.0:
        return 1.0
    a = math.log(theta) + n * math.log1p(-eps)
    c = math.log1p(-theta) + n * math.log1p(-b)
    return 1.0 / (1.0 + math.exp(c - a))


def univariate_bound(theta: float, eps: float, n: int, target: float) -> float:
    """The b at which the univariate posterior equals ``target`` (theta < target)."""
    k = math.log(theta * (1.0 - target) / (target * (1.0 - theta)))
    return -math.expm1(math.log1p(-eps) + k / n)


def check_reduction(pk, n: int, b: float, claimed: float) -> None:
    want = univariate(pk.theta, pk.epsilon, b, n)
    require(abs(claimed - want) <= REDUCTION_TOL,
            f"phi1=phi2=0 gives {claimed!r}, univariate is {want!r}")


def check_asymptote(theta: float, phi2: float, b: float, claimed: float) -> None:
    want = theta / (theta + (1.0 - b) * phi2)
    require(abs(claimed - want) <= ASYMPTOTE_TOL, f"n=1e9 gives {claimed!r}, asymptote is {want!r}")


# ---------------------------------------------------------------------------
# conjugate Beta baseline through SciPy


def beta_confidence(alpha: float, eps: float, theta: float, n: int, b: float) -> float:
    """P(X <= b) under Beta(alpha, beta0 + n), beta0 fitted so P(X <= eps) = theta."""
    from scipy.special import betainc

    lo, hi = 1e-8, 1.0
    while betainc(alpha, hi, eps) < theta:
        hi *= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if betainc(alpha, mid, eps) < theta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return float(betainc(alpha, 0.5 * (lo + hi) + n, b))


def check_beta(alpha: float, pk, n: int, b: float, claimed: float) -> None:
    want = beta_confidence(alpha, pk.epsilon, pk.theta, n, b)
    require(abs(claimed - want) <= BETA_TOL, f"beta_bi gives {claimed!r}, SciPy gives {want!r}")


# ---------------------------------------------------------------------------
# confidence-bound inversion


def check_bound(conf, b_star: float, target: float, rel_tol: float) -> None:
    """conf(b*) reaches the target and a bound 2 rel_tol smaller does not."""
    require(0.0 < b_star < 0.5, f"bound {b_star!r} outside (0, 1/2)")
    at = conf(b_star)
    require(at >= target, f"conf(b*={b_star!r}) = {at!r} < target {target!r}")
    below = conf(b_star * math.exp(-2.0 * rel_tol))
    require(below < target, f"conf(b* e^(-2 rel_tol)) = {below!r} already reaches {target!r}")


def check_univariate_bound(pk, n: int, target: float, b_star: float, rel_tol: float) -> None:
    want = univariate_bound(pk.theta, pk.epsilon, n, target)
    require(abs(math.log(b_star / want)) <= rel_tol * (1.0 + 1e-6) + 1e-12,
            f"univariate bound {b_star!r}, closed-form inversion gives {want!r}")


# ---------------------------------------------------------------------------
# campaigns


_RUN = re.compile(r"([SF])(\d+)")


def decode_runs(text: str) -> tuple[np.ndarray, bool]:
    """(run lengths, first run is failures) of an RLE string, checked for shape."""
    pieces = _RUN.findall(text)
    require("".join(f"{c}{k}" for c, k in pieces) == text, "RLE holds stray characters")
    require(len(pieces) > 0, "empty RLE")
    symbols = [c for c, _ in pieces]
    require(all(a != b for a, b in zip(symbols, symbols[1:])), "RLE has adjacent runs of one symbol")
    lengths = np.array([int(k) for _, k in pieces], dtype=np.int64)
    require(bool((lengths > 0).all()), "RLE has an empty run")
    return lengths, symbols[0] == "F"


def chain_failures(x: float, lam: float, n: int, seed: int) -> np.ndarray:
    """Failure indicators under one PCG64 uniform per execution.

    Execution 0 fails when u < x, a later one when u < lam after a failure
    and u < (1-lam)x/(1-x) after a success.  With a_i = [u_i < lam] and
    c_i = [u_i < p_sf] the state is a_i where a_i == c_i; elsewhere it
    copies (lam > p_sf) or flips (lam < p_sf) the previous state, so it is
    the last determined state XOR the flips since, without a Python loop.
    """
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    p_sf = (1.0 - lam) * x / (1.0 - x)
    a = u < lam
    c = u < p_sf
    a[0] = c[0] = u[0] < x
    fixed = a == c
    idx = np.where(fixed, np.arange(n), 0)
    np.maximum.accumulate(idx, out=idx)
    flips = np.cumsum(~fixed & c)  # c and not a only happens when p_sf > lam
    return a[idx] ^ ((flips - flips[idx]) % 2).astype(bool)


def runs_of(fails: np.ndarray) -> tuple[np.ndarray, bool]:
    edges = np.flatnonzero(fails[1:] != fails[:-1]) + 1
    bounds = np.concatenate(([0], edges, [fails.size]))
    return np.diff(bounds), bool(fails[0])


def check_campaign(rle: str, summary: dict, x: float, lam: float, n: int, seed: int) -> None:
    lengths, first_f = decode_runs(rle)
    require(int(lengths.sum()) == n, f"RLE run lengths sum to {int(lengths.sum())}, not n={n}")
    fails = chain_failures(x, lam, n, seed)
    mine, mine_first = runs_of(fails)
    require(mine_first == first_f and np.array_equal(mine, lengths), "RLE differs from the PCG64 chain")
    s = int(fails.sum())
    r = int(np.count_nonzero(fails[1:] & fails[:-1]))
    want = {"n": n, "s": s, "r": r,
            "first": "failure" if fails[0] else "success",
            "last": "failure" if fails[-1] else "success"}
    require(summary == want, f"summary {summary} but the chain gives {want}")
