"""Brute-force infimum of the posterior over gridded discrete priors.

An independent check on the closed-form worst-case constructions: the
support region is covered with a dense grid of side-tagged candidate
locations, and the constrained infimum of

    sum_i m_i L_i 1_{x_i <= b}  /  sum_i m_i L_i

over the candidate masses is solved as a linear-fractional program by
parametric (Dinkelbach) bisection.  For a trial confidence c the inner
problem is linear and separates: within each constraint cell the mass
goes entirely to the candidate minimising L * (indicator - c), and the
split of the quantile mass across the diagonal is a two-variable linear
program solved at polygon vertices.  Bisecting c to the root of the
auxiliary minimum yields the grid-restricted infimum exactly; local grid
refinement around the winning support then tightens the answer and the
observed change bounds the remaining resolution error.

Nothing here reuses the closed-form support logic: candidates come from
the grid (plus the boundary companions the limit points need), so
agreement between the two routes is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .klotz import (
    KlotzPoint,
    ObservationSummary,
    TransitionCounts,
    ValidationError,
    log_likelihood,
    log_likelihood_many,
    transitions_from_summary,
)
from .priors import (
    DiscretePrior,
    IndependenceBelief,
    LambdaSide,
    PriorKnowledge,
    SupportPoint,
    XSide,
    posterior_confidence,
)
from .worstcase import UnsupportedRegimeError, allocation_vertices

__all__ = ["GridSpec", "GridCandidate", "OracleResult", "grid_candidates", "infimum"]

_BISECT_TOL = 1e-12
#: Residual grid-resolution allowance added to the reported bound.  The
#: observed round-to-round change can saturate below the true remaining
#: discretisation error when the winning support stabilises early; the
#: floor covers the final grid spacing's second-order effect on interior
#: optima with an order-of-magnitude margin over observed residuals.
_GRID_FLOOR = 1e-7

_CELLS = ((False, -1), (False, 0), (False, +1), (True, -1), (True, 0), (True, +1))
# (gt_eps, dependence class); class -1 below, 0 on, +1 above the diagonal


@dataclass(frozen=True)
class GridSpec:
    """Grid density and refinement policy for the oracle."""

    resolution: int = 201
    refine_rounds: int = 2
    side_padding: bool = True

    def __post_init__(self) -> None:
        if self.resolution < 11:
            raise ValidationError("grid resolution must be at least 11")
        if self.refine_rounds < 0:
            raise ValidationError("refine_rounds must be nonnegative")


@dataclass(frozen=True)
class GridCandidate:
    point: KlotzPoint
    x_side: XSide
    lambda_side: LambdaSide
    cell: tuple[bool, int]
    subset: str


_LAMBDA_SIDES = {0: LambdaSide.EXACT, 1: LambdaSide.FROM_ABOVE, -1: LambdaSide.FROM_BELOW}


@dataclass
class _CellPool:
    xs: np.ndarray
    lams: np.ndarray
    x_right: np.ndarray  # bool: x-side FROM_RIGHT
    lam_side: np.ndarray  # int8: 0 exact, +1 from-above, -1 from-below

    @property
    def size(self) -> int:
        return self.xs.size


def _join(pools: list[_CellPool]) -> _CellPool:
    return _CellPool(
        np.concatenate([p.xs for p in pools]),
        np.concatenate([p.lams for p in pools]),
        np.concatenate([p.x_right for p in pools]),
        np.concatenate([p.lam_side for p in pools]),
    )


def _rows_pool(xs, lams, x_right, lam_side, keep) -> _CellPool:
    """Flatten per-column candidate rows (row-major), keeping the masked slots.

    ``xs`` has one entry per row; the other arrays broadcast to ``keep``.
    """
    shape = keep.shape
    return _CellPool(
        np.broadcast_to(xs[:, None], shape)[keep],
        np.broadcast_to(lams, shape)[keep],
        np.broadcast_to(x_right, shape)[keep],
        np.broadcast_to(np.asarray(lam_side, dtype=np.int8), shape)[keep],
    )


def _dedupe_sorted(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.unique(np.clip(values, lo, hi))


def _rowwise(space, lo: np.ndarray, hi: np.ndarray, num: int, zero_step: np.ndarray) -> np.ndarray:
    """``space(lo[i], hi[i], num)`` as row i, bit for bit with the scalar call.

    Given array endpoints, numpy's linspace switches every row to its
    zero-step formula as soon as one row has a zero step, which moves the
    other rows by an ulp; rows with a zero step are therefore built apart.
    """
    out = np.empty((lo.size, num))
    for rows in (zero_step, ~zero_step):
        if rows.any():
            out[rows] = space(lo[rows], hi[rows], num, axis=1)
    return out


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    return _rowwise(np.linspace, lo, hi, num, (hi - lo) / (num - 1) == 0)


def _span_rows(lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
    """Raw span grid of [lo[i], hi[i]] per row, before clipping and dedupe.

    Linear coverage with geometric accents toward both ends; a row with
    hi <= lo is the single value lo, repeated to the common width.
    """
    n_acc = max(k // 3, 5)
    out = np.repeat(lo[:, None], k + 2 * n_acc, axis=1)
    live = hi > lo
    if live.any():
        lo, hi = lo[live], hi[live]
        span = hi - lo
        start = np.maximum(span * 1e-12, 1e-300)
        log_step = (np.log10(span) - np.log10(start)) / (n_acc - 1)
        accents = _rowwise(np.geomspace, start, span, n_acc, log_step == 0)
        out[live] = np.hstack([_linspace_rows(lo, hi, k), lo[:, None] + accents, hi[:, None] - accents])
    return out


def _columns(xs, x_right, cls: int, lo, hi, raw, companion) -> _CellPool:
    """Off-diagonal candidates of a batch of grid columns, row by row.

    Row i holds the distinct values of ``raw[i]`` clipped to [lo[i], hi[i]]
    that lie strictly on side ``cls`` of the diagonal (lam < x below,
    lam > x above), increasing, then the limit companion (x, x) tagged
    from that side where ``companion[i]``.
    """
    lams = np.sort(np.clip(raw, lo[:, None], hi[:, None]), axis=1)
    keep = np.ones(lams.shape, dtype=bool)
    keep[:, 1:] = lams[:, 1:] != lams[:, :-1]
    keep &= lams < xs[:, None] if cls < 0 else lams > xs[:, None]
    lam_side = np.zeros(lams.shape[1] + 1, dtype=np.int8)
    lam_side[-1] = cls
    return _rows_pool(
        xs, np.hstack([lams, xs[:, None]]), x_right[:, None], lam_side,
        np.hstack([keep, companion[:, None]]),
    )


def _envelope(xs: np.ndarray) -> np.ndarray:
    """:func:`lower_envelope` over an array, with the same arithmetic."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(xs <= 0.5, 0.0, (2.0 * xs - 1.0) / xs)


def _split_bound_columns(xs: np.ndarray, x_right: np.ndarray, twice: np.ndarray):
    """Repeat the flagged columns, the copy tagged FROM_RIGHT: a point on the
    claim bound needs both its numerator- and denominator-side versions."""
    reps = 1 + twice
    xs, x_right = np.repeat(xs, reps), np.repeat(x_right, reps)
    x_right[np.cumsum(reps)[twice] - 1] = True
    return xs, x_right


def _x_grid_low(pk: PriorKnowledge, k: int) -> np.ndarray:
    lo, hi = pk.p_l, pk.epsilon
    if hi <= lo:
        return np.array([hi])
    vals = [np.linspace(lo, hi, k), np.array([lo, hi])]
    if hi > 0:
        vals.append(np.geomspace(max(lo, hi * 1e-9), hi, max(k // 2, 5)))
    return _dedupe_sorted(np.concatenate(vals), lo, hi)


def _x_grid_high(pk: PriorKnowledge, b: float, k: int) -> np.ndarray:
    eps = pk.epsilon
    vals = [
        np.linspace(eps, 1.0, k),
        np.linspace(eps, b, max(k // 2, 5)),
        np.geomspace(max(eps, 1e-14), 1.0, k),
        np.array([eps, b, 0.5, 1.0]),
    ]
    return _dedupe_sorted(np.concatenate(vals), eps, 1.0)


def _base_pools(pk: PriorKnowledge, b: float, spec: GridSpec) -> dict[tuple[bool, int], _CellPool]:
    lam_k = max(spec.resolution // 3, 17)
    pad = spec.side_padding
    x_low = _x_grid_low(pk, max(spec.resolution // 2, 11))
    x_high = _x_grid_high(pk, b, spec.resolution)
    columns = {
        False: (x_low, np.zeros(x_low.size, dtype=bool)),
        # companions sitting just past the claim bound
        True: _split_bound_columns(x_high, x_high == pk.epsilon, (x_high == b) & pad),
    }
    pools: dict[tuple[bool, int], _CellPool] = {}  # filled in _CELLS order
    for gt_eps, (xs, x_right) in columns.items():
        env = _envelope(xs)
        ones = np.ones(xs.size)
        pools[(gt_eps, -1)] = _columns(
            xs, x_right, -1, env, xs, _span_rows(env, xs, lam_k),
            # limit companion approached from below the diagonal
            pad & (env <= xs) & (xs < 1.0),
        )
        # (1, 1): meaningful only for the all-failure chain, handled by logL
        pools[(gt_eps, 0)] = _rows_pool(
            xs, np.stack([xs, ones], axis=1), np.stack([x_right, np.zeros(xs.size, dtype=bool)], axis=1),
            0, np.stack([xs >= env, xs == 1.0], axis=1),
        )
        pools[(gt_eps, +1)] = _columns(
            xs, x_right, +1, xs, ones, _span_rows(xs, ones, lam_k), pad & (xs < 1.0),
        )
    return pools


def _refine_pools(
    pools: dict[tuple[bool, int], _CellPool],
    focus: list[tuple[tuple[bool, int], float, float]],
    pk: PriorKnowledge,
    b: float,
    spec: GridSpec,
    x_step: float,
    lam_step: float,
) -> None:
    # the zoom windows must bracket the true per-line optimum, so they are
    # sized by the current grid gap in each coordinate, not by a shared
    # schedule: unimodality along lines puts the optimum within one gap of
    # the gridded argmax
    lam_k = max(spec.resolution // 3, 17)
    k = max(spec.resolution // 2, 21)
    added: dict[tuple[bool, int], list[_CellPool]] = {cell: [] for cell in _CELLS}
    for cell, x0, lam0 in focus:
        gt_eps, cls = cell
        x_lo = pk.epsilon if gt_eps else pk.p_l
        x_hi = 1.0 if gt_eps else pk.epsilon
        xs = np.concatenate(
            [
                [x0],
                np.linspace(max(x0 - x_step, x_lo), min(x0 + x_step, x_hi), k),
                x0 * np.linspace(0.5, 2.0, k // 2) if x0 > 0 else np.zeros(0),
            ]
        )
        xs = _dedupe_sorted(xs, x_lo, x_hi)
        # points landing exactly on the eps or b cut need their
        # quantile/indicator side companion, like the base grid
        on_eps = (xs == pk.epsilon) & gt_eps
        xs, x_right = _split_bound_columns(xs, on_eps, (xs == b) & ~on_eps)
        env = _envelope(xs)
        if cls == 0:
            added[cell].append(_rows_pool(xs, xs[:, None], x_right[:, None], 0, (xs >= env)[:, None]))
            continue
        lo, hi = (env, xs) if cls < 0 else (xs, np.ones(xs.size))
        width = np.maximum(np.minimum(lam_step, hi - lo), 1e-300)
        window = _linspace_rows(np.maximum(lam0 - width, lo), np.minimum(lam0 + width, hi), lam_k)
        raw = np.hstack([window, _span_rows(lo, hi, lam_k // 2)])
        added[cell].append(_columns(xs, x_right, cls, lo, hi, raw, (xs < 1.0) | (cls < 0)))
    for cell, parts in added.items():
        if parts:
            pools[cell] = _join([pools[cell], *parts])


def grid_candidates(pk: PriorKnowledge, b: float, spec: GridSpec | None = None) -> list[GridCandidate]:
    """Tagged candidate locations covering the region, labeled by constraint group."""
    spec = spec or GridSpec()
    pk.check_claim(b)
    out: list[GridCandidate] = []
    for (gt_eps, cls), pool in _base_pools(pk, b, spec).items():
        if cls == 0:
            subsets = np.full(pool.size, "diagonal")
        else:
            side = "above" if cls > 0 else "below"
            if gt_eps:
                mid = (pool.xs < b) | ((pool.xs == b) & ~pool.x_right)
                subsets = np.where(mid, f"{side}_mid", f"{side}_right")
            else:
                subsets = np.full(pool.size, f"{side}_leq_eps")
        for x, lam, xr, ls, subset in zip(
            pool.xs.tolist(), pool.lams.tolist(), pool.x_right.tolist(),
            pool.lam_side.tolist(), subsets.tolist(),
        ):
            x_side = XSide.FROM_RIGHT if xr else XSide.EXACT
            out.append(
                GridCandidate(KlotzPoint(x, lam), x_side, _LAMBDA_SIDES[ls], (gt_eps, cls), subset)
            )
    return out


@dataclass
class OracleResult:
    confidence: float
    prior: DiscretePrior
    resolution_bound: float
    certificate: float
    c_star: float
    round_values: list[float] = field(default_factory=list)
    degenerate: bool = False
    #: candidates in the grid at each round's evaluation
    grid_sizes: list[int] = field(default_factory=list)
    #: points passed to :func:`log_likelihood_many`; each candidate is
    #: evaluated once, so this equals the final grid size
    likelihood_evals: int = 0


@dataclass
class _CellExtrema:
    num_l: float  # scaled likelihood of the best numerator-side candidate
    num_idx: int
    den_l: float  # scaled likelihood of the best denominator-side candidate
    den_idx: int


def _cell_extrema(pool: _CellPool, log_l: np.ndarray, b: float, scale: float) -> _CellExtrema:
    scaled = np.exp(np.minimum(log_l - scale, 0.0))
    ind = (pool.xs < b) | ((pool.xs == b) & ~pool.x_right)
    num_l, num_idx = math.inf, -1
    den_l, den_idx = -1.0, -1
    if ind.any():
        idx = int(np.argmin(np.where(ind, scaled, np.inf)))
        num_l, num_idx = float(scaled[idx]), idx
    if (~ind).any():
        idx = int(np.argmax(np.where(~ind, scaled, -np.inf)))
        den_l, den_idx = float(scaled[idx]), idx
    return _CellExtrema(num_l, num_idx, den_l, den_idx)


def _vertex_masses(pk: PriorKnowledge, tb: float, ta: float, theta_off: float | None) -> dict:
    theta = pk.theta if theta_off is None else theta_off
    masses = {
        (False, -1): tb,
        (False, +1): ta,
        (False, 0): theta - tb - ta,
        (True, -1): pk.phi1 - tb,
        (True, +1): pk.phi2 - ta,
        (True, 0): 1.0 - pk.theta - pk.phi1 - pk.phi2 + tb + ta,
    }
    if theta_off is not None:
        masses[(False, 0)] = theta_off - tb - ta
        masses[(True, 0)] = 0.0
    return {k: max(v, 0.0) for k, v in masses.items()}


def _allocation_vertices(pk: PriorKnowledge, theta_off: float | None) -> list[tuple[float, float]]:
    if theta_off is not None:
        lo = max(0.0, theta_off - pk.phi2)
        hi = min(pk.phi1, theta_off)
        if lo > hi + 1e-12:
            raise ValidationError("infeasible off-diagonal mass constraints")
        return sorted({(lo, theta_off - lo), (hi, theta_off - hi)})
    return allocation_vertices(pk.theta, pk.phi1, pk.phi2)


def _prefixed_diagonal(pk: PriorKnowledge, t: TransitionCounts) -> tuple[list[SupportPoint], float | None]:
    """Diagonal pre-allocation implied by an independence-belief constraint.

    The belief pins the prior probability of independent failure-free
    executions to its extreme value, which fixes where the diagonal mass
    sits before the fractional program runs over the off-diagonal cells.
    """
    belief = pk.independence_belief
    if belief is IndependenceBelief.NONE:
        return [], None
    theta, phi1, phi2 = pk.theta, pk.phi1, pk.phi2
    diag_total = 1.0 - phi1 - phi2
    if belief is IndependenceBelief.STRONG:
        if not (phi1 + phi2 >= 1.0 - theta - 1e-12 and phi2 <= 1.0 - theta + 1e-12):
            raise UnsupportedRegimeError("strong-belief range not covered")
        if theta >= diag_total:
            pts = [SupportPoint(KlotzPoint(pk.p_l, pk.p_l), diag_total)]
            theta_off = theta - diag_total
        else:
            pts = [
                SupportPoint(KlotzPoint(pk.p_l, pk.p_l), theta),
                SupportPoint(KlotzPoint(pk.epsilon, pk.epsilon), diag_total - theta, x_side=XSide.FROM_RIGHT),
            ]
            theta_off = 0.0
        return pts, theta_off
    if not (phi1 + phi2 >= theta - 1e-12 and phi1 <= theta + 1e-12):
        raise UnsupportedRegimeError("weak-belief range not covered")
    return [SupportPoint(KlotzPoint(1.0, 1.0), diag_total)], theta


def infimum(
    pk: PriorKnowledge,
    obs: ObservationSummary | TransitionCounts,
    b: float,
    spec: GridSpec | None = None,
) -> OracleResult:
    """Grid-restricted infimum of the posterior confidence, with witness.

    Dinkelbach bisection over the trial confidence c; per c the optimal
    prior concentrates per cell and per polygon vertex, so each bisection
    step costs a handful of comparisons once the grid likelihoods are in
    hand.  ``refine_rounds`` of local re-gridding around the winning
    support follow; the last observed change plus the bisection tolerance
    is reported as the resolution bound.
    """
    spec = spec or GridSpec()
    pk.check_claim(b)
    t = obs if isinstance(obs, TransitionCounts) else transitions_from_summary(obs)

    fixed_pts, theta_off = _prefixed_diagonal(pk, t)
    vertices = _allocation_vertices(pk, theta_off)

    pools = _base_pools(pk, b, spec)
    best_value: float | None = None
    best_prior: DiscretePrior | None = None
    best_cert = math.inf
    best_c = 0.0
    round_values: list[float] = []
    x_step = 1.0 / (spec.resolution - 1)
    lam_step = 1.0 / (max(spec.resolution // 3, 17) - 1)

    # log-likelihoods persist across rounds: refinement only appends to a
    # cell's pool, so each round evaluates just the candidates it added
    log_ls = {cell: np.zeros(0) for cell in pools}
    grid_sizes: list[int] = []
    evals = 0

    for rnd in range(spec.refine_rounds + 1):
        for cell, pool in pools.items():
            done = log_ls[cell].size
            fresh = log_likelihood_many(pool.xs[done:], pool.lams[done:], t)
            log_ls[cell] = np.concatenate([log_ls[cell], fresh])
            evals += fresh.size
        grid_sizes.append(sum(pool.size for pool in pools.values()))
        finite = [arr[np.isfinite(arr)] for arr in log_ls.values()]
        finite = [a for a in finite if a.size]
        if not finite:
            prior = _witness_from(pools, {}, {}, fixed_pts)
            return OracleResult(
                0.0, prior, _BISECT_TOL, 0.0, 0.0, [0.0], degenerate=True,
                grid_sizes=grid_sizes, likelihood_evals=evals,
            )
        scale = max(float(a.max()) for a in finite)

        fixed_num = 0.0
        fixed_den = 0.0
        for sp in fixed_pts:
            l_scaled = math.exp(min(log_likelihood(sp.point, t) - scale, 0.0))
            fixed_den += sp.mass * l_scaled
            if sp.indicator_leq(b):
                fixed_num += sp.mass * l_scaled

        extrema = {
            cell: _cell_extrema(pool, log_ls[cell], b, scale) for cell, pool in pools.items()
        }

        def aux(c: float) -> tuple[float, tuple[float, float], dict]:
            best_v = math.inf
            best_vertex = vertices[0]
            best_choice: dict = {}
            for tb, ta in vertices:
                masses = _vertex_masses(pk, tb, ta, theta_off)
                total = fixed_num - c * fixed_den
                choice = {}
                for cell, m in masses.items():
                    if m <= 0.0:
                        continue
                    ex = extrema[cell]
                    num_v = (1.0 - c) * ex.num_l if ex.num_idx >= 0 else math.inf
                    den_v = -c * ex.den_l if ex.den_idx >= 0 else math.inf
                    if den_v <= num_v:
                        total += m * den_v
                        choice[cell] = ("den", ex.den_idx)
                    else:
                        total += m * num_v
                        choice[cell] = ("num", ex.num_idx)
                if total < best_v:
                    best_v, best_vertex, best_choice = total, (tb, ta), choice
            return best_v, best_vertex, best_choice

        lo_c, hi_c = 0.0, 1.0
        g_lo = aux(0.0)[0]
        if g_lo <= 0.0:
            c_star = 0.0
        else:
            for _ in range(80):
                mid = 0.5 * (lo_c + hi_c)
                if aux(mid)[0] > 0.0:
                    lo_c = mid
                else:
                    hi_c = mid
                if hi_c - lo_c < 1e-16:
                    break
            c_star = hi_c
        cert, vertex, choice = aux(c_star)
        if math.isinf(cert):
            raise ValidationError("grid produced no candidates for a cell carrying mass")

        masses = _vertex_masses(pk, vertex[0], vertex[1], theta_off)
        prior = _witness_from(pools, masses, choice, fixed_pts)
        res = posterior_confidence(prior, t, b)
        value = res.confidence

        if best_value is None or value < best_value - 1e-18:
            best_value, best_prior, best_cert, best_c = value, prior, cert, c_star
        round_values.append(best_value)

        if rnd < spec.refine_rounds:
            # zoom on both extremal candidates of every cell, not only the
            # cells the winning vertex happened to load: mass can migrate
            # between cells once a sharper extremum is resolved
            focus = []
            for cell, ex in extrema.items():
                pool = pools[cell]
                for idx in (ex.num_idx, ex.den_idx):
                    if idx >= 0:
                        focus.append((cell, float(pool.xs[idx]), float(pool.lams[idx])))
            _refine_pools(pools, focus, pk, b, spec, x_step, lam_step)
            x_step = 6.0 * x_step / (max(spec.resolution // 2, 21) - 1)
            lam_step = 6.0 * lam_step / (max(spec.resolution // 3, 17) - 1)

    if len(round_values) >= 2:
        bound = abs(round_values[-1] - round_values[-2]) + _BISECT_TOL + _GRID_FLOOR
    else:
        bound = max(x_step, lam_step) + _BISECT_TOL + _GRID_FLOOR
    assert best_prior is not None and best_value is not None
    degenerate = posterior_confidence(best_prior, t, b).degenerate
    return OracleResult(
        best_value, best_prior, bound, best_cert, best_c, round_values, degenerate,
        grid_sizes=grid_sizes, likelihood_evals=evals,
    )


def _witness_from(
    pools: dict,
    masses: dict,
    choice: dict,
    fixed_pts: list[SupportPoint],
) -> DiscretePrior:
    support = list(fixed_pts)
    for cell, (_, idx) in choice.items():
        m = masses.get(cell, 0.0)
        if m <= 0.0:
            continue
        pool = pools[cell]
        x, lam = float(pool.xs[idx]), float(pool.lams[idx])
        x_side = XSide.FROM_RIGHT if pool.x_right[idx] else XSide.EXACT
        lam_side = _LAMBDA_SIDES[int(pool.lam_side[idx])]
        support.append(SupportPoint(KlotzPoint(x, lam), m, x_side, lam_side))
    if not support:
        support = [SupportPoint(KlotzPoint(0.0, 0.0), 1.0)]
    return DiscretePrior(support)
