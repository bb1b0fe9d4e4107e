"""Grid oracle: structure, Dinkelbach certificate, refinement, witnesses."""

from collections import Counter

import numpy as np
import pytest

from klotzcbi import (
    GridSpec,
    IndependenceBelief,
    ObservationSummary,
    PriorKnowledge,
    UnsupportedRegimeError,
    ValidationError,
    conservative_confidence,
    grid_candidates,
    infimum,
    posterior_confidence,
    region_contains,
    transitions_from_summary,
    validate_prior,
)

from klotzcbi.oracle import _linspace_rows, _span_rows

from conftest import random_obs, random_pk

SMALL = GridSpec(resolution=61, refine_rounds=1)


class TestGridCandidates:
    def test_structure(self):
        pk = PriorKnowledge(p_l=0.0, epsilon=0.1, theta=0.5, phi1=0.2, phi2=0.2)
        cands = grid_candidates(pk, 0.2, GridSpec(resolution=11))
        assert all(region_contains(c.point) for c in cands)
        subsets = Counter(c.subset for c in cands)
        expected = {
            "diagonal",
            "above_leq_eps",
            "above_mid",
            "above_right",
            "below_leq_eps",
            "below_mid",
            "below_right",
        }
        assert set(subsets) == expected

    def test_side_padding_adds_bound_companions(self):
        pk = PriorKnowledge(p_l=0.0, epsilon=0.1, theta=0.5, phi1=0.2, phi2=0.2)
        b = 0.2
        cands = grid_candidates(pk, b, GridSpec(resolution=11, side_padding=True))
        right = [c for c in cands if c.point.x == b and c.x_side.value == "from_right"]
        # a FromRight companion exists above the diagonal for the b column
        assert any(c.point.lam > b for c in right)
        exact = [c for c in cands if c.point.x == b and c.x_side.value == "exact"]
        assert exact, "the b column keeps its numerator-side points too"

    def test_respects_lower_bound(self):
        pk = PriorKnowledge(p_l=0.01, epsilon=0.05, theta=0.5)
        cands = grid_candidates(pk, 0.1, GridSpec(resolution=11))
        assert all(c.point.x >= pk.p_l for c in cands)


def _span_grid_reference(lo, hi, k):
    """The per-column span grid the batched helper must reproduce bit for bit."""
    if hi <= lo:
        return np.array([lo])
    span = hi - lo
    accents = np.geomspace(max(span * 1e-12, 1e-300), span, max(k // 3, 5))
    vals = np.concatenate([np.linspace(lo, hi, k), lo + accents, hi - accents])
    return np.unique(np.clip(vals, lo, hi))


class TestBatchedRows:
    # zero-width rows, a denormal span whose linspace step is zero, and
    # ordinary rows side by side: with array endpoints numpy would compute
    # every row by its zero-step formula and move the ordinary ones by an ulp
    LO = np.array([0.0, 0.3, 0.25, 0.0, 0.5, 1e-7, 0.9, 0.0])
    HI = np.array([1.0, 0.3, 0.75, 5e-323, 0.4, 0.3, 1.0, 1e-320])

    def test_linspace_rows_match_scalar_calls(self):
        rows = _linspace_rows(self.LO, self.HI, 67)
        for i, (lo, hi) in enumerate(zip(self.LO, self.HI)):
            assert np.array_equal(rows[i], np.linspace(lo, hi, 67))

    def test_span_rows_match_per_column_grid(self):
        raw = _span_rows(self.LO, self.HI, 67)
        for i, (lo, hi) in enumerate(zip(self.LO, self.HI)):
            got = np.unique(np.clip(raw[i], lo, hi)) if hi > lo else np.unique(raw[i])
            assert np.array_equal(got, _span_grid_reference(lo, hi, 67))


class TestInfimum:
    def test_no_evidence_returns_theta(self):
        pk = PriorKnowledge(epsilon=1e-3, theta=0.65, phi1=0.1, phi2=0.2)
        res = infimum(pk, ObservationSummary(0, 0, 0), 0.01, SMALL)
        assert res.confidence == pytest.approx(0.65, abs=1e-12)

    def test_zero_regime_hits_zero(self):
        pk = PriorKnowledge(epsilon=1e-4, theta=0.6, phi1=0.7, phi2=0.1)
        obs = ObservationSummary.from_counts(500, 3, 1)
        res = infimum(pk, obs, 1e-3, SMALL)
        assert res.confidence <= res.resolution_bound

    def test_witness_is_valid_and_reproduces_value(self, rng):
        for kind in ("nofail", "r0", "rpos"):
            for _ in range(5):
                pk, b = random_pk(rng)
                obs = random_obs(rng, kind, n_max=2000)
                res = infimum(pk, obs, b, SMALL)
                assert validate_prior(res.prior, pk) == []
                again = posterior_confidence(res.prior, transitions_from_summary(obs), b)
                assert again.confidence == pytest.approx(res.confidence, abs=1e-12)

    def test_dinkelbach_certificate(self, rng):
        for _ in range(10):
            pk, b = random_pk(rng)
            obs = random_obs(rng, "nofail", n_max=5000)
            res = infimum(pk, obs, b, SMALL)
            # auxiliary minimum at c* brackets zero at the scaled tolerance
            assert abs(res.certificate) <= 1e-12
            assert res.c_star == pytest.approx(res.confidence, abs=1e-7)

    def test_monotone_refinement(self, rng):
        spec = GridSpec(resolution=61, refine_rounds=3)
        for kind in ("nofail", "rpos"):
            for _ in range(4):
                pk, b = random_pk(rng)
                obs = random_obs(rng, kind, n_max=2000)
                res = infimum(pk, obs, b, spec)
                for earlier, later in zip(res.round_values, res.round_values[1:]):
                    assert later <= earlier + 1e-15

    def test_resolution_convergence(self, rng):
        for kind in ("nofail", "r0"):
            for _ in range(5):
                pk, b = random_pk(rng)
                obs = random_obs(rng, kind, n_max=2000)
                coarse = infimum(pk, obs, b, GridSpec(resolution=41, refine_rounds=1))
                fine = infimum(pk, obs, b, GridSpec(resolution=81, refine_rounds=1))
                assert abs(fine.confidence - coarse.confidence) <= coarse.resolution_bound

    def test_matches_closed_form_on_theorem_2(self):
        pk = PriorKnowledge(epsilon=1e-5, theta=0.75, phi1=0.75, phi2=0.1)
        obs = ObservationSummary.from_counts(100, 0, 0)
        res = infimum(pk, obs, 1e-4, GridSpec())
        cf = conservative_confidence(pk, obs, 1e-4)
        assert abs(cf.confidence - res.confidence) <= res.resolution_bound

    def test_matches_closed_form_at_road_testing_scale(self):
        # fifteen orders of magnitude between the hardware floor and the
        # claim bound; one isolated failure in 1e8..1e9 miles
        pk = PriorKnowledge(p_l=1e-15, epsilon=1e-10, theta=0.9, phi1=0.01, phi2=0.01)
        for n in (10**8, 10**9):
            obs = ObservationSummary.from_counts(n, 1, 0)
            res = infimum(pk, obs, 1e-8, GridSpec())
            cf = conservative_confidence(pk, obs, 1e-8)
            assert abs(cf.confidence - res.confidence) <= res.resolution_bound

    def test_prefixed_diagonal_gates(self):
        pk = PriorKnowledge(
            theta=0.3, phi1=0.1, phi2=0.2, independence_belief=IndependenceBelief.STRONG
        )
        with pytest.raises(UnsupportedRegimeError):
            infimum(pk, ObservationSummary.from_counts(10, 0, 0), 1e-2, SMALL)

    def test_grid_spec_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(resolution=5)
        with pytest.raises(ValidationError):
            GridSpec(refine_rounds=-1)


# Exact oracle outputs at GridSpec(resolution=61, refine_rounds=2), recorded
# with a per-column (unbatched) grid construction: any change to the
# candidate set, its order or the Dinkelbach search shows up here as an
# inequality, not as a drift inside a tolerance.
GOLDEN_SPEC = GridSpec(resolution=61, refine_rounds=2)
GOLDEN_BASE_COUNTS = {
    "above_leq_eps": 1310,
    "below_leq_eps": 1290,
    "diagonal": 194,
}
GOLDEN = {
    "nofail": (
        PriorKnowledge(p_l=1e-6, epsilon=1e-4, theta=0.7, phi1=0.2, phi2=0.1),
        ObservationSummary.from_counts(3000, 0, 0),
        1e-3,
        dict(
            confidence=0.8252037672571586,
            round_values=[0.8252037672571586] * 3,
            resolution_bound=1.00001e-07,
            certificate=-4.336808689942018e-17,
            c_star=0.8252037672571588,
        ),
        {"above_mid": 1344, "above_right": 3175, "below_mid": 1320, "below_right": 3150},
    ),
    "r0": (
        PriorKnowledge(p_l=2e-5, epsilon=1e-4, theta=0.8, phi1=0.05, phi2=0.1),
        ObservationSummary.from_counts(5000, 2, 0),
        2e-3,
        dict(
            confidence=0.5855755589552537,
            round_values=[0.586749892164593, 0.5855809036780804, 0.5855755589552537],
            resolution_bound=5.444723826650106e-06,
            certificate=-1.1926223897340549e-18,
            c_star=0.5855755589552533,
        ),
        {"above_mid": 1497, "above_right": 3053, "below_mid": 1470, "below_right": 3030,
         "diagonal": 195},
    ),
    "rpos": (
        PriorKnowledge(p_l=1e-5, epsilon=5e-4, theta=0.6, phi1=0.1, phi2=0.3),
        ObservationSummary.from_counts(4000, 3, 1),
        5e-3,
        dict(
            confidence=2.739346998700274e-06,
            round_values=[2.810376941912945e-06, 2.7402965590258326e-06, 2.739346998700274e-06],
            resolution_bound=1.0095056032555844e-07,
            certificate=-1.2793350723109492e-18,
            c_star=2.7393469987369023e-06,
        ),
        {"above_mid": 1466, "above_right": 3089, "below_mid": 1440, "below_right": 3061,
         "diagonal": 195},
    ),
    "strong": (
        PriorKnowledge(
            p_l=1e-6, epsilon=1e-4, theta=0.6, phi1=0.3, phi2=0.2,
            independence_belief=IndependenceBelief.STRONG,
        ),
        ObservationSummary.from_counts(2000, 0, 0),
        1e-3,
        dict(
            confidence=0.7191572040123906,
            round_values=[0.7191572040123906] * 3,
            resolution_bound=1.00001e-07,
            certificate=-5.551115123125783e-17,
            c_star=0.7191572040123907,
        ),
        {"above_mid": 1344, "above_right": 3175, "below_mid": 1320, "below_right": 3150},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_oracle_outputs(name):
    pk, obs, b, expected, counts = GOLDEN[name]
    res = infimum(pk, obs, b, GOLDEN_SPEC)
    got = {key: getattr(res, key) for key in expected}
    assert got == expected
    subsets = Counter(c.subset for c in grid_candidates(pk, b, GOLDEN_SPEC))
    assert dict(subsets) == {**GOLDEN_BASE_COUNTS, **counts}


@pytest.mark.xfail(
    strict=True,
    reason="resolution_bound (last round's change + _GRID_FLOOR) undercounts the "
    "remaining grid error on this r=0 instance: gap 1.21e-6 over a bound of 6.47e-7",
)
def test_resolution_bound_covers_closed_form_gap_r0():
    pk = PriorKnowledge(
        p_l=6.725521789119123e-06,
        epsilon=2.454893761933669e-05,
        theta=0.8870305083023586,
        phi1=0.09538873755435745,
        phi2=0.4085613382155584,
    )
    obs = ObservationSummary.from_counts(2911, 1, 0)
    b = 0.0002739697745717068
    res = infimum(pk, obs, b, GridSpec(resolution=201, refine_rounds=2))
    cf = conservative_confidence(pk, obs, b)
    assert abs(cf.confidence - res.confidence) <= res.resolution_bound
