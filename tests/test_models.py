import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from denselab.errors import (
    BudgetExceededError,
    InfeasibleError,
    InvalidArgumentError,
)
from denselab.hypergraph import rank_edge, write_hypergraph_text
from denselab.models import (
    ProblemParams,
    RationalParams,
    aux_edge_probabilities,
    aux_ldlr_upper_bound,
    derive_params,
    enumerate_planted_exact,
    exact_spike,
    sample_aux,
    sample_null,
    sample_planted,
    validate_aux_feasible,
)


def test_derive_params_example():
    pp = derive_params(16, 2, 0.25, 0.5, 0.5)
    assert pp.p == pytest.approx(0.5)
    assert pp.q == pytest.approx(0.25)
    assert pp.rho == pytest.approx(0.25)
    assert pp.M == 120
    assert pp.sigma == pytest.approx(math.sqrt(0.25 * 0.75))


def test_param_constraints():
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 2, 0.5, 0.5, 0.5)  # alpha < beta violated
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 2, 0.3, 1.2, 0.5)  # beta < r - 1 violated
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 2, 0.3, 0.5, 1.5)
    with pytest.raises(InvalidArgumentError):
        derive_params(16, 1, 0.3, 0.5, 0.5)
    # relaxed mode admits alpha >= beta (used by the auxiliary model)
    pp = derive_params(16, 2, 0.8, 0.5, 0.75, enforce_alpha_lt_beta=False)
    assert pp.p < pp.q
    with pytest.raises(InvalidArgumentError, match="alpha > 0"):
        derive_params(16, 2, 0.0, 0.5, 0.75, enforce_alpha_lt_beta=False)


def test_explicit_hook():
    pp = ProblemParams.explicit(4, 2, 0.5, 0.25, 0.25)
    assert pp.alpha is None and pp.M == 6
    eq = ProblemParams.explicit(4, 2, 0.25, 0.25, 0.25)
    assert eq.p == eq.q  # p = q allowed here, not in the exponent form
    with pytest.raises(InvalidArgumentError):
        ProblemParams.explicit(4, 2, 0.1, 0.25, 0.25)


def test_null_sampler_determinism_and_rate():
    pp = derive_params(16, 2, 0.25, 0.5, 0.5)
    a = sample_null(pp, 5)
    b = sample_null(pp, 5)
    assert a == b
    assert sample_null(pp, 6) != a
    # empirical edge rate within 5 sigma of q
    counts = [sample_null(pp, 0, key=(t,)).edge_count for t in range(400)]
    mean = np.mean(counts)
    se = math.sqrt(pp.M * pp.q * (1 - pp.q) / 400)
    assert abs(mean - pp.M * pp.q) < 5 * se


def test_planted_sampler_monotone_coupling():
    """Planted graphs contain the corresponding null draw's non-Z edges."""
    pp = derive_params(12, 2, 0.25, 0.5, 0.7)
    for t in range(20):
        s = sample_planted(pp, 9, key=(t,))
        inside = set()
        zs = sorted(s.Z)
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                inside.add(rank_edge((zs[i], zs[j]), pp.n, pp.r))
        # edges outside Z follow the same uniforms as a null draw would
        assert (s.Y.n, s.Y.r) == (pp.n, pp.r)
        assert s.Z <= set(range(1, pp.n + 1))


def test_planted_rate_inside_z():
    pp = derive_params(10, 2, 0.2, 0.6, 0.9)
    hits = tot = 0
    for t in range(600):
        s = sample_planted(pp, 3, key=(t,))
        present = set(s.Y.ranks.tolist())
        zs = sorted(s.Z)
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                tot += 1
                hits += rank_edge((zs[i], zs[j]), pp.n, pp.r) in present
    assert tot > 1000
    se = math.sqrt(pp.p * (1 - pp.p) / tot)
    assert abs(hits / tot - pp.p) < 5 * se


# First 16 hex digits of sha256 over the sampled bits (seed 7, planted key
# (1, 0), null key (0, 0)) and over the planted sample's text form. They pin
# the RNG stream: one uniform per edge rank, in rank order, drawn after the n
# membership uniforms. n=600 spans three blocks of drawn uniforms.
GOLDEN_SAMPLES = [
    ((600, 2, 0.3, 0.5, 0.75), "ed9800377659f382", "ad52f9e1af5ed6b0", "78724298d9df6f04"),
    ((300, 2, 0.3, 0.5, 0.75), "8400b466c98409cb", "0d9b5e52eaa83bd0", "2d03826e27e7a860"),
    ((60, 3, 0.3, 0.9, 0.75), "c1d0b01d7dcc29ca", "3e8b488776c1f719", "30d70b731bb62bf0"),
    ((24, 4, 0.5, 2.5, 0.8), "0c49cc2cd8b6f139", "de122350eb6114a3", "7f9024af6d128b9d"),
]


@pytest.mark.parametrize("args,planted,null,text", GOLDEN_SAMPLES)
def test_sampled_bits_golden(args, planted, null, text):
    def digest(data):
        return hashlib.sha256(data).hexdigest()[:16]

    def bits(hg):
        out = np.zeros(pp.M, dtype=bool)
        out[hg.ranks] = True
        return out.tobytes()

    pp = derive_params(*args)
    sample = sample_planted(pp, 7, key=(1, 0))
    assert digest(bits(sample.Y)) == planted
    assert digest(bits(sample_null(pp, 7, key=(0, 0)))) == null
    assert digest(write_hypergraph_text(sample.Y).encode()) == text


def test_exact_enumeration_mass_and_marginals():
    rp = RationalParams(3, 2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))
    dist = enumerate_planted_exact(rp)
    assert dist.total_mass() == 1
    # edge {1,2} marginal: q + rho^2 (p - q)
    expected = rp.q + rp.rho ** 2 * (rp.p - rp.q)
    assert dist.edge_marginal(0) == expected


def test_exact_enumeration_budget():
    rp = RationalParams(8, 2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))
    with pytest.raises(BudgetExceededError):
        enumerate_planted_exact(rp)


def test_aux_spike_makes_planted_pair_probability_p():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    lam = exact_spike(pp)
    both_in, mixed, both_out = aux_edge_probabilities(pp, lam)
    assert both_in == pytest.approx(pp.p, rel=1e-12)
    assert 0 <= mixed <= 1 and 0 <= both_out <= 1


def test_aux_feasibility_errors():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    with pytest.raises(InfeasibleError) as exc:
        validate_aux_feasible(pp, 100.0)
    assert "probability" in str(exc.value)
    pp3 = derive_params(20, 3, 0.25, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        validate_aux_feasible(pp3, 0.1)


def test_aux_sampler_deterministic():
    pp = derive_params(30, 2, 0.25, 0.5, 0.5)
    aux1, y1 = sample_aux(pp, 11)
    aux2, y2 = sample_aux(pp, 11)
    assert y1 == y2
    assert np.array_equal(aux1.u, aux2.u)
    # u takes exactly the two standardized values
    vals = set(np.round(aux1.u, 12))
    assert vals <= {round(aux1.a, 12), round(aux1.b, 12)}


def test_aux_bound_degree_zero_is_one():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    res = aux_ldlr_upper_bound(pp, 0, 50, 2)
    assert res.value == 1.0
    assert len(res.terms) == 1


def test_aux_bound_terms_positive_and_reproducible():
    pp = derive_params(100, 2, 0.25, 0.5, 0.5)
    r1 = aux_ldlr_upper_bound(pp, 2, 500, 4)
    r2 = aux_ldlr_upper_bound(pp, 2, 500, 4)
    assert r1.value == r2.value
    assert all(t.value >= 0 for t in r1.terms)
