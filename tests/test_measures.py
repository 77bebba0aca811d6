"""Discrete measures xi, eta, eta-extended and their exact identities."""

import random
from fractions import Fraction

import pytest

from tensorlimits.errors import DegenerateSpec, InadmissibleN, NotDominant
from tensorlimits.measures import (
    DiscreteMeasure,
    TensorSpec,
    admissible_N,
    directional_second_moment,
    eta_extended_measure,
    eta_measure,
    measure_to_csv,
    measure_to_json,
    mixed_moments,
    pushforward_dominant_shifted,
    sigma_squared,
    xi_measure,
)
from tensorlimits.repchar import weyl_dim
from tensorlimits.rootsys import build_root_system

import oracles

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")
G2 = build_root_system("G2")

SPEC_A1 = TensorSpec(A1, (((1,), 1),))
SPEC_A2 = TensorSpec(A2, (((1, 0), 1),))


# ------------------------------------------------------------------ validation


def test_tensor_spec_validation():
    with pytest.raises(NotDominant):
        TensorSpec(A2, (((-1, 0), 1),))
    with pytest.raises(NotDominant):
        TensorSpec(A2, (((1,), 1),))
    with pytest.raises(ValueError):
        TensorSpec(A2, (((1, 0), 0),))
    spec = TensorSpec(A2, (((1, 0), "2/3"),))
    assert spec.factors == (((1, 0), Fraction(2, 3)),)


def test_sigma_squared():
    assert sigma_squared(SPEC_A1) == Fraction(1, 2)
    with pytest.raises(DegenerateSpec):
        sigma_squared(TensorSpec(A1, (((0,), 1),)))
    two = TensorSpec(A2, (((1, 0), 1), ((1, 1), Fraction(1, 2))))
    expected = (Fraction(8, 3) + Fraction(1, 2) * 6) / 8
    assert sigma_squared(two) == expected


def test_admissible_N():
    half = TensorSpec(A1, (((1,), Fraction(1, 2)),))
    assert admissible_N(half, 4) and not admissible_N(half, 3)
    mixed = TensorSpec(A2, (((1, 0), 1), ((0, 1), Fraction(2, 3))))
    assert admissible_N(mixed, 6) and not admissible_N(mixed, 4)
    assert not admissible_N(half, 0)
    with pytest.raises(InadmissibleN):
        xi_measure(half, 3)


# ------------------------------------------------------------------ xi


def test_xi_a1_n2():
    m = xi_measure(SPEC_A1, 2)
    assert m.sigma_sq == Fraction(1, 2)
    assert m.atoms == (
        ((-2,), Fraction(1, 4)),
        ((0,), Fraction(1, 2)),
        ((2,), Fraction(1, 4)),
    )
    assert m.scale_sq == 1


def test_xi_a2_n2_atom():
    m = xi_measure(SPEC_A2, 2)
    assert m.prob_at((2, 0)) == Fraction(1, 9)
    assert m.total_mass() == 1


def test_xi_mean_zero():
    for spec, n in [(SPEC_A1, 5), (SPEC_A2, 4), (TensorSpec(B2, (((0, 1), 1),)), 3)]:
        m = xi_measure(spec, n)
        rank = m.rank
        mean = [sum(p * w[i] for w, p in m.atoms) for i in range(rank)]
        assert all(x == 0 for x in mean)
        assert m.total_mass() == 1


def test_xi_second_moment_identity():
    rng = random.Random(41)
    for rs, spec in [
        (A1, SPEC_A1),
        (A2, TensorSpec(A2, (((1, 0), 1), ((1, 1), Fraction(1, 2))))),
        (G2, TensorSpec(G2, (((0, 1), 1),))),
    ]:
        for n in (2, 4):
            m = xi_measure(spec, n)
            tt_matrix = rs.Cbar
            for _ in range(5):
                t = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rs.rank))
                tt = sum(t[i] * tt_matrix[i][j] * t[j] for i in range(rs.rank) for j in range(rs.rank))
                assert directional_second_moment(rs, m, t) == tt


# ------------------------------------------------------------------ eta


def test_eta_a1_examples():
    m = eta_measure(SPEC_A1, 2)
    assert m.atoms == (((0,), Fraction(1, 4)), ((2,), Fraction(3, 4)))
    single = eta_measure(SPEC_A1, 1)
    assert single.atoms == (((1,), Fraction(1)),)


def test_eta_a2_n3_zero_weight():
    m = eta_measure(SPEC_A2, 3)
    assert m.prob_at((0, 0)) == Fraction(1, 27)
    assert m.total_mass() == 1
    assert all(all(x >= 0 for x in w) for w, _ in m.atoms)


def test_eta_total_mass_various():
    for spec, n in [
        (TensorSpec(B2, (((1, 0), 1),)), 4),
        (TensorSpec(G2, (((0, 1), Fraction(1, 2)),)), 6),
        (TensorSpec(A2, (((1, 1), 1),)), 3),
    ]:
        assert eta_measure(spec, n).total_mass() == 1


# ------------------------------------------------------------------ eta extended


def test_eta_extended_a1_n2_verbatim():
    m = eta_extended_measure(SPEC_A1, 2)
    assert m.prob_at((2,)) == Fraction(3, 8)
    assert m.prob_at((-4,)) == Fraction(3, 8)
    assert m.prob_at((0,)) == Fraction(1, 8)
    assert m.prob_at((-2,)) == Fraction(1, 8)
    assert m.prob_at((-1,)) == 0
    # the wall point is materialized as an explicit zero atom
    assert ((-1,), Fraction(0)) in m.atoms
    assert m.total_mass() == 1


def test_eta_extended_pushforward():
    for spec, n in [(SPEC_A1, 4), (SPEC_A2, 3), (TensorSpec(B2, (((0, 1), 1),)), 3)]:
        eta = eta_measure(spec, n)
        ext = eta_extended_measure(spec, n)
        assert ext.total_mass() == 1
        back = pushforward_dominant_shifted(spec.rs, ext)
        assert back.atoms == eta.atoms
        # restriction to dominant weights is eta / |W|
        order = len(spec.rs.weyl)
        for w, p in eta.atoms:
            assert ext.prob_at(w) == p / order


def test_eta_extended_walls_are_zero():
    from tensorlimits.rootsys import ON_WALL, to_dominant_shifted

    m = eta_extended_measure(SPEC_A2, 2)
    for w, p in m.atoms:
        if to_dominant_shifted(A2, w) is ON_WALL:
            assert p == 0
        # and every nonzero atom is off the walls
        if p != 0:
            assert to_dominant_shifted(A2, w) is not ON_WALL


# ------------------------------------------------------------------ moments


def test_mixed_moments():
    mom = mixed_moments(SPEC_A1, 4, 4)
    assert mom[(0,)] == 1
    assert mom[(1,)] == 0.0
    assert mom[(2,)] == 2
    assert mixed_moments(SPEC_A1, 10, 2)[(2,)] == 2
    with pytest.raises(ValueError):
        mixed_moments(SPEC_A1, 4, 7)


def test_mixed_moments_a2_first_order():
    mom = mixed_moments(SPEC_A2, 3, 2)
    assert mom[(1, 0)] == 0.0 and mom[(0, 1)] == 0.0
    assert mom[(0, 0)] == 1
    # second moments are exact rationals
    assert isinstance(mom[(2, 0)], Fraction) and isinstance(mom[(1, 1)], Fraction)


def test_mixed_moments_match_atom_sums_randomized():
    # moments from the factor characters against the per-atom sum over xi(N)
    rng = random.Random(5150)
    taus = [Fraction(1), Fraction(1, 2)]
    seen_taus, seen_trivial, seen_two_factor = set(), False, False
    for label in ["A1", "A2", "A3", "B2", "C3", "G2"]:
        rs = build_root_system(label)
        for _ in range(4):
            factors = []
            while not any(any(lam) for lam, _ in factors):
                factors = []
                for _ in range(rng.randint(1, 2)):
                    lam = tuple(rng.randint(0, 1) for _ in range(rs.rank))
                    while weyl_dim(rs, lam) > 16:
                        lam = tuple(rng.randint(0, 1) for _ in range(rs.rank))
                    factors.append((lam, rng.choice(taus)))
            seen_taus.update(tau for _, tau in factors)
            seen_trivial |= any(not any(lam) for lam, _ in factors)
            seen_two_factor |= len(factors) == 2
            spec = TensorSpec(rs, tuple(factors))
            n = rng.choice([2, 4])
            xi = xi_measure(spec, n)
            for k in (rng.randint(0, 5), 6):
                got = mixed_moments(spec, n, k)
                want = oracles.mixed_moments(xi, k)
                assert list(got) == list(want), (label, factors, n, k)
                for kappa, value in want.items():
                    assert got[kappa] == value, (label, factors, n, kappa)
                    assert type(got[kappa]) is type(value), (label, factors, n, kappa)
    assert seen_taus == set(taus)
    assert seen_trivial and seen_two_factor


# ------------------------------------------------------------------ export


def test_csv_and_json_export():
    m = eta_measure(SPEC_A1, 2)
    csv = measure_to_csv(m)
    lines = csv.strip().split("\n")
    assert lines[0] == "weight_1,numerator,denominator"
    assert lines[1] == "0,1,4" and lines[2] == "2,3,4"
    doc = measure_to_json(m)
    assert doc["N"] == 2
    assert doc["sigma_squared"] == "1/2"
    assert doc["atoms"][1] == {"weight": [2], "prob": "3/4"}


def test_measure_caching_hook():
    from tensorlimits.repchar import tensor_power_multiplicities

    mmap = tensor_power_multiplicities(A1, [((1,), 6)])
    via_hook = xi_measure(SPEC_A1, 6, multiplicities=mmap)
    direct = xi_measure(SPEC_A1, 6)
    assert via_hook.atoms == direct.atoms


def test_measure_hook_rejects_character_of_another_n():
    from tensorlimits.convergence import convergence_report
    from tensorlimits.repchar import tensor_power_table

    table = tensor_power_table(A2, [((1, 0), 1)], [4, 8])
    for build in (xi_measure, eta_measure, eta_extended_measure):
        with pytest.raises(ValueError, match="total_dim 81.*dim 6561"):
            build(SPEC_A2, 8, multiplicities=table[4])
    with pytest.raises(ValueError, match="total_dim 81.*dim 6561"):
        convergence_report(SPEC_A2, [8], table={8: table[4]})
    assert eta_measure(SPEC_A2, 8, multiplicities=table[8]).atoms == eta_measure(SPEC_A2, 8).atoms
