"""Discrete measures xi, eta, eta-extended and their exact identities."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tensorlimits import measures
from tensorlimits.errors import BasisMismatch, DegenerateSpec, InadmissibleN, NotDominant
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
from tensorlimits.repchar import tensor_power_table, weyl_dim
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
    with pytest.raises(NotDominant, match=r"\(1.5, 0.7\) has a coordinate that is not an integer"):
        TensorSpec(A2, (((1.5, 0.7), 1),))
    lam = TensorSpec(A2, (((np.int64(1), np.int32(0)), 1),)).factors[0][0]
    assert lam == (1, 0) and all(type(x) is int for x in lam)


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
    # one rule for an N that is not an integer: operator.index refuses it
    assert admissible_N(half, np.int64(4))
    for n in (4.5, 4.0, Fraction(4)):
        assert not admissible_N(half, n)
    for measure in (xi_measure, eta_measure):
        with pytest.raises(InadmissibleN, match="N = 4.5 is not admissible"):
            measure(half, 4.5)
    with pytest.raises(ValueError, match="4.7"):
        tensor_power_table(A1, [((1,), 1)], [4.7])


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
    # zip used to drop the third coordinate of A3 weights against A2, giving 2
    a3 = xi_measure(TensorSpec(build_root_system("A3"), (((1, 0, 0), 1),)), 4)
    with pytest.raises(BasisMismatch, match="length 3; A2 weights have length 2"):
        directional_second_moment(A2, a3, (1, 0))


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
    # w + rho lies on a wall iff (w + rho, beta) = 0 for some positive root beta
    m = eta_extended_measure(SPEC_A2, 2)
    walls = 0
    for w, p in m.atoms:
        shifted = [x + 1 for x in w]
        if any(sum(x * v for x, v in zip(shifted, row)) == 0 for row in A2.pairing_rows):
            walls += 1
            assert p == 0, w
        else:
            # and every atom off the walls carries mass
            assert p != 0, w
    assert walls > 0


def test_racah_runs_once_per_map(monkeypatch):
    """eta_measure and eta_extended_measure on one map share its decomposition:
    the W-sum (repchar's _alternating_sums, which reads the index Miller's
    recurrence handed the map) runs for the first call only, the atoms are those
    of fresh maps, and every call still checks the map's type."""
    from tensorlimits import repchar
    from tensorlimits.measures import factor_counts
    from tensorlimits.repchar import racah_decompose, tensor_power_multiplicities

    spec, n = TensorSpec(build_root_system("A3"), (((1, 0, 0), 1),)), 8
    want = eta_measure(spec, n).atoms, eta_extended_measure(spec, n).atoms
    m = tensor_power_multiplicities(spec.rs, factor_counts(spec, n))
    calls = []
    alternating = repchar._alternating_sums
    monkeypatch.setattr(repchar, "_alternating_sums", lambda rs, nus, *rest: calls.append(len(nus)) or alternating(rs, nus, *rest))
    eta = eta_measure(spec, n, multiplicities=m).atoms
    once = len(calls)
    ext = eta_extended_measure(spec, n, multiplicities=m).atoms
    assert once > 0 and len(calls) == once
    assert (eta, ext) == want
    assert racah_decompose(spec.rs, m) is racah_decompose(spec.rs, m)
    with pytest.raises(BasisMismatch):
        racah_decompose(build_root_system("B3"), m)


def test_pushforward_refuses_mass_on_a_wall():
    # (-1, 0) + rho = (0, 1) is fixed by s_1, so no shifted orbit carries it
    sig = sigma_squared(SPEC_A2)
    measure = DiscreteMeasure((((-1, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2))), sig, 2)
    with pytest.raises(ValueError, match=r"nonzero mass 1/2 on wall point \(-1, 0\)"):
        pushforward_dominant_shifted(A2, measure)
    zero = DiscreteMeasure((((-1, 0), Fraction(0)), ((0, 0), Fraction(1))), sig, 2)
    assert pushforward_dominant_shifted(A2, zero).atoms == (((0, 0), Fraction(1)),)


def test_atoms_constructor_refuses_inexact_or_huge_weights():
    # the weights become an int64 array: a half-integral weight would silently round, and
    # the shifted Weyl action on rows refuses coordinates of |x| >= 2^31
    sig = sigma_squared(SPEC_A2)
    for weight, message in (
        ((Fraction(1, 2), 0), r"weight \(Fraction\(1, 2\), 0\) is not integral"),
        ((0, 0.5), r"weight \(0\.0, 0\.5\) is not integral"),
        ((2**31, 0), r"weight \(2147483648, 0\) has a coordinate of absolute value >= 2\^31"),
        ((0, -(2**31)), r"weight \(0, -2147483648\) has a coordinate"),
    ):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure((((0, 0), Fraction(1, 2)), (weight, Fraction(1, 2))), sig, 2)
    exact = DiscreteMeasure((((Fraction(2), 0.0), Fraction(1)),), sig, 2)
    assert exact.atoms == (((2, 0), Fraction(1)),) and exact.weights.dtype == np.int64


def test_one_denominator_with_reduced_views():
    sig = sigma_squared(SPEC_A2)
    m = DiscreteMeasure((((0, 0), Fraction(1, 2)), ((1, 0), Fraction(1, 3)), ((0, 1), Fraction(1, 6))), sig, 2)
    assert (m.weights.tolist(), m.nums, m.den) == ([[0, 0], [1, 0], [0, 1]], [3, 2, 1], 6)
    assert m.total_mass() == 1 and m.rank == 2
    # the same atoms over another denominator: equal, with one hash
    other = DiscreteMeasure._exact(m.weights, [6, 4, 2], 12, sig, 2)
    assert other == m and hash(other) == hash(m) and other.prob_at((1, 0)) == Fraction(1, 3)
    assert measure_to_csv(other) == measure_to_csv(m) == "weight_1,weight_2,numerator,denominator\n0,0,1,2\n1,0,1,3\n0,1,1,6\n"
    assert other != DiscreteMeasure(m.atoms, sig, 4) and other != DiscreteMeasure(m.atoms, sig / 2, 2)
    assert m != m.atoms


def test_empty_measures():
    sig = sigma_squared(SPEC_A2)
    empty = DiscreteMeasure((), sig, 2)
    assert (empty.atoms, empty.rank, empty.total_mass()) == ((), 0, 0)
    assert measure_to_csv(empty) == ",numerator,denominator\n"
    assert measure_to_json(empty)["atoms"] == []
    assert directional_second_moment(A2, empty, (1, 0)) == 0
    assert pushforward_dominant_shifted(A2, empty) == empty
    # the only atom is a zero-mass wall atom, so nothing is left to push forward
    wall = DiscreteMeasure((((-1, 0), Fraction(0)),), sig, 2)
    pushed = pushforward_dominant_shifted(A2, wall)
    assert pushed.atoms == () and pushed.total_mass() == 0 and pushed == empty


def test_pushforward_sums_each_orbit_exactly():
    # (-2, 1) and (0, 0) lie in one shifted orbit, with different denominators;
    # (1, 0) and (-3, 2) lie in another and cancel
    atoms = (((-2, 1), Fraction(1, 3)), ((0, 0), Fraction(1, 6)), ((1, 0), Fraction(1, 4)), ((-3, 2), Fraction(-1, 4)))
    measure = DiscreteMeasure(atoms, sigma_squared(SPEC_A2), 2)
    assert pushforward_dominant_shifted(A2, measure).atoms == (((0, 0), Fraction(1, 2)),)


# ------------------------------------------------------------------ moments


def test_mixed_moments():
    mom = mixed_moments(SPEC_A1, 4, 4)
    assert mom[(0,)] == 1
    assert mom[(1,)] == 0.0
    assert mom[(2,)] == 2
    assert mixed_moments(SPEC_A1, 10, 2)[(2,)] == 2
    for bad in (7, -1, 2.5, "2", None):
        with pytest.raises(ValueError, match="max_order"):
            mixed_moments(SPEC_A1, 4, bad)
    assert mixed_moments(SPEC_A1, 4, np.int64(2)) == mixed_moments(SPEC_A1, 4, 2)
    assert mixed_moments(SPEC_A1, 4, 0) == {(0,): 1}


def test_binomial_terms_built_once_per_set_of_multi_indices():
    """mixed_moments builds the binomial convolution table once per set of kappas and then shares
    it: a second call at another N reads the cached table, and the moments are the same."""
    measures._binomial_terms.cache_clear()
    first = mixed_moments(SPEC_A2, 3, 4)
    assert measures._binomial_terms.cache_info().misses == 1
    assert mixed_moments(SPEC_A2, 5, 4) and measures._binomial_terms.cache_info()[:2] == (1, 1)
    assert mixed_moments(SPEC_A2, 3, 4) == first
    kappas = tuple(k for k in itertools.product(range(5), repeat=2) if sum(k) <= 4)
    terms = measures._binomial_terms(kappas)
    assert terms[(2, 1)] == [
        (math.comb(2, a) * math.comb(1, b), (a, b), (2 - a, 1 - b)) for a in range(3) for b in range(2)
    ]


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


def test_measure_hook_rejects_character_of_another_rank():
    """A1's V_(2) has A2 omega1's dimension 3 but rank-1 weights; B2's V_(0,1)^2
    has C2 V_(1,0)^2's dimension 16 and rank-2 weights, but another type."""
    from tensorlimits.repchar import irreducible_character

    spec = TensorSpec(A2, (((1, 0), 1),))
    other = irreducible_character(A1, (2,))
    c2 = TensorSpec(build_root_system("C2"), (((1, 0), 1),))
    b2 = tensor_power_table(B2, [((0, 1), 1)], [2])[2]
    for build in (xi_measure, eta_measure, eta_extended_measure):
        with pytest.raises(BasisMismatch, match="length 1; A2 weights have length 2"):
            build(spec, 1, multiplicities=other)
        # xi used to return 9 B2 atoms as C2's, eta to call it "not a character"
        with pytest.raises(BasisMismatch, match="a character of B2, not of C2"):
            build(c2, 2, multiplicities=b2)
