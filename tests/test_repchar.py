"""Multiplicities, convolution, tensor powers, and decompositions."""

import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from tensorlimits import repchar
from tensorlimits.errors import (
    BasisMismatch,
    NegativeMultiplicity,
    NotDominant,
    TableCapExceeded,
    UnsupportedType,
    WeylCapExceeded,
)
from tensorlimits.repchar import (
    MultiplicityMap,
    irreducible_character,
    load_multiplicity_map,
    racah_decompose,
    save_multiplicity_map,
    tensor_power_multiplicities,
    tensor_power_table,
    trace_identity_check,
    weyl_dim,
)
from tensorlimits.measures import TensorSpec
from tensorlimits.rootsys import build_root_system, casimir_eigenvalue, weyl_group_order

from oracles import (
    character_by_weyl_formula,
    character_map,
    convolve,
    cache_file,
    cache_parts,
    dominant_weights_dfs,
    edit_cache_body,
    fields,
    freudenthal_multiplicities,
    orbit,
    peel_off_decompose,
    racah_full_scan,
    racah_pushforward,
    sl2_power_components,
    to_dominant,
)

RS = {label: build_root_system(label) for label in ["A1", "A2", "A3", "B2", "B3", "C3", "D2", "D3", "D4", "G2", "F4"]}


# ------------------------------------------------------------------ dimensions


def test_weyl_dim_examples():
    a1 = RS["A1"]
    for k in range(9):
        assert weyl_dim(a1, (k,)) == k + 1
    a2 = RS["A2"]
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (0, 0)) == 1
    assert weyl_dim(a2, (1, 1)) == 8
    with pytest.raises(NotDominant):
        weyl_dim(a2, (-1, 0))


WEIGHT_ENTRIES = pytest.mark.parametrize(
    "entry",
    [
        weyl_dim,
        freudenthal_multiplicities,
        irreducible_character,
        lambda rs, lam: tensor_power_table(rs, [(lam, 1)], [2]),
        orbit,
        casimir_eigenvalue,
        lambda rs, lam: TensorSpec(rs, ((lam, 1),)),
    ],
    ids=["weyl_dim", "freudenthal", "irreducible_character", "tensor_power_table", "orbit", "casimir", "TensorSpec"],
)


@pytest.mark.parametrize("weight", [(1,), (1, 0, 0)])
@WEIGHT_ENTRIES
def test_wrong_rank_weight_is_not_dominant(entry, weight):
    # zip used to truncate a short weight: weyl_dim gave 0, orbit {(1,), (-1,)},
    # and the dominant-weight walk of the Freudenthal recursion never ended
    with pytest.raises(NotDominant):
        entry(RS["A2"], weight)


@pytest.mark.parametrize("weight", [(1.5, 0.7), (1.5, 0), (1, Fraction(1, 2))])
@WEIGHT_ENTRIES
def test_non_integral_weight_is_not_dominant(entry, weight):
    # TensorSpec used to truncate (1.5, 0.7) to omega1 by int(x), and weyl_dim
    # and the Freudenthal recursion raised a bare TypeError from fractions
    with pytest.raises(NotDominant, match="not an integer"):
        entry(RS["A2"], weight)


def test_weyl_dim_g2_fundamentals():
    g2 = RS["G2"]
    dims = {weyl_dim(g2, (1, 0)), weyl_dim(g2, (0, 1))}
    assert dims == {7, 14}
    # the adjoint is the 14-dimensional one, with Casimir b_g
    for lam in [(1, 0), (0, 1)]:
        if weyl_dim(g2, lam) == 14:
            assert casimir_eigenvalue(g2, lam) == g2.b_g


# -------------------------------------------------------------- irreducibles


def test_freudenthal_small_examples():
    a1 = RS["A1"]
    m = irreducible_character(a1, (2,))
    assert m.entries == {(2,): 1, (0,): 1, (-2,): 1}
    assert irreducible_character(a1, (0,)).entries == {(0,): 1}
    a2 = RS["A2"]
    adj = irreducible_character(a2, (1, 1))
    assert adj.total_dim == 8
    assert adj.entries[(0, 0)] == 2
    nonzero = {w: c for w, c in adj.entries.items() if w != (0, 0)}
    assert len(nonzero) == 6 and set(nonzero.values()) == {1}


@pytest.mark.parametrize(
    "label,lams",
    [
        ("A1", [(k,) for k in range(8)]),
        ("A2", list(itertools.product(range(4), repeat=2))),
        ("B2", list(itertools.product(range(3), repeat=2))),
        ("G2", list(itertools.product(range(3), repeat=2))),
        ("A3", list(itertools.product(range(2), repeat=3)) + [(2, 0, 1), (1, 1, 1)]),
        ("C3", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]),
        ("D3", [(1, 0, 0), (0, 1, 1), (1, 1, 0)]),
        ("D2", [(1, 0), (2, 1), (2, 2)]),
    ],
)
def test_freudenthal_matches_alternant_oracle(label, lams):
    # Racah's recursion and the Freudenthal oracle that peel-off reads both divide the alternants
    rs = RS[label]
    for lam in lams:
        expected = character_by_weyl_formula(rs, lam)
        for got in (irreducible_character(rs, lam), freudenthal_multiplicities(rs, lam)):
            assert got.entries == expected
            assert got.total_dim == weyl_dim(rs, lam)


def test_freudenthal_w_symmetry():
    for label in ["A2", "B2", "G2"]:
        rs = RS[label]
        m = irreducible_character(rs, (2, 1))
        for s in (w.matrix for w in rs.weyl if w.length == 1):
            for w, c in m.entries.items():
                image = tuple(sum(s[i][j] * w[j] for j in range(rs.rank)) for i in range(rs.rank))
                assert m.entries.get(image) == c


def test_freudenthal_dimension_sweep():
    # total_dim equals the Weyl dimension across a box of highest weights
    boxes = {
        "A1": [(k,) for k in range(0, 40, 3)],
        "A2": list(itertools.product(range(6), repeat=2)),
        "B2": list(itertools.product(range(5), repeat=2)),
        "G2": list(itertools.product(range(4), repeat=2)),
        "A3": list(itertools.product(range(3), repeat=3)),
        "B3": list(itertools.product(range(2), repeat=3)),
        "C3": list(itertools.product(range(2), repeat=3)),
        "D3": list(itertools.product(range(2), repeat=3)),
    }
    for label, lams in boxes.items():
        rs = RS[label]
        for lam in lams:
            if weyl_dim(rs, lam) > 10_000:
                continue
            m = irreducible_character(rs, lam)
            assert m.total_dim == weyl_dim(rs, lam)
            assert m.entries[tuple(lam)] == 1


# ------------------------------------------------------------------ convolution oracle


def test_convolve_identity_and_binomial():
    a1 = RS["A1"]
    v = freudenthal_multiplicities(a1, (1,)).entries
    assert convolve({(0,): 1}, v) == v
    assert convolve(v, v) == {(2,): 1, (0,): 2, (-2,): 1}


def test_convolve_empty():
    v = freudenthal_multiplicities(RS["A1"], (3,)).entries
    assert convolve({}, v) == {}


# ------------------------------------------------------------------ powers


def test_tensor_power_examples():
    a1 = RS["A1"]
    assert tensor_power_multiplicities(a1, [((1,), 1)]).entries == {(1,): 1, (-1,): 1}
    cube = tensor_power_multiplicities(a1, [((1,), 3)])
    assert cube.entries == {(3,): 1, (1,): 3, (-1,): 3, (-3,): 1}
    a2 = RS["A2"]
    m = tensor_power_multiplicities(a2, [((1, 0), 2), ((0, 1), 1)])
    assert m.total_dim == 27
    # brute-force triple convolution oracle
    v1 = freudenthal_multiplicities(a2, (1, 0)).entries
    v2 = freudenthal_multiplicities(a2, (0, 1)).entries
    assert m.entries == convolve(convolve(v1, v1), v2)
    # zero powers are allowed and act as the unit
    assert tensor_power_multiplicities(a2, [((1, 0), 0)]).entries == {(0, 0): 1}
    with pytest.raises(NotDominant):
        tensor_power_multiplicities(a2, [((-1, 1), 2)])
    with pytest.raises(ValueError):
        tensor_power_multiplicities(a2, [((1, 0), -1)])


def test_tensor_power_matches_repeated_convolution():
    b2 = RS["B2"]
    v = freudenthal_multiplicities(b2, (0, 1)).entries
    direct = v
    for _ in range(4):
        direct = convolve(direct, v)
    fast = tensor_power_multiplicities(b2, [((0, 1), 5)])
    assert fast.entries == direct


def test_tensor_power_table_consistency():
    a2 = RS["A2"]
    factors = [((1, 0), Fraction(1)), ((1, 1), Fraction(1, 2))]
    table = tensor_power_table(a2, factors, [2, 4])
    for n in (2, 4):
        direct = tensor_power_multiplicities(a2, [((1, 0), n), ((1, 1), n // 2)])
        assert table[n].entries == direct.entries
    with pytest.raises(ValueError):
        tensor_power_table(a2, factors, [3])


def _power_by_repeated_convolution(rs, counts):
    out = {(0,) * rs.rank: 1}
    for lam, n in counts:
        v = freudenthal_multiplicities(rs, lam).entries
        for _ in range(n):
            out = convolve(out, v)
    return out


def test_tensor_powers_match_repeated_convolution_randomized():
    # Miller's recurrence against the plain dict convolution oracle
    rng = random.Random(2024)
    taus = [Fraction(1), Fraction(1, 2), Fraction(2)]
    seen_taus, seen_zero_weight, seen_zero_exponent, seen_two_factor = set(), False, False, False
    # on B3, D4 and F4 the dominant recurrence reads its quotients through
    # multi-step to_dominant runs; their factors stay small (dim <= 26, counts <= 3)
    cases = [(label, 16, taus, 4) for label in ["A1", "A2", "A3", "B2", "C3", "G2"]]
    cases += [(label, 26, taus[:2], 3) for label in ["B3", "D4", "F4"]]
    for label, max_dim, label_taus, max_count in cases:
        rs = RS[label]
        for _ in range(6):
            factors = []
            for _ in range(rng.randint(1, 2)):
                lam = tuple(rng.randint(0, 1) for _ in range(rs.rank))
                while weyl_dim(rs, lam) > max_dim:
                    lam = tuple(rng.randint(0, 1) for _ in range(rs.rank))
                factors.append((lam, rng.choice(label_taus)))
            seen_taus.update(tau for _, tau in factors)
            seen_zero_weight |= any(not any(lam) for lam, _ in factors)
            seen_two_factor |= len(factors) == 2
            n_values = [0, 2]
            table = tensor_power_table(rs, factors, n_values)
            powers = [[(lam, (tau * n).numerator) for lam, tau in factors] for n in n_values]
            powers.append([(lam, rng.randint(0, max_count)) for lam, _ in factors])
            for i, counts in enumerate(powers):
                seen_zero_exponent |= any(n == 0 for _, n in counts)
                expected = _power_by_repeated_convolution(rs, counts)
                got = [tensor_power_multiplicities(rs, counts)]
                if i < len(n_values):
                    got.append(table[n_values[i]])
                for m in got:
                    assert m.entries == expected, (label, counts)
                    assert m.total_dim == sum(expected.values()), (label, counts)
    assert seen_taus == set(taus)
    assert seen_zero_weight and seen_zero_exponent and seen_two_factor


@pytest.mark.parametrize("blocks", ["default", "small"])
def test_tensor_powers_of_wide_factors_match_repeated_convolution(monkeypatch, blocks):
    """Miller's recurrence against the convolution oracle on rank-5 vector
    factors, adjoint factors whose zero weight has multiplicity > 1, a trivial
    factor and N = 0 and 1; with the block budget cut to 5 lookups, every
    table spans many blocks of a row or two."""
    if blocks == "small":
        monkeypatch.setattr(repchar, "_BLOCK_ROWS", 5)
    cases = [
        ("B5", [((1, 0, 0, 0, 0), Fraction(1))], [0, 1, 3]),
        ("D5", [((1, 0, 0, 0, 0), Fraction(1))], [0, 1, 3]),
        ("G2", [((1, 0), Fraction(1))], [0, 1, 3]),
        ("F4", [((1, 0, 0, 0), Fraction(1))], [0, 1, 2]),
        ("A2", [((0, 0), Fraction(1)), ((1, 0), Fraction(1))], [0, 1, 4]),
        ("B2", [((0, 0), Fraction(1))], [0, 1, 2]),
        ("C3", [((1, 0, 0), Fraction(1)), ((0, 1, 0), Fraction(1, 2))], [0, 2, 4]),
    ]
    for label, factors, n_values in cases:
        rs = build_root_system(label)
        table = tensor_power_table(rs, factors, n_values)
        for n in n_values:
            expected = _power_by_repeated_convolution(rs, [(lam, (tau * n).numerator) for lam, tau in factors])
            assert table[n].entries == expected, (label, n)
            assert table[n].total_dim == sum(expected.values()), (label, n)
    # the adjoint factors (dimensions 14 and 52) have zero weights of multiplicity rank > 1
    assert irreducible_character(RS["G2"], (1, 0))[(0, 0)] == 2
    assert irreducible_character(RS["F4"], (1, 0, 0, 0))[(0, 0, 0, 0)] == 4


# every type whose Weyl group is under the cap
UNDER_CAP = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5"]
UNDER_CAP += ["D2", "D3", "D4", "D5", "G2", "F4"]


@pytest.mark.parametrize("label", UNDER_CAP)
def test_dominant_weights_match_search_oracle(label):
    """The coordinate-wise enumeration lists the dominant weights the search
    along positive roots finds, in the same order, each with the height of
    lam - mu as its depth; tops are 0 and seeded small weights."""
    rs = build_root_system(label)
    rng = random.Random(f"dominant weights {label}")
    bound = {1: 9, 2: 6, 3: 4, 4: 3}.get(rs.rank, 2)
    tops = [(0,) * rs.rank] + [tuple(rng.randrange(bound) for _ in range(rs.rank)) for _ in range(3)]
    for top in tops:
        nus, depths = repchar._dominant_weights(rs, top)
        assert list(map(tuple, nus.tolist())) == dominant_weights_dfs(rs, top), top
        heights = [sum(c * (t - x) for row in rs.C_inv for c, t, x in zip(row, top, mu)) for mu in nus.tolist()]
        assert depths.tolist() == heights, top


@pytest.mark.parametrize("label", UNDER_CAP)
def test_irreducible_character_matches_freudenthal(label):
    """Racah's recursion gives the Freudenthal oracle's dominant multiplicities in
    the same order, so the order of entries and of the float sums over them is
    the recursion's too; tops are 0, every omega_i and two seeded weights."""
    rs = build_root_system(label)
    rng = random.Random(f"irreducible {label}")
    tops = [(0,) * rs.rank] + [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    tops += [tuple(rng.randrange(3) for _ in range(rs.rank)) for _ in range(2)]
    for top in tops:
        got, expected = irreducible_character(rs, top), freudenthal_multiplicities(rs, top)
        assert list(got.dominant.items()) == list(expected.dominant.items()), top
        assert got.total_dim == expected.total_dim, top


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 1)), ("A3", (1, 0, 1))])
def test_irreducible_character_with_one_sign_flipped_never_returns_a_wrong_map(monkeypatch, label, lam):
    """Racah's recursion divides nothing, so no remainder flags a wrong sum: with the
    sign of one w != 1 flipped in _weyl_shifts, the map is either the right one (the
    shift reads no weight of V_lam) or the constructor refuses it, its counts not all
    positive or its orbits not summing to weyl_dim; some flip is refused."""
    rs = RS[label]
    expected = freudenthal_multiplicities(rs, lam).dominant
    shifts, odd = repchar._weyl_shifts(rs.C)
    refused = 0
    for k in range(1, len(shifts)):
        flipped = odd.copy()
        flipped[k] = not flipped[k]
        monkeypatch.setattr(repchar, "_weyl_shifts", lambda c, flipped=flipped: (shifts, flipped))
        try:
            got = irreducible_character(rs, lam).dominant
        except ValueError:
            refused += 1
        else:
            assert list(got.items()) == list(expected.items()), k
    assert refused


def _refuse_large_repeat(monkeypatch):
    """Make np.repeat refuse any output of more than 2^20 rows."""
    repeat = np.repeat

    def guarded(a, counts, axis=None):
        if int(np.sum(counts)) > 2**20:
            raise AssertionError("np.repeat asked for more than 2^20 rows")
        return repeat(a, counts, axis=axis)

    monkeypatch.setattr(np, "repeat", guarded)


@pytest.mark.parametrize(
    "label,top",
    [
        ("A1", (2**24,)),
        ("A2", (99999999999, 0)),
        ("A2", (10**30, 1)),
        # 6,001 prefixes in the first step, about 3.6e7 rows in the second
        ("A2", (0, 12000)),
        # D2 = A1 x A1: 4,097 ** 2 > 2^24 rows in the second step
        ("D2", (4096, 4096)),
    ],
)
def test_dominant_weights_refuse_tables_over_the_cap(monkeypatch, label, top):
    _refuse_large_repeat(monkeypatch)
    with pytest.raises(TableCapExceeded, match="more than 16777216 rows"):
        repchar._dominant_weights(RS[label], top)


def test_dominant_weights_at_the_cap_are_enumerated(monkeypatch):
    # with the cap cut to 2^20, D2 (4095, 255) holds 4,096 * 256 = 2^20 rows in its second step: at the cap, not over it
    monkeypatch.setattr(repchar, "MAX_TABLE_ROWS", 2**20)
    _refuse_large_repeat(monkeypatch)
    nus, _ = repchar._dominant_weights(RS["D2"], (4095, 255))
    assert len(nus) == 2**11 * 2**7 and nus.tolist()[0] == [4095, 255]
    with pytest.raises(TableCapExceeded):
        repchar._dominant_weights(RS["D2"], (4095, 256))


def _budget_slots(rs, nus) -> tuple[list, callable]:
    """The weights nu >= 0 with den C^-1 nu <= b, b the coordinatewise max of den C^-1 mu over the
    rows nus (0 for none), in lexicographic order, grown coordinate by coordinate in Python ints
    (the set is downward closed), and the test fits(nu) of den C^-1 nu <= b."""
    m = repchar._scaled_inverse_cartan(rs.C)[0].tolist()
    b = [max((sum(c * x for c, x in zip(row, nu)) for nu in nus), default=0) for row in m]

    def fits(nu):
        return all(sum(c * x for c, x in zip(row, nu)) <= bj for row, bj in zip(m, b))

    slots = [()]
    for i in range(rs.rank):
        pad = (0,) * (rs.rank - i - 1)
        slots = [
            s + (x,) for s in slots for x in itertools.takewhile(lambda x: fits(s + (x,) + pad), itertools.count())
        ]
    return slots, fits


def _past_the_budget(rs, weights, fits) -> list:
    """Each weight with one coordinate raised to the least value whose den C^-1 nu passes the budget:
    the walk's starts_i[p] + x_i would land on the next prefix's first child, were it not absent."""
    past = []
    for nu, i in itertools.product(weights, range(rs.rank)):
        past.append(next(w for w in (nu[:i] + (x,) + nu[i + 1 :] for x in itertools.count(nu[i])) if not fits(w)))
    return past


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "D4", "G2", "F4"])
def test_scaled_inverse_cartan_is_built_once_per_cartan_matrix(label):
    """(den C^-1, den) is den times rs.C_inv in integers, den the least common denominator; it is
    built once per Cartan matrix, and the matrix every caller shares is read-only."""
    rs = RS[label]
    m, den = repchar._scaled_inverse_cartan(rs.C)
    assert repchar._scaled_inverse_cartan(rs.C)[0] is m and not m.flags.writeable
    assert m.tolist() == [[x * den for x in row] for row in rs.C_inv]
    assert den == math.lcm(*(x.denominator for row in rs.C_inv for x in row))


def test_positions_read_weights_past_the_budget_as_absent():
    """A weight one step past its prefix's children, which the walk p <- starts_i[p] + x_i would
    take to another prefix's child, reads as absent: len(nus), the slot whose read stays 0."""
    rs = RS["B3"]
    nus, _ = repchar._dominant_weights(rs, (3, 1, 2))
    size, r = nus.shape
    find = repchar._positions(rs, nus)
    assert find(nus).tolist() == list(range(size))
    rows = list(map(tuple, nus.tolist()))
    past = _past_the_budget(rs, rows, _budget_slots(rs, rows)[1])
    assert len(past) == size * r
    assert find(np.array(past)).tolist() == [size] * len(past)


def test_positions_refuse_an_index_over_the_cap(monkeypatch):
    """A hand-built map whose index would hold more than MAX_TABLE_ROWS slots is refused before that
    level is allocated, naming its budget in plain ints; one at the cap is read.  On B3 the index of
    (1000, 0, 0) takes 55,973,223 slots, that of (100, 0, 0) 59,823.  Every map the package builds
    fits, since _dominant_weights refuses a larger table as it is built."""
    rs = RS["B3"]
    far = MultiplicityMap(rs, [(1000, 0, 0)], [1], 6)
    _refuse_large_repeat(monkeypatch)
    with pytest.raises(TableCapExceeded, match=r"den C\^-1 nu <= \(2000, 2000, 2000\) take more than 16777216 rows$"):
        far[(1000, 0, 0)]
    monkeypatch.setattr(repchar, "MAX_TABLE_ROWS", 59_823)
    near = MultiplicityMap(rs, [(100, 0, 0)], [1], 6)
    assert (near[(100, 0, 0)], near[(-100, 0, 0)], near[(99, 0, 0)]) == (1, 1, 0)
    monkeypatch.setattr(repchar, "MAX_TABLE_ROWS", 59_822)
    with pytest.raises(TableCapExceeded, match="take more than 59822 rows"):
        MultiplicityMap(rs, [(100, 0, 0)], [1], 6)[(100, 0, 0)]


@pytest.mark.parametrize("label", UNDER_CAP)
def test_positions_match_a_dict_oracle(label, monkeypatch):
    """The index reads what a dict from weight to row reads, on every type under the Weyl cap, at every
    row, every other weight inside the budget (in every root-lattice coset), the weights one step past
    it and coordinates up to 2^31 - 1: for the rows of _dominant_weights below 2 rho, the empty map and
    hand-built rows that are not downward closed; and a built find calls no np.searchsorted."""
    rs = build_root_system(label)
    r, rng = rs.rank, random.Random(f"positions {label}")
    m, den = repchar._scaled_inverse_cartan(rs.C)
    m = m.tolist()
    loose = {tuple(rng.randrange(3) for _ in range(r)) for _ in range(12)} - {(0,) * r}
    cosets = round(abs(np.linalg.det(np.array(rs.C, dtype=float))))

    def coset(nu):  # a coset of the root lattice Q in P is a class of den C^-1 nu mod den
        return tuple(sum(c * x for c, x in zip(row, nu)) % den for row in m)

    top, absent = (2,) * r, set()
    closed = repchar._dominant_weights(rs, top)[0]
    for nus in [closed, np.zeros((0, r), dtype=np.int64), np.array(sorted(loose))]:
        rows = list(map(tuple, nus.tolist()))
        inside, fits = _budget_slots(rs, rows)
        huge = [(2**31 - 1,) * r]
        huge += [tuple(rng.choice([0, 1, 2**31 - 1, rng.randrange(2**31)]) for _ in range(r)) for _ in range(20)]
        queries = rows + inside + _past_the_budget(rs, inside, fits) + huge
        find = repchar._positions(rs, nus)
        with monkeypatch.context() as patched:
            patched.setattr(np, "searchsorted", lambda *a, **k: pytest.fail("find called np.searchsorted"))
            got = find(np.array(queries, dtype=np.int64)).tolist()
        oracle = {nu: i for i, nu in enumerate(rows)}
        assert got == [oracle.get(w, len(rows)) for w in queries], (label, rows)
        absent |= {coset(nu) for nu in set(inside) - set(rows)}
        if nus is closed:  # below 2 rho the rows are the budget's slots in the coset of 2 rho
            assert set(rows) == {nu for nu in inside if coset(nu) == coset(top)}, label
    # the other cosets below 2 rho, and 0 below the hand-built rows, are read as absent
    assert len(absent) == cosets and (0,) * r not in loose, label


# ------------------------------------------------------------------ decomposition


def test_racah_examples():
    a1 = RS["A1"]
    v = freudenthal_multiplicities(a1, (1,)).entries
    dec = racah_decompose(a1, character_map(a1, convolve(v, v)))
    assert dec.components == {(2,): 1, (0,): 1}
    a2 = RS["A2"]
    m = tensor_power_multiplicities(a2, [((1, 0), 1), ((0, 1), 1)])
    dec = racah_decompose(a2, m)
    assert dec.components == {(1, 1): 1, (0, 0): 1}
    # the zero character has no dominant weight to read and no component
    assert racah_decompose(a2, MultiplicityMap(a2, [], [], 0)).components == {}
    for label in ["A1", "B2", "G2"]:
        rs = RS[label]
        lam = (1,) * rs.rank
        assert racah_decompose(rs, freudenthal_multiplicities(rs, lam)).components == {lam: 1}


def test_peel_off_matches_racah():
    rng = random.Random(17)
    for label in ["A1", "A2", "B2", "G2", "A3"]:
        rs = RS[label]
        for _ in range(4):
            factors = []
            for _ in range(rng.randint(1, 2)):
                lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
                factors.append((lam, rng.randint(1, 3)))
            m = tensor_power_multiplicities(rs, factors)
            if m.total_dim > 20000:
                continue
            assert racah_decompose(rs, m).components == peel_off_decompose(rs, m.entries).components
    # Racah's shift table at rank 4 and on the B, C, D and F families
    for label, factors in [
        ("B3", [((1, 0, 0), 3)]),
        ("C3", [((1, 0, 0), 2), ((0, 0, 1), 1)]),
        ("D4", [((1, 0, 0, 0), 3)]),
        ("F4", [((0, 0, 0, 1), 2)]),
        ("B4", [((1, 0, 0, 0), 2)]),
    ]:
        rs = build_root_system(label)
        m = tensor_power_multiplicities(rs, factors)
        assert racah_decompose(rs, m).components == peel_off_decompose(rs, m.entries).components, label


def test_decomposition_roundtrip():
    rng = random.Random(23)
    for label in ["A2", "B2"]:
        rs = RS[label]
        for _ in range(5):
            combo = {}
            for _ in range(rng.randint(1, 4)):
                lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
                combo[lam] = combo.get(lam, 0) + rng.randint(1, 5)
            total: dict = {}
            for lam, c in combo.items():
                for w, cnt in freudenthal_multiplicities(rs, lam).entries.items():
                    total[w] = total.get(w, 0) + c * cnt
            m = character_map(rs, total)
            dec = racah_decompose(rs, m)
            assert dec.components == combo
            assert peel_off_decompose(rs, total).components == combo
            scan = racah_full_scan(rs, m)
            assert fields(scan) == fields(dec)


def _full_scan_cases():
    """18 seeded (label, factors) specs on ranks 1 to 3, then B3, D4 and F4 powers."""
    rng = random.Random(41)
    cases = []
    for label in ["A1", "A2", "A3", "B2", "G2", "C3"]:
        rs = RS[label]
        for _ in range(3):
            factors = [
                (tuple(rng.randint(0, 2 if rs.rank < 3 else 1) for _ in range(rs.rank)), rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))
            ]
            cases.append((label, factors))
    return cases + [("B3", [((1, 0, 0), 3)]), ("D4", [((1, 0, 0, 0), 3)]), ("F4", [((0, 0, 0, 1), 2)])]


def _check_against_oracles(rs, m, label):
    """racah_decompose against Racah's signed pushforward, the full-table scan and peel-off
    (rows, counts and dims); returns the decomposition."""
    dec, push, scan = racah_decompose(rs, m), racah_pushforward(rs, m), racah_full_scan(rs, m)
    assert fields(dec) == fields(push) == fields(scan) == fields(peel_off_decompose(rs, m.entries)), label
    return dec


def test_racah_matches_full_scan_oracle():
    """The W-sum read at the dominant weights against Racah's signed pushforward over
    every orbit point, Racah over the full table with enumerated Weyl elements, which
    reads every shifted weight where it lies, and peel-off."""
    for label, factors in _full_scan_cases():
        rs = RS[label]
        _check_against_oracles(rs, tensor_power_multiplicities(rs, factors), (label, factors))


def test_racah_sums_over_many_blocks(monkeypatch):
    """With the block budget of racah_decompose cut to 7 reads, a block holds
    max(1, 7 // |W|) dominant rows, 3 on A1 and one elsewhere, so the sum runs
    over many blocks, one _dominant_rows call each; the result still matches
    the signed pushforward, the full-table scan and peel-off."""
    monkeypatch.setattr(repchar, "_BLOCK_ROWS", 7)
    calls = []
    kernel = repchar._dominant_rows
    monkeypatch.setattr(repchar, "_dominant_rows", lambda rs, v: calls.append(len(v)) or kernel(rs, v))
    for label, factors in _full_scan_cases():
        rs = RS[label]
        m = tensor_power_multiplicities(rs, factors)
        calls.clear()
        _check_against_oracles(rs, m, (label, factors))
        assert len(calls) == -(-len(m.dominant) // max(1, 7 // weyl_group_order(rs.cartan_type))), (label, factors)


@pytest.mark.parametrize(
    "label,tops",
    [("A2", [(4, 0), (0, 4), (1, 1)]), ("G2", [(3, 0), (0, 5), (1, 1)]), ("C3", [(2, 1, 0), (0, 0, 2), (1, 0, 0)])],
)
def test_racah_bound_drops_no_term_of_incomparable_tops(label, tops):
    """The W-sum reads m(nu + rho - w rho) only where den C^-1 (nu + rho - w rho)
    is at most B, the coordinatewise maximum of den C^-1 mu over the support.
    The first two tops here are incomparable, each above the other in some
    simple-root coordinate, so no weight of the support attains B in every
    coordinate; the sum still gives back every top once, as Racah's signed
    pushforward, the full-table scan and peel-off do."""
    rs = RS[label]
    k = [sum(x * (a - b) for x, a, b in zip(row, tops[0], tops[1])) for row in rs.C_inv]
    assert min(k) < 0 < max(k)
    total: dict = {}
    for lam in tops:
        for w, c in freudenthal_multiplicities(rs, lam).entries.items():
            total[w] = total.get(w, 0) + c
    dec = _check_against_oracles(rs, character_map(rs, total), label)
    assert dec.components == {lam: 1 for lam in tops}


def _no_orbit(rs, lams):
    raise AssertionError(f"the orbits of {len(lams)} weights were replayed")


def test_len_and_repr_do_not_expand_orbits(tmp_path, monkeypatch):
    """len and repr of a map from the recurrence or the loader count the orbit
    points of its dominant entries, without building the full entries: the
    orbit sizes come from one walk per zero pattern, never from orbit_rows
    (Miller's recurrence expands the factor characters' entries first)."""
    path = tmp_path / "map.json"
    m = tensor_power_table(RS["B2"], [((0, 1), 1), ((1, 0), Fraction(1, 2))], [8])[8]
    with monkeypatch.context() as patch:
        patch.setattr(repchar, "orbit_rows", _no_orbit)
        save_multiplicity_map(m, path)
        lazies = (m, load_multiplicity_map(path))
        sizes = [len(lazy) for lazy in lazies]
        texts = [repr(lazy) for lazy in lazies]
    for lazy, size, text in zip(lazies, sizes, texts):
        assert "entries" not in vars(lazy)
        assert size == len(lazy.entries) == len(character_map(lazy.rs, lazy.entries))
        assert text == f"MultiplicityMap({size} weights, total_dim={m.total_dim})"


# sha256 of repr([(weights.tolist(), counts.tolist()) for weights, counts in supports]), the
# support() of each factor character, then of the table at each N: the order in which
# orbits are expanded is pinned
SUPPORT_SHA256 = {
    "A2": ([((1, 0), 1)], [1, 4], "0504a83c1e3b57dcdf3990cbf1446f459301266b13ce1b0ecd092fea679fdfd6"),
    "B2": (
        [((0, 1), 1), ((1, 0), Fraction(1, 2))],
        [2, 4],
        "3cc9c61c812aff90120f196f07bc583948298a185e08a2a80d88ef878da73794",
    ),
    "G2": ([((1, 0), 1)], [3], "63c472b95e71ecb65632086681954cc420dcf25ff49dcbd0452ddf977f0625b8"),
    "D4": ([((1, 0, 0, 0), 1)], [3], "16a7a64434e770c74b564b788f2a1a0311a86308d0c1ccd9522e595b3786ceb9"),
    "F4": ([((0, 0, 0, 1), 1)], [3], "8225d30309eaa985c42674e1317c9691e4c785e8142dcf5e02291c71ae15f987"),
    "A6": ([((1, 0, 0, 0, 0, 0), 1)], [4], "f627ceb4771516feb75e28c57ef4e74fc2f623c0ee3787bd15ea4819150b4bca"),
    "B5": ([((1, 0, 0, 0, 0), 1)], [3], "d42bb6132ca33921269ef00216121dfbe4d49e687830360415d138e32238b740"),
    "C5": ([((0, 1, 0, 0, 0), 1)], [2], "f237f09b630198ce98fb9e10bf96304dfde583b7a21f1a024c5fb715dc6c4707"),
}


@pytest.mark.parametrize("label", sorted(SUPPORT_SHA256))
def test_entries_order_is_pinned(label):
    """The float sums of char_fn_xi run over support() in this order, and entries lists
    the same weights in the same order."""
    factors, n_values, digest = SUPPORT_SHA256[label]
    rs = build_root_system(label)
    table = tensor_power_table(rs, factors, n_values)
    maps = [irreducible_character(rs, lam) for lam, _ in factors] + [table[n] for n in n_values]
    supports = [m.support() for m in maps]
    assert hashlib.sha256(repr([(w.tolist(), c.tolist()) for w, c in supports]).encode()).hexdigest() == digest
    for m, (w, c) in zip(maps, supports):
        assert list(m.entries.items()) == list(zip(map(tuple, w.tolist()), c))


@pytest.mark.parametrize(
    "dominant, total_dim, error",
    [
        ({(0, 1): 2, (2, -1): 1}, 9, NotDominant),
        ({(0, 1): 2, (2,): 1}, 9, NotDominant),
        ({(0, 1): 0, (2, 0): 1}, 3, ValueError),
        ({(0, 1): -1, (2, 0): 1}, 0, ValueError),
        ({(0, 1): 2, (2, 0): 1}, 8, ValueError),
        # each sums to the total 9 over orbits of size 3 and 3, so only the count's type is wrong
        ({(0, 1): 2.5, (2, 0): 0.5}, 9, ValueError),
        ({(0, 1): 2.0, (2, 0): 1}, 9, ValueError),
        ({(0, 1): 2, (2, 0): True}, 9, ValueError),
        ({(0, 1): np.int64(2), (2, 0): 1}, 9, ValueError),
        ({(0, 1): 2, (2, 0): 1}, 9.0, ValueError),
        ({(0, 1): 2, (2, 0): 1}, np.int64(9), ValueError),
    ],
    ids=["non-dominant", "wrong-rank", "zero-count", "negative-count", "total", "half", "float", "bool",
         "numpy-count", "float-total", "numpy-total"],
)
def test_constructor_rejects_bad_characters(dominant, total_dim, error):
    """MultiplicityMap(rs, rows, counts, total_dim) takes V_omega1^2 of A2 as
    [(0, 1), (2, 0)] with counts [2, 1] and total 9, and refuses each edit of it;
    a count or total of another type than int is refused with the weight or value named."""
    a2 = RS["A2"]
    d = {(0, 1): 2, (2, 0): 1}
    good = MultiplicityMap(a2, list(d), list(d.values()), 9)
    assert good.entries == tensor_power_multiplicities(a2, [((1, 0), 2)]).entries
    with pytest.raises(error):
        MultiplicityMap(a2, list(dominant), list(dominant.values()), total_dim)


def test_constructor_names_what_it_refuses():
    """The refusals name the weight of a bad count, both lengths of mismatched lists and a
    weight listed twice; a bool count is refused though True == 1, and an int64 count, which
    could wrap, though it equals 2."""
    a2 = RS["A2"]
    with pytest.raises(ValueError, match=re.escape("multiplicity True at (2, 0) is not a positive int")):
        MultiplicityMap(a2, [(0, 1), (2, 0)], [2, True], 9)
    with pytest.raises(ValueError, match=re.escape("at (0, 1) is not a positive int")):
        MultiplicityMap(a2, [(0, 1), (2, 0)], [np.int64(2), 1], 9)
    with pytest.raises(ValueError, match="1 multiplicities for 2 weights"):
        MultiplicityMap(a2, [(0, 1), (2, 0)], [2], 9)
    with pytest.raises(ValueError, match="3 multiplicities for 2 weights"):
        MultiplicityMap(a2, [(0, 1), (2, 0)], [2, 1, 1], 9)
    with pytest.raises(ValueError, match=re.escape("weight (0, 1) is listed twice")):
        MultiplicityMap(a2, [(0, 1), (2, 0), (0, 1)], [1, 1, 1], 9)
    with pytest.raises(ValueError, match="dimension 9.0 is not an int"):
        MultiplicityMap(a2, [(0, 1), (2, 0)], [2, 1], 9.0)
    with pytest.raises(NotDominant):
        MultiplicityMap(a2, np.array([[0, 1, 0], [2, 0, 0]]), [2, 1], 9)
    # the rows of an int64 array are copied: the caller's array stays writable and its own
    nus = np.array([[0, 1], [2, 0]])
    m = MultiplicityMap(a2, nus, [2, 1], 9)
    nus[0, 0] = 5
    assert m.rows.tolist() == [[0, 1], [2, 0]] and m.dominant == {(0, 1): 2, (2, 0): 1}


@pytest.mark.parametrize("label", UNDER_CAP)
def test_sizes_match_the_orbit_oracle_on_every_zero_pattern(label):
    """One map holding every zero pattern, each at the pattern itself and at a
    random multiple: sizes, one walk length per pattern looked up by pattern id,
    are the scalar orbits' sizes, in dominant's order."""
    rs = build_root_system(label)
    rng = random.Random(31)
    lams = []
    for pattern in itertools.product((0, 1), repeat=rs.rank):
        lams += [pattern, tuple(x * rng.randint(2, 5) for x in pattern)]
    lams = list(dict.fromkeys(lams))
    rng.shuffle(lams)
    expected = [len(orbit(rs, lam)) for lam in lams]
    d = dict.fromkeys(lams, 1)
    m = MultiplicityMap(rs, list(d), list(d.values()), sum(expected))
    assert m.sizes == expected and len(m) == sum(expected)
    assert sorted(m.pattern_sizes) == list(range(2**rs.rank))
    assert m.rows.tolist() == [list(lam) for lam in lams] and not m.rows.flags.writeable


def test_zero_character(tmp_path):
    """MultiplicityMap(rs, [], [], 0) has no weights, no components and reads 0
    everywhere, and survives a save and load; a total other than 0 is refused."""
    b2 = RS["B2"]
    zero = MultiplicityMap(b2, [], [], 0)
    assert (len(zero), repr(zero), zero.sizes, zero.rows.shape) == (0, "MultiplicityMap(0 weights, total_dim=0)", [], (0, 2))
    assert zero.entries == {} and zero[(0, 0)] == zero[(-3, 1)] == 0
    assert racah_decompose(b2, zero).components == {}
    path = tmp_path / "zero.json"
    save_multiplicity_map(zero, path)
    back = load_multiplicity_map(path)
    assert (back.dominant, back.total_dim, len(back)) == ({}, 0, 0)
    with pytest.raises(ValueError, match="total 0 != dimension 1"):
        MultiplicityMap(b2, [], [], 1)


def test_lookup_refuses_what_the_array_kernel_refuses():
    """m[w] reads at the to_dominant_rows point of w: an integral float reads as its integer,
    while a coordinate that is not an integer or of |x| >= 2^31 raises ValueError."""
    m = tensor_power_multiplicities(RS["A2"], [((1, 0), 2)])
    assert m[(1.0, -1)] == m[(1, -1)] == m[(0, 1)] == 2 and m[(-2**31 + 1, 0)] == 0
    for weight in [(0.5, 0), (2**31, 0), (0, -2**31)]:
        with pytest.raises(ValueError):
            m[weight]


def test_lookup_reads_one_row_without_the_dominant_dict(monkeypatch):
    """m[w] finds the one row of m.rows at the dominant point of w by one _positions lookup,
    built on the first read and kept: on a large map it builds no dominant dict and reads what
    the dict view reads at the scalar walk's point, at every row and at weights off the support."""
    rs = RS["A2"]
    m, small = (tensor_power_multiplicities(rs, [((1, 0), n)]) for n in (128, 64))
    assert len(m.rows) > 1000
    built = []
    positions = repchar._positions
    monkeypatch.setattr(repchar, "_positions", lambda rs, nus: built.append(len(nus)) or positions(rs, nus))
    rng = random.Random(41)
    weights = [tuple(rng.randint(-40, 40) for _ in range(2)) for _ in range(200)]
    got = [m[w] for w in weights]
    assert "dominant" not in vars(m) and built == [len(m.rows)]
    assert got == [m.dominant.get(to_dominant(rs, w), 0) for w in weights]
    assert any(got) and not all(got)
    rows = [tuple(mu) for mu in small.rows.tolist()]
    # off the support: past the top, in another coset of the root lattice, and a coordinate past every row's
    absent = [(65, 0), (0, 65), (0, 1), (2, 2), (0, 200), (-300, 1)]
    assert [small[mu] for mu in rows] == list(small.dominant.values())
    assert [small[w] for w in absent] == [small.dominant.get(to_dominant(rs, w), 0) for w in absent] == [0] * 6
    assert built == [len(m.rows), len(rows)]


def test_weyl_dims_stay_exact_past_int64():
    """_weyl_dims multiplies the pairing columns as Python ints: with coordinates near 2^30, where
    the product of the pairings overflows int64, each row gives prod (lam + rho, beta) / (rho, beta)
    as a Fraction product does, and weyl_dim agrees."""
    rng = random.Random(5)
    for label in ["A2", "B3", "G2"]:
        rs = build_root_system(label)
        lams = [[2**30 - rng.randrange(4) for _ in range(rs.rank)] for _ in range(6)] + [[2**30, 0, 1][: rs.rank]]
        pairing = np.array(rs.pairing_rows, dtype=np.int64)
        got = repchar._weyl_dims(rs, (np.array(lams, dtype=np.int64) + 1) @ pairing.T)
        assert max(got) > 2**63
        want = []
        for lam in lams:
            dim = Fraction(1)
            for row in rs.pairing_rows:
                dim *= Fraction(sum(c * (x + 1) for c, x in zip(row, lam)), sum(row))
            want.append(dim)
        assert got == want and [weyl_dim(rs, lam) for lam in lams] == want, label


def test_decomposition_is_held_as_arrays():
    """A decomposition holds its int64 rows and two lists: on A2 omega1 N=256, with the map built
    first, racah_decompose keeps at most 1 MB of traced memory (its two dicts held about 1.4 MB)."""
    import tracemalloc

    rs = RS["A2"]
    m = tensor_power_multiplicities(rs, [((1, 0), 256)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = racah_decompose(rs, m)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dec.rows.dtype == np.int64 and len(dec.rows) == len(dec.counts) == len(dec.dims) > 1000
    assert sum(c * d for c, d in zip(dec.counts, dec.dims)) == m.total_dim
    assert held <= 1_000_000, held


def test_xi_and_entries_share_the_one_orbit_expansion(monkeypatch):
    """xi_measure and entries both read MultiplicityMap.support, one call each; xi is its
    rows in lexicographic order, and entries lists them in support() order."""
    from tensorlimits.measures import xi_measure

    spec = TensorSpec(RS["B2"], (((0, 1), 1), ((1, 0), Fraction(1, 2))))
    m = tensor_power_table(spec.rs, spec.factors, [6])[6]
    calls = []
    support = MultiplicityMap.support
    monkeypatch.setattr(MultiplicityMap, "support", lambda m: calls.append(m) or support(m))
    xi = xi_measure(spec, 6, multiplicities=m)
    assert calls == [m]
    assert list(m.entries) == list(map(tuple, support(m)[0].tolist())) and calls == [m, m]
    assert [w for w, _ in xi.atoms] == sorted(m.entries)
    assert [p * m.total_dim for _, p in xi.atoms] == [m.entries[w] for w, _ in xi.atoms]


def test_character_map_refuses_entries_that_are_not_w_invariant():
    a1 = RS["A1"]
    assert character_map(a1, {(1,): 1, (-1,): 1}).dominant == {(1,): 1}
    # the same dominant part and total as V_omega1, but (-3,) is not in the orbit of (1,)
    with pytest.raises(ValueError, match="not the orbit expansion"):
        character_map(a1, {(1,): 1, (-3,): 1})
    with pytest.raises(ValueError, match="total 2 != dimension 1"):
        character_map(a1, {(1,): 1})
    b2 = tensor_power_multiplicities(RS["B2"], [((0, 1), 2)])
    assert character_map(RS["B2"], b2.entries).dominant == b2.dominant
    with pytest.raises(ValueError):
        character_map(build_root_system("C2"), b2.entries)


def test_decompose_rejects_non_characters():
    a1 = RS["A1"]
    # W-invariant with positive counts, but the character of V_2 minus V_0
    with pytest.raises(NegativeMultiplicity):
        racah_decompose(a1, MultiplicityMap(a1, [(2,)], [1], 2))
    with pytest.raises(NegativeMultiplicity):
        peel_off_decompose(a1, {(1,): 1})
    with pytest.raises(NegativeMultiplicity):
        peel_off_decompose(a1, {(-2,): 1})


def test_decompose_rejects_character_of_another_type():
    # an A3 map used to fail as "dimension 0 of 256", a B2 one as C2 components
    a3 = tensor_power_multiplicities(RS["A3"], [((1, 0, 0), 4)])
    with pytest.raises(BasisMismatch, match="length 3; A2 weights have length 2"):
        racah_decompose(RS["A2"], a3)
    b2 = tensor_power_multiplicities(RS["B2"], [((0, 1), 2)])
    with pytest.raises(BasisMismatch, match="B2, not of C2"):
        racah_decompose(build_root_system("C2"), b2)


def test_sl2_powers_ballot_closed_form():
    a1 = RS["A1"]
    for n in range(1, 13):
        m = tensor_power_multiplicities(a1, [((1,), n)])
        assert racah_decompose(a1, m).components == sl2_power_components(n)


# ------------------------------------------------------------------ trace identity


def test_trace_identity_examples():
    a1 = RS["A1"]
    lhs, rhs = trace_identity_check(a1, (1,), (1,))
    assert lhs == rhs == 2
    lhs, rhs = trace_identity_check(a1, (0,), (Fraction(3, 7),))
    assert lhs == rhs == 0
    a2 = RS["A2"]
    rng = random.Random(31)
    for _ in range(10):
        t = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(2))
        lhs, rhs = trace_identity_check(a2, (1, 0), t)
        assert lhs == rhs


def test_trace_identity_random_sweep():
    rng = random.Random(37)
    for label in ["A1", "A2", "B2", "G2"]:
        rs = RS[label]
        for _ in range(6):
            lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rs.rank))
            lhs, rhs = trace_identity_check(rs, lam, t)
            assert lhs == rhs


# ------------------------------------------------------------------ cache files


def test_cache_roundtrip(tmp_path):
    """A file is one JSON header line (format 4, the type, the numbers of rows and components, the
    body's sha256) and a body of the dominant entries only, in lexicographic order; the same map gives
    the same bytes, and the loader, given no root system, returns the full character with its
    decomposition attached: the benchmark loads cache files this way and sums their entries."""
    cases = [
        ("A2", [((1, 0), 1)], 4),
        ("B2", [((0, 1), 1), ((1, 0), Fraction(1, 2))], 16),
        ("A3", [((1, 0, 0), 1)], 8),
    ]
    path = tmp_path / "map.bin"
    for label, factors, n in cases:
        m = tensor_power_table(RS[label], factors, [n])[n]
        save_multiplicity_map(m, path)
        data = path.read_bytes()
        head = json.loads(data[: data.index(b"\n")])
        body = data[data.index(b"\n") + 1 :]
        dec = racah_decompose(RS[label], m)
        assert head == {"format": 4, "cartan_type": label, "rows": len(m.rows), "components": len(dec.rows),
                        "sha256": hashlib.sha256(body).hexdigest()}
        parts = cache_parts(data)
        assert [tuple(w) for w in parts["rows"]] == sorted(w for w in m.entries if min(w) >= 0)
        assert cache_file(parts) == data
        save_multiplicity_map(m, path)
        assert path.read_bytes() == data
        back = load_multiplicity_map(path)
        assert "_decomposition" in vars(back) and fields(racah_decompose(back.rs, back)) == fields(dec)
        assert back.entries == m.entries
        assert sum(back.entries.values()) == back.total_dim == m.total_dim


def _a2_square_file(path, parts=None, **head):
    """Write V_omega1^2 of A2 (rows (0, 1), (2, 0) at counts 2, 1, total 9; components (0, 1) and (2, 0)
    once each), its parts edited by parts and its header by head, and return the parts it wrote."""
    m = tensor_power_multiplicities(RS["A2"], [((1, 0), 2)])
    save_multiplicity_map(m, path)
    good = cache_parts(path.read_bytes())
    assert good == {"cartan_type": "A2", "rows": [[0, 1], [2, 0]], "counts": [2, 1], "lam_at": [0, 1],
                    "lam_counts": [1, 1], "total_dim": 9}
    edited = {**good, **(parts or {})}
    path.write_bytes(cache_file(edited, **head))
    return edited


@pytest.mark.parametrize(
    "parts, head, error",
    [
        ({"rows": [[0, 1], [2, -1]]}, {}, NotDominant),
        # the body's rows read as A3's: 2 x 3 coordinates do not fit the bytes of 2 x 2
        ({}, {"cartan_type": "A3"}, ValueError),
        ({"total_dim": 8}, {}, ValueError),
        ({"counts": [2]}, {}, ValueError),
        ({}, {"cartan_type": "E6"}, UnsupportedType),
        ({}, {"cartan_type": "A80"}, WeylCapExceeded),
        # header counts int() would read as 2 (or 2 less a half), and format 4 as a string
        ({}, {"rows": 2.5}, ValueError),
        ({}, {"rows": 2.0}, ValueError),
        ({}, {"components": True}, ValueError),
        # the orbit of (2, 0) alone, total 3, held at a zero count beside it
        ({"counts": [0, 1], "total_dim": 3}, {}, ValueError),
        ({}, {"rows": "2"}, ValueError),
        ({}, {"format": "4"}, ValueError),
        ({}, {"rows": {"0": 2}}, ValueError),
        # (0, 1) twice at count 1: the stored total 9, but not a map of distinct weights
        ({"rows": [[0, 1], [0, 1], [2, 0]], "counts": [1, 1, 1]}, {}, ValueError),
    ],
    ids=[
        "non-dominant",
        "wrong-rank",
        "total",
        "short",
        "unknown-type",
        "weyl-cap",
        "fraction",
        "float",
        "bool",
        "zero-count",
        "string-counts",
        "string-weights",
        "object-weights",
        "duplicate",
    ],
)
def test_load_rejects_bad_file(tmp_path, parts, head, error):
    """Each edit of V_omega1^2 of A2 breaks one rule of the body or the header (whose sha256 still
    matches the body), and the loader raises its own error, not an assertion."""
    path = tmp_path / "map.bin"
    _a2_square_file(path, parts, **head)
    with pytest.raises(error):
        load_multiplicity_map(path)


@pytest.mark.parametrize("field, key", [("weights", "rows"), ("multiplicities", "components")],
                         ids=["weights", "multiplicities"])
def test_load_names_a_field_that_is_not_a_list(tmp_path, field, key):
    """The header counts the weights (rows) and the components' multiplicities (components); a count
    stored as the string "21" is refused with ValueError naming its field."""
    path = tmp_path / "map.bin"
    _a2_square_file(path, **{key: "21"})
    with pytest.raises(ValueError, match=re.escape(f"header field {key!r} is '21', not a JSON int")):
        load_multiplicity_map(path)


@pytest.mark.parametrize(
    "parts, error, message",
    [
        ({"rows": [[0, 1], [2, -1]], "counts": [2, 1]}, NotDominant, "(2, -1) is not dominant"),
        ({"rows": [[0, 1], [2, -2**31]]}, ValueError, "weight (2, -2147483648) has a coordinate of absolute value"),
        ({"lam_at": [1, 0]}, ValueError, "components (2, 0) and (0, 1) are not in strictly increasing"),
    ],
    ids=["true", "float", "string"],
)
def test_load_names_the_first_weight_with_a_coordinate_that_is_not_an_int(tmp_path, parts, error, message):
    """Every stored coordinate is an int32, so none is a JSON true, 2.0 or "1"; a coordinate the
    loader refuses (negative, -2^31, or one that puts the components out of order) is reported
    with the weight that holds it."""
    path = tmp_path / "map.bin"
    _a2_square_file(path, parts)
    with pytest.raises(error, match=re.escape(message)):
        load_multiplicity_map(path)


def _set(at: int, value: bytes):
    def edit(body):
        body[at : at + len(value)] = value

    return edit


# the body of V_omega1^2 of A2: rows at 0, the counts 2 and 1 as lengths at 16 and 21 with bytes at
# 20 and 25, the component positions at 26, their counts at 34, the total 9 as a length at 44, byte at 48
_COUNT_EDITS = [
    ("multiplicities", _set(16, (2).to_bytes(4, "little"))),  # a length one byte too long
    ("multiplicities", _set(25, b"\x00")),  # the count 1 stored as 0
    ("multiplicities", _set(16, b"\xff\xff\xff\xff")),  # a length past the end of the body
    ("multiplicities", _set(16, (1).to_bytes(4, "big"))),  # a length written big-endian
    ("multiplicities", lambda body: body.__delitem__(20)),  # a count's byte cut from the body
    ("multiplicities", _set(16, bytes(4))),  # a zero length, the count's byte left in place
    ("total_dim", _set(44, (2).to_bytes(4, "little"))),  # the total's length one byte too long
    ("total_dim", lambda body: body.append(0)),  # one byte after the total
    ("total_dim", lambda body: body.__delitem__(slice(44, 48))),  # the total without its length
    ("total_dim", lambda body: body.__delitem__(slice(44, 49)) or body.extend(bytes(4))),  # the total 0
]


@pytest.mark.parametrize(
    "field, edit",
    _COUNT_EDITS,
    ids=["half", "true", "point-zero", "underscore", "arabic-indic", "empty", "total-half", "total-point-zero",
         "total-underscore", "total-space"],
)
def test_load_refuses_counts_that_are_not_decimal_strings(tmp_path, field, edit):
    """No count is stored as a decimal string: each is a 4-byte little-endian length and that many
    unsigned little-endian bytes.  Each case breaks the encoding of one multiplicity or of the total
    and stores the sha256 of the broken body, and the loader refuses it with ValueError: a length that
    runs past the body or leaves bytes over, or a count the constructor refuses."""
    path = tmp_path / "map.bin"
    _a2_square_file(path)
    path.write_bytes(edit_cache_body(path.read_bytes(), edit))
    with pytest.raises(ValueError):
        load_multiplicity_map(path)


def _a2_fourth_parts(tmp_path) -> dict:
    """The parts of the cache file of V_omega1^4 of A2, whose components (2, 1) (3 times) and (4, 0)
    (once) both have dimension 15, with Casimir values 32/3 and 56/3."""
    path = tmp_path / "fourth.bin"
    save_multiplicity_map(tensor_power_multiplicities(RS["A2"], [((1, 0), 4)]), path)
    parts = cache_parts(path.read_bytes())
    lams = [tuple(parts["rows"][i]) for i in parts["lam_at"]]
    assert dict(zip(lams, parts["lam_counts"])) == {(0, 2): 2, (1, 0): 3, (2, 1): 3, (4, 0): 1}
    return parts


def _move_unit(parts):
    at = [tuple(parts["rows"][i]) for i in parts["lam_at"]]
    counts = list(parts["lam_counts"])
    counts[at.index((2, 1))] -= 1
    counts[at.index((4, 0))] += 1
    return {"lam_counts": counts}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_move_unit, "Casimir sum"),
        (lambda parts: {"lam_at": parts["lam_at"][1:], "lam_counts": parts["lam_counts"][1:]}, "account for dimension"),
        (lambda parts: {"lam_at": parts["lam_at"][::-1], "lam_counts": parts["lam_counts"][::-1]}, "not in strictly"),
    ],
    ids=["unit-moved-between-equal-dims", "dropped-component", "unsorted-components"],
)
def test_load_refuses_a_decomposition_that_does_not_fit(tmp_path, edit, message):
    """A stored decomposition must account for the map: sum c dim V_lam = total_dim catches a dropped
    component, the Casimir identity a unit moved between two components of equal dimension, and the
    order check components out of lexicographic order; each is a ValueError."""
    parts = _a2_fourth_parts(tmp_path)
    path = tmp_path / "map.bin"
    path.write_bytes(cache_file({**parts, **edit(parts)}))
    with pytest.raises(ValueError, match=message):
        load_multiplicity_map(path)


def test_load_cannot_tell_components_exchanged_by_a_diagram_automorphism(tmp_path):
    """The blind spot of the load checks: (3, 0) and (0, 3) of A2 have the same dimension and Casimir
    value, so V_omega1^6 with their counts exchanged loads, with a decomposition that is not its own."""
    m = tensor_power_multiplicities(RS["A2"], [((1, 0), 6)])
    path = tmp_path / "map.bin"
    save_multiplicity_map(m, path)
    parts = cache_parts(path.read_bytes())
    at = [tuple(parts["rows"][i]) for i in parts["lam_at"]]
    counts = list(parts["lam_counts"])
    i, j = at.index((3, 0)), at.index((0, 3))
    assert counts[i] != counts[j]
    counts[i], counts[j] = counts[j], counts[i]
    path.write_bytes(cache_file({**parts, "lam_counts": counts}))
    back = load_multiplicity_map(path)
    assert back.dominant == m.dominant
    assert racah_decompose(back.rs, back).components != racah_decompose(m.rs, m).components


def test_library_save_and_load_past_4300_digits(tmp_path, default_int_digits):
    """The file stores no decimal strings, so a library save and load of A1 N=15000, whose counts pass
    4,300 digits, works under CPython's default limit on int <-> str digits."""
    m = tensor_power_multiplicities(RS["A1"], [((1,), 15000)])
    assert max(m.counts).bit_length() > 4300 * 3.33
    path = tmp_path / "map.bin"
    save_multiplicity_map(m, path)
    back = load_multiplicity_map(path)
    assert back.dominant == m.dominant and back.total_dim == 2**15000
    assert fields(racah_decompose(back.rs, back)) == fields(racah_decompose(m.rs, m))
