"""Multiplicities, convolution, tensor powers, and decompositions."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from tensorlimits import repchar, rootsys
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
    freudenthal_multiplicities,
    load_multiplicity_map,
    racah_decompose,
    save_multiplicity_map,
    tensor_power_multiplicities,
    tensor_power_table,
    trace_identity_check,
    weyl_dim,
)
from tensorlimits.measures import TensorSpec
from tensorlimits.rootsys import build_root_system, casimir_eigenvalue, orbit

from oracles import (
    character_by_weyl_formula,
    character_map,
    convolve,
    dominant_weights_dfs,
    peel_off_decompose,
    racah_full_scan,
    sl2_power_components,
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
        lambda rs, lam: tensor_power_table(rs, [(lam, 1)], [2]),
        orbit,
        casimir_eigenvalue,
        lambda rs, lam: TensorSpec(rs, ((lam, 1),)),
    ],
    ids=["weyl_dim", "freudenthal", "tensor_power_table", "orbit", "casimir", "TensorSpec"],
)


@pytest.mark.parametrize("weight", [(1,), (1, 0, 0)])
@WEIGHT_ENTRIES
def test_wrong_rank_weight_is_not_dominant(entry, weight):
    # zip used to truncate a short weight: weyl_dim gave 0, orbit {(1,), (-1,)},
    # and the dominant-weight walk of freudenthal_multiplicities never ended
    with pytest.raises(NotDominant):
        entry(RS["A2"], weight)


@pytest.mark.parametrize("weight", [(1.5, 0.7), (1.5, 0), (1, Fraction(1, 2))])
@WEIGHT_ENTRIES
def test_non_integral_weight_is_not_dominant(entry, weight):
    # TensorSpec used to truncate (1.5, 0.7) to omega1 by int(x), and weyl_dim
    # and freudenthal_multiplicities raised a bare TypeError from fractions
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


# -------------------------------------------------------------- freudenthal


def test_freudenthal_small_examples():
    a1 = RS["A1"]
    m = freudenthal_multiplicities(a1, (2,))
    assert m.entries == {(2,): 1, (0,): 1, (-2,): 1}
    assert freudenthal_multiplicities(a1, (0,)).entries == {(0,): 1}
    a2 = RS["A2"]
    adj = freudenthal_multiplicities(a2, (1, 1))
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
    rs = RS[label]
    for lam in lams:
        got = freudenthal_multiplicities(rs, lam)
        expected = character_by_weyl_formula(rs, lam)
        assert got.entries == expected
        assert got.total_dim == weyl_dim(rs, lam)


def test_freudenthal_w_symmetry():
    for label in ["A2", "B2", "G2"]:
        rs = RS[label]
        m = freudenthal_multiplicities(rs, (2, 1))
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
            m = freudenthal_multiplicities(rs, lam)
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
    assert freudenthal_multiplicities(RS["G2"], (1, 0))[(0, 0)] == 2
    assert freudenthal_multiplicities(RS["F4"], (1, 0, 0, 0))[(0, 0, 0, 0)] == 4


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


def test_positions_read_weights_past_the_radix_as_absent():
    """A weight with a coordinate at the radix (one past the largest dominant
    coordinate) packs to the key of a weight among the rows, as the carry would
    have it, yet reads as absent: the last slot, which stays 0."""
    rs = RS["B3"]
    nus, _ = repchar._dominant_weights(rs, (3, 1, 2))
    size, r = nus.shape
    find = repchar._positions(nus)
    assert find(nus).tolist() == list(range(size))
    radix = int(nus.max()) + 1
    aliases = []
    for nu in nus.tolist():
        for i in range(r):
            past = list(nu)
            past[i] = radix
            aliases.append(past)
            if i and nu[i - 1]:
                carry = list(nu)  # the same mixed-radix key as nu itself
                carry[i - 1] -= 1
                carry[i] += radix
                aliases.append(carry)
    assert len(aliases) > size * r
    assert find(np.array(aliases)).tolist() == [size] * len(aliases)


def test_positions_refuse_keys_past_int64():
    assert repchar._positions(np.array([[2**21 - 2, 0, 0]])) is not None
    with pytest.raises(TableCapExceeded, match="int64"):
        repchar._positions(np.array([[2**21, 0, 0]]))


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
            assert (scan.components, scan.dims) == (dec.components, dec.dims)


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


def test_racah_matches_full_scan_oracle():
    """Racah on dominant weights against Racah over the full table with enumerated
    Weyl elements, which reads every shifted weight where it lies."""
    for label, factors in _full_scan_cases():
        rs = RS[label]
        m = tensor_power_multiplicities(rs, factors)
        dec, scan = racah_decompose(rs, m), racah_full_scan(rs, m)
        assert (dec.components, dec.dims) == (scan.components, scan.dims), (label, factors)


def test_racah_sums_over_many_blocks(monkeypatch):
    """With the block budget of racah_decompose cut to 7 orbit points, an orbit of
    more than 7 points is a block of its own and every component sums over many
    blocks; the result still matches the full-table scan and peel-off."""
    monkeypatch.setattr(repchar, "_BLOCK_ROWS", 7)
    for label, factors in _full_scan_cases():
        rs = RS[label]
        m = tensor_power_multiplicities(rs, factors)
        dec, scan = racah_decompose(rs, m), racah_full_scan(rs, m)
        assert (dec.components, dec.dims) == (scan.components, scan.dims), (label, factors)
        assert dec.components == peel_off_decompose(rs, m.entries).components, (label, factors)


def _no_orbit(rs, lam):
    raise AssertionError(f"orbit({lam}) was called")


def test_len_and_repr_do_not_expand_orbits(tmp_path, monkeypatch):
    """len and repr of a map from the recurrence or the loader count the orbit
    points of its dominant entries, without building the full entries: the
    orbit sizes come from the walks of the zero patterns, never from
    rootsys.orbit (the factor characters' entries expand through repchar's)."""
    path = tmp_path / "map.json"
    with monkeypatch.context() as patch:
        patch.setattr(rootsys, "orbit", _no_orbit)
        m = tensor_power_table(RS["B2"], [((0, 1), 1), ((1, 0), Fraction(1, 2))], [8])[8]
        save_multiplicity_map(m, path)
        lazies = (m, load_multiplicity_map(path))
        sizes = [len(lazy) for lazy in lazies]
    for lazy, size in zip(lazies, sizes):
        text = repr(lazy)
        assert "entries" not in vars(lazy)
        assert size == len(lazy.entries) == len(character_map(lazy.rs, lazy.entries))
        assert text == f"MultiplicityMap({size} weights, total_dim={m.total_dim})"


# sha256 of repr([list(m.entries.items()) for m in maps]): each factor character,
# then the table at each N, so the order in which orbits are expanded is pinned
ENTRIES_SHA256 = {
    "A2": ([((1, 0), 1)], [1, 4], "be25052992dda3de1653d961eed236a84566295a828ff345207831c4e88207d8"),
    "B2": (
        [((0, 1), 1), ((1, 0), Fraction(1, 2))],
        [2, 4],
        "05dd56f988297b5bf285df85f4c90456a641b64dbb5c00c3136d4cc75faaaa42",
    ),
    "G2": ([((1, 0), 1)], [3], "c4911450c3e2a881f7627b29dcd8c90f304cf34c78bfddcbf6dc9e1aaf6f54ad"),
    "D4": ([((1, 0, 0, 0), 1)], [3], "a5da056cdcd66109ddea988b2defa4df2e5209d305e061ca11af89f123e35d9b"),
    "F4": ([((0, 0, 0, 1), 1)], [3], "a6db196adbf7e573ecfd3d2ba3215c95277b4cf9392a2e4da702f50e0a670b88"),
    "A6": ([((1, 0, 0, 0, 0, 0), 1)], [4], "52ebe87398fb5528493d93543e0c4aae19bea49ceb05c672564b445a3641d5c4"),
    "B5": ([((1, 0, 0, 0, 0), 1)], [3], "899aed49f326ae67a10ff420edccbaafc635730f0969ed0f7e07edee3d30eac5"),
    "C5": ([((0, 1, 0, 0, 0), 1)], [2], "c915ee2a07922b5fdc1bbfa0a9284309e41b28c143dd2b9be7b14763e1a9c5a9"),
}


@pytest.mark.parametrize("label", sorted(ENTRIES_SHA256))
def test_entries_order_is_pinned(label):
    # the float sums of char_fn_xi run over entries in this order
    factors, n_values, digest = ENTRIES_SHA256[label]
    rs = build_root_system(label)
    table = tensor_power_table(rs, factors, n_values)
    maps = [freudenthal_multiplicities(rs, lam) for lam, _ in factors] + [table[n] for n in n_values]
    assert hashlib.sha256(repr([list(m.entries.items()) for m in maps]).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "dominant, total_dim, error",
    [
        ({(0, 1): 2, (2, -1): 1}, 9, NotDominant),
        ({(0, 1): 2, (2,): 1}, 9, NotDominant),
        ({(0, 1): 0, (2, 0): 1}, 3, ValueError),
        ({(0, 1): -1, (2, 0): 1}, 0, ValueError),
        ({(0, 1): 2, (2, 0): 1}, 8, ValueError),
    ],
    ids=["non-dominant", "wrong-rank", "zero-count", "negative-count", "total"],
)
def test_constructor_rejects_bad_characters(dominant, total_dim, error):
    """MultiplicityMap(rs, dominant, total_dim) takes V_omega1^2 of A2 as
    {(0, 1): 2, (2, 0): 1} with total 9, and refuses each edit of it."""
    a2 = RS["A2"]
    good = MultiplicityMap(a2, {(0, 1): 2, (2, 0): 1}, 9)
    assert good.entries == tensor_power_multiplicities(a2, [((1, 0), 2)]).entries
    with pytest.raises(error):
        MultiplicityMap(a2, dominant, total_dim)


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
        racah_decompose(a1, MultiplicityMap(a1, {(2,): 1}, 2))
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
    """A file holds the type and the dominant entries only, the same map gives
    the same bytes, and the loader, given no root system, returns the full
    character: the benchmark loads cache files this way and sums their entries."""
    cases = [
        ("A2", [((1, 0), 1)], 4),
        ("B2", [((0, 1), 1), ((1, 0), Fraction(1, 2))], 16),
        ("A3", [((1, 0, 0), 1)], 8),
    ]
    path = tmp_path / "map.json"
    for label, factors, n in cases:
        m = tensor_power_table(RS[label], factors, [n])[n]
        save_multiplicity_map(m, path)
        text = path.read_text()
        doc = json.loads(text)
        assert sorted(doc) == ["cartan_type", "multiplicities", "total_dim", "weights"]
        assert doc["cartan_type"] == label
        assert sorted(map(tuple, doc["weights"])) == sorted(w for w in m.entries if min(w) >= 0)
        save_multiplicity_map(m, path)
        assert path.read_text() == text
        back = load_multiplicity_map(path)
        assert back.entries == m.entries
        assert sum(back.entries.values()) == back.total_dim == m.total_dim


@pytest.mark.parametrize(
    "edit, error",
    [
        ({"weights": [[0, 1], [2, -1]]}, NotDominant),
        ({"weights": [[0, 1], [2]]}, NotDominant),
        ({"total_dim": "8"}, ValueError),
        ({"multiplicities": ["2"]}, ValueError),
        ({"cartan_type": "E6"}, UnsupportedType),
        ({"cartan_type": "A80"}, WeylCapExceeded),
        # int() would read these as (2, 0), (2, 0) and (1, 0), each with the stored total
        ({"weights": [[0, 1], [2.5, 0]]}, ValueError),
        ({"weights": [[0, 1], [2.0, 0]]}, ValueError),
        ({"weights": [[0, 1], [True, 0]]}, ValueError),
        # the orbit of (2, 0) alone, total 3, held at a zero count beside it
        ({"multiplicities": ["0", "1"], "total_dim": "3"}, ValueError),
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
    ],
)
def test_load_rejects_bad_file(tmp_path, edit, error):
    """V_omega1^2 of A2 is stored as {(0, 1): 2, (2, 0): 1} with total 9; each
    edit breaks one rule, and the loader raises its own error, not an assertion."""
    m = tensor_power_multiplicities(RS["A2"], [((1, 0), 2)])
    path = tmp_path / "map.json"
    save_multiplicity_map(m, path)
    doc = json.loads(path.read_text())
    assert doc == {"cartan_type": "A2", "weights": [[0, 1], [2, 0]], "multiplicities": ["2", "1"], "total_dim": "9"}
    path.write_text(json.dumps({**doc, **edit}))
    with pytest.raises(error):
        load_multiplicity_map(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("multiplicities", [2.5, "1"]),
        ("multiplicities", ["2", True]),
        ("multiplicities", ["2.0", "1"]),
        ("multiplicities", ["2", "0_1"]),
        ("multiplicities", ["٢", "1"]),
        ("total_dim", 9.5),
        ("total_dim", "9.0"),
        ("total_dim", "0_9"),
        ("total_dim", " 9"),
    ],
    ids=["half", "true", "point-zero", "underscore", "arabic-indic", "total-half", "total-point-zero",
         "total-underscore", "total-space"],
)
def test_load_refuses_counts_that_are_not_decimal_strings(tmp_path, field, value):
    """save_multiplicity_map writes every count as a string of ASCII decimal digits.
    int() reads each of these values as the stored count, or as the count less a
    half, so a file of them would pass for V_omega1^2 of A2; the loader refuses
    it with ValueError naming the field."""
    m = tensor_power_multiplicities(RS["A2"], [((1, 0), 2)])
    path = tmp_path / "map.json"
    save_multiplicity_map(m, path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, field: value}))
    with pytest.raises(ValueError, match=field):
        load_multiplicity_map(path)
