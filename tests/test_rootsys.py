"""Root-system construction, Weyl enumeration, forms, and actions."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tensorlimits import rootsys
from tensorlimits.cli import main
from tensorlimits.errors import (
    BasisMismatch,
    NotDominant,
    UnsupportedType,
    WeylCapExceeded,
)
from tensorlimits.linalg import mat, mat_mul, transpose
from tensorlimits.rootsys import (
    ON_WALL,
    CartanType,
    build_root_system,
    casimir_eigenvalue,
    inner_product,
    is_dominant,
    orbit,
    orbit_rows,
    shifted_action,
    shifted_dominant,
    sums_by_row,
    to_dominant,
    to_dominant_rows,
    to_dominant_shifted,
    weyl_group_order,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D2", "D3", "G2"]
ALL_RANK4 = SMALL_TYPES + ["A4", "B4", "C4", "D4", "F4"]
# every type whose Weyl group is under the cap
UNDER_CAP = ALL_RANK4 + ["A5", "A6", "B5", "C5", "D5"]


# ---------------------------------------------------------------- cartan types


def test_parse_and_str():
    t = CartanType.parse("b2")
    assert (t.family, t.rank) == ("B", 2)
    assert str(t) == "B2"


@pytest.mark.parametrize("bad", ["E6", "E7", "E8", "G3", "G1", "F3", "F5", "D1", "H3", "A0"])
def test_rejected_types(bad):
    with pytest.raises(UnsupportedType):
        CartanType.parse(bad)


def test_weyl_cap_checked_before_enumeration():
    with pytest.raises(WeylCapExceeded):
        build_root_system("B7")  # 2^7 * 7! = 645120 > 10000


def test_weyl_cap_checked_before_any_root(monkeypatch):
    # the cap reads |W| from the tables, so a type over it never reaches
    # root generation, which costs O(rank^4)
    def no_roots(c):
        raise AssertionError("positive roots generated before the cap check")

    monkeypatch.setattr(rootsys, "_positive_roots", no_roots)
    for label in ("A80", "B7"):
        with pytest.raises(WeylCapExceeded):
            build_root_system(label)


# ---------------------------------------------------------------- construction


def test_a1_smallest_case():
    rs = build_root_system("A1")
    assert rs.C == ((2,),)
    assert rs.positive_roots == ((1,),)
    assert rs.rho == (1,)
    assert len(rs.weyl) == 2
    assert rs.dim_g == 3


def test_b2_literal_tables():
    rs = build_root_system("B2")
    assert rs.C == ((2, -1), (-2, 2))
    assert rs.d == (Fraction(1), Fraction(1, 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert len(rs.weyl) == 8
    assert rs.dim_g == 10


def test_g2_and_f4_tables():
    g2 = build_root_system("G2")
    assert g2.C == ((2, -1), (-3, 2))
    assert g2.d == (Fraction(1), Fraction(1, 3))
    assert len(g2.positive_roots) == 6 and len(g2.weyl) == 12
    f4 = build_root_system("F4")
    assert f4.d == (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert len(f4.positive_roots) == 24 and len(f4.weyl) == 1152
    assert f4.dim_g == 52


def test_type_a_inverse_cartan_closed_form():
    # (C^-1)_ij = min(i,j) * (n - max(i,j)) / n for A_{n-1}, 1-based
    for rank in (2, 3, 4):
        rs = build_root_system(f"A{rank}")
        n = rank + 1
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                expected = Fraction(min(i, j) * (n - max(i, j)), n)
                assert rs.C_inv[i - 1][j - 1] == expected


@pytest.mark.parametrize("label", ALL_RANK4)
def test_structural_invariants(label):
    rs = build_root_system(label)
    r = rs.rank
    # Cartan matrix shape and symmetrizability
    for i in range(r):
        assert rs.C[i][i] == 2
        for j in range(r):
            if i != j:
                assert rs.C[i][j] <= 0
            assert rs.Cbar[i][j] == rs.d[i] * rs.C[i][j]
            assert rs.Cbar[i][j] == rs.Cbar[j][i]
    assert max(rs.d) == 1 and all(x > 0 for x in rs.d)
    # counts
    assert 2 * len(rs.positive_roots) + r == rs.dim_g
    assert len(rs.weyl) == weyl_group_order(rs.cartan_type)
    # rho is half the sum of positive roots (alpha-coords)
    total = [sum(root[i] for root in rs.positive_roots) for i in range(r)]
    # rho in alpha-coords is C_inv @ rho
    for i in range(r):
        coord = sum(rs.C_inv[i][j] * rs.rho[j] for j in range(r))
        assert coord * 2 == total[i]
    # gram relations
    ident = mat_mul(rs.gram_omega, rs.gram_omega_inv)
    for i in range(r):
        for j in range(r):
            assert ident[i][j] == (1 if i == j else 0)
    # positive definiteness via leading principal minors
    from tensorlimits.linalg import determinant

    for k in range(1, r + 1):
        minor = tuple(row[:k] for row in rs.gram_omega[:k])
        assert determinant(minor) > 0


@pytest.mark.parametrize("label", ALL_RANK4)
def test_weyl_group_axioms(label):
    rs = build_root_system(label)
    matrices = {w.matrix for w in rs.weyl}
    assert len(matrices) == len(rs.weyl)
    # identity is the unique length-0 element and comes first
    assert rs.weyl[0].length == 0
    assert all(rs.weyl[0].matrix[i][i] == 1 for i in range(rs.rank))
    # each simple reflection permutes the element set
    simple = [w.matrix for w in rs.weyl if w.length == 1]
    assert len(simple) == rs.rank
    for s in simple:
        sm = mat(s)
        images = {tuple(tuple(int(x) for x in row) for row in mat_mul(mat(w.matrix), sm)) for w in rs.weyl}
        assert images == matrices
    # signs
    for w in rs.weyl:
        assert w.sign == (-1) ** w.length
    # the form is W-invariant: w^t G w = G
    for w in random.Random(7).sample(rs.weyl, min(12, len(rs.weyl))):
        wm = mat(w.matrix)
        g = mat_mul(mat_mul(transpose(wm), rs.gram_omega), wm)
        assert g == rs.gram_omega


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2", "B4", "D4", "F4"])
def test_length_counts_inverted_roots(label):
    rs = build_root_system(label)
    pos = set(rs.positive_roots)
    for w in rs.weyl:
        inverted = 0
        for root, root_omega in zip(rs.positive_roots, rs.positive_roots_omega):
            image = w.apply(root_omega)
            # back to alpha-coords to read off the sign
            alpha = [sum(rs.C_inv[i][j] * image[j] for j in range(rs.rank)) for i in range(rs.rank)]
            assert all(x.denominator == 1 for x in alpha)
            if all(x <= 0 for x in alpha):
                inverted += 1
            else:
                assert tuple(int(x) for x in alpha) in pos
        assert inverted == w.length


# ---------------------------------------------------------------- bilinear form


def test_inner_product_values():
    a1 = build_root_system("A1")
    assert inner_product(a1, (1,), (1,)) == Fraction(1, 2)
    b2 = build_root_system("B2")
    assert inner_product(b2, b2.rho, (1, 2), "omega", "alpha") == 2
    for rs in (a1, b2, build_root_system("G2")):
        r = rs.rank
        for i in range(r):
            e = tuple(int(k == i) for k in range(r))
            assert inner_product(rs, e, e, "alpha") == 2 * rs.d[i]
            # (omega_i, alpha_j) = d_i delta_ij
            for j in range(r):
                f = tuple(int(k == j) for k in range(r))
                assert inner_product(rs, e, f, "omega", "alpha") == (rs.d[i] if i == j else 0)


def test_inner_product_symmetry_and_mixed_consistency():
    rs = build_root_system("B3")
    rng = random.Random(3)
    for _ in range(20):
        u = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        assert inner_product(rs, u, v) == inner_product(rs, v, u)
        # convert v from alpha to omega-coords and compare mixed vs pure
        v_omega = tuple(sum(Fraction(rs.C[i][j]) * v[j] for j in range(3)) for i in range(3))
        assert inner_product(rs, u, v, "omega", "alpha") == inner_product(rs, u, v_omega, "omega")


def test_inner_product_basis_errors():
    rs = build_root_system("A2")
    with pytest.raises(BasisMismatch):
        inner_product(rs, (1, 0), (0, 1), "weight")
    with pytest.raises(BasisMismatch):
        inner_product(rs, (1,), (0, 1))


def test_wrong_length_weight_is_rejected():
    from tensorlimits.measures import TensorSpec, eta_extended_measure, pushforward_dominant_shifted

    a2 = build_root_system("A2")
    with pytest.raises(BasisMismatch, match="length 3.*length 2"):
        to_dominant(a2, (1, 2, -3))
    with pytest.raises(BasisMismatch, match="length 1.*length 2"):
        shifted_dominant(a2, (1,))
    for kernel in (to_dominant_rows, orbit_rows):
        with pytest.raises(BasisMismatch, match="length 3.*length 2"):
            kernel(a2, [(1, 2, 3)])
        with pytest.raises(BasisMismatch, match="rows of a 2-d array"):
            kernel(a2, (1, 2))
    ext = eta_extended_measure(TensorSpec(build_root_system("A3"), (((1, 0, 0), 1),)), 4)
    with pytest.raises(BasisMismatch, match="length 3.*length 2"):
        pushforward_dominant_shifted(a2, ext)


def test_row_kernels_refuse_coordinates_beyond_int64_headroom():
    # |x| >= 2^31 is refused by name, for int64 input and for Python ints
    # too large for int64, before any reflection could wrap around
    a2 = build_root_system("A2")
    for big in (2**31, -(2**31), 2**40, 2**70):
        with pytest.raises(ValueError, match="absolute value >= 2\\^31") as info:
            to_dominant_rows(a2, [(0, 1), (big, -1)])
        assert not isinstance(info.value, OverflowError)
        assert str(big) in str(info.value)
    assert to_dominant_rows(a2, [(2**31 - 1, -1)]).tolist() == [list(to_dominant(a2, (2**31 - 1, -1)))]
    with pytest.raises(ValueError, match="absolute value"):
        orbit_rows(a2, [(2**31, 1)])
    # a negative coordinate, or rows of two zero patterns, are refused by name
    with pytest.raises(NotDominant, match=r"\(2, 0\) is not dominant with the zeros of \(1, 1\)"):
        orbit_rows(a2, [(1, 1), (2, 0)])
    with pytest.raises(NotDominant, match=r"\(1, -1\) is not dominant"):
        orbit_rows(a2, [(1, 0), (1, -1)])
    # a rational weight is refused, never truncated
    with pytest.raises(ValueError, match="not integral"):
        to_dominant_rows(a2, [(1, 0), (Fraction(1, 2), -1)])


def test_rho_duality():
    for label in ALL_RANK4:
        rs = build_root_system(label)
        for i in range(rs.rank):
            e = tuple(int(k == i) for k in range(rs.rank))
            assert inner_product(rs, rs.rho, e, "omega", "alpha") == rs.d[i]


def test_denominator_identity_numeric():
    # sum over W of sign * exp((t, w rho)) equals the product over positive
    # roots of (exp((t,alpha)/2) - exp(-(t,alpha)/2))
    rng = random.Random(11)
    for label in ["A1", "A2", "B2", "C3", "G2"]:
        rs = build_root_system(label)
        for _ in range(25):
            t = [rng.uniform(0.5, 2.0) / float(di) for di in rs.d]
            lhs = 0.0
            for w in rs.weyl:
                wrho = w.apply(rs.rho)
                pairing = sum(ti * float(di) * mi for ti, di, mi in zip(t, rs.d, wrho))
                lhs += w.sign * math.exp(pairing)
            rhs = 1.0
            for root_omega in rs.positive_roots_omega:
                pairing = sum(ti * float(di) * mi for ti, di, mi in zip(t, rs.d, root_omega))
                rhs *= math.exp(pairing / 2) - math.exp(-pairing / 2)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------- Weyl actions


def test_shifted_action_examples():
    a1 = build_root_system("A1")
    s = a1.weyl[1]
    for m in range(-4, 5):
        assert shifted_action(a1, s, (m,)) == (-m - 2,)
    a2 = build_root_system("A2")
    e = a2.weyl[0]
    assert shifted_action(a2, e, (3, 5)) == (3, 5)
    # s_1 is the length-1 element that negates the first coordinate's diagonal entry
    s1 = next(w for w in a2.weyl if w.length == 1 and w.matrix[0][0] == -1)
    assert shifted_action(a2, s1, (0, 0)) == (-2, 1)


def test_to_dominant_shifted():
    a1 = build_root_system("A1")
    assert to_dominant_shifted(a1, (-1,)) is ON_WALL
    w, lam = to_dominant_shifted(a1, (-3,))
    assert lam == (1,) and w.length == 1
    assert shifted_action(a1, w, lam) == (-3,)
    w, lam = to_dominant_shifted(a1, (5,))
    assert lam == (5,) and w.length == 0


@pytest.mark.parametrize("label", ["A2", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_to_dominant_shifted_roundtrip(label):
    rs = build_root_system(label)
    rng = random.Random(5)
    walls = 0
    for _ in range(200):
        mu = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
        res = to_dominant_shifted(rs, mu)
        if res is ON_WALL:
            walls += 1
            # mu + rho should be fixed by some reflection: its W-orbit
            # meets the closed dominant cone on a wall
            continue
        w, lam = res
        assert is_dominant(lam)
        assert shifted_action(rs, w, lam) == mu
        # uniqueness: strictly dominant mu+rho has trivial stabilizer
        assert all(x + 1 > 0 for x in lam)
    assert walls > 0  # the sample should hit some walls


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_shifted_dominant_matches_orbit_scan_randomized(label):
    # oracle: mu is on a shifted wall iff (mu + rho, beta) = 0 for some
    # positive root beta; otherwise lam + rho is the one strictly dominant
    # point of the orbit W(mu + rho), found by applying every Weyl element.
    # The array kernels agree with the scalar rules row by row.
    rs = build_root_system(label)
    rng = random.Random(11)
    mus = [tuple(rng.randint(-6, 6) for _ in range(rs.rank)) for _ in range(100)]
    assert to_dominant_rows(rs, mus).tolist() == [list(to_dominant(rs, mu)) for mu in mus]
    rows = to_dominant_rows(rs, [[x + 1 for x in mu] for mu in mus])
    lams = [tuple(rng.randint(1, 6) for _ in range(rs.rank)) for _ in range(8)]
    orbits = orbit_rows(rs, lams)
    assert orbits.shape == (weyl_group_order(rs.cartan_type), len(lams), rs.rank)
    for k, lam in enumerate(lams):
        points = [tuple(v) for v in orbits[:, k].tolist()]
        assert points[0] == lam
        assert len(set(points)) == len(points) and set(points) == orbit(rs, lam), lam
    walls = regular = 0
    for mu, row in zip(mus, rows.tolist()):
        assert (0 in row) == (shifted_dominant(rs, mu) is ON_WALL)
        shifted = tuple(x + 1 for x in mu)
        on_wall = any(sum(x * p for x, p in zip(shifted, vec)) == 0 for vec in rs.root_pair_vectors)
        lam = shifted_dominant(rs, mu)
        if on_wall:
            walls += 1
            assert lam is ON_WALL, mu
            assert to_dominant_shifted(rs, mu) is ON_WALL
            continue
        regular += 1
        chamber = [v for v in (w.apply(shifted) for w in rs.weyl) if all(x > 0 for x in v)]
        assert len(chamber) == 1, mu
        assert lam == tuple(x - 1 for x in chamber[0]), mu
        w, lam2 = to_dominant_shifted(rs, mu)
        assert lam2 == lam
        assert shifted_action(rs, w, lam) == mu
    assert walls > 0 and regular > 0


@pytest.mark.parametrize("label", UNDER_CAP)
def test_orbit_matches_weyl_group_randomized(label):
    # oracle: the image of lam under every Weyl matrix, for every pattern of
    # zero coordinates and random lam with that pattern; by the sign lemma the
    # walk from lam takes the steps of the walk of its pattern, one per point
    rs = build_root_system(label)
    weyl = np.array([w.matrix for w in rs.weyl])
    rng = random.Random(23)
    for pattern in itertools.product((0, 1), repeat=rs.rank):
        _, steps, _ = rootsys._weyl_walk(rs.C, pattern)
        for lam in [pattern] + [tuple(x * rng.randint(1, 4) for x in pattern) for _ in range(3)]:
            expected = set(map(tuple, (weyl @ np.array(lam)).tolist()))
            points, lam_steps, _ = rootsys._weyl_walk(rs.C, lam)
            assert lam_steps == steps and len(steps) == len(expected) - 1, lam
            assert set(points) == orbit(rs, lam) == expected, lam
    with pytest.raises(NotDominant):
        orbit(rs, (-1,) + (0,) * (rs.rank - 1))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_orbit_rows_is_orbit_on_every_zero_pattern(label):
    # oracle: the scalar orbit of each weight; the rows hold it once per point, the weight first
    rs = build_root_system(label)
    rng = random.Random(29)
    for pattern in itertools.product((0, 1), repeat=rs.rank):
        lams = [pattern] + [tuple(x * rng.randint(1, 5) for x in pattern) for _ in range(3)]
        rows = orbit_rows(rs, lams)
        assert rows.shape == (len(orbit(rs, pattern)), len(lams), rs.rank)
        for k, lam in enumerate(lams):
            points = [tuple(v) for v in rows[:, k].tolist()]
            assert points[0] == lam and len(set(points)) == len(points), lam
            assert set(points) == orbit(rs, lam), lam


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_negative_root_pairings_count_the_length(label):
    """The sign rule of racah_decompose: for strictly dominant x, w x pairs negatively
    with exactly l(w) positive roots (the integer rows of _weyl_dim_rows), and a point
    pairs to zero with some root exactly where to_dominant_rows leaves a zero."""
    from tensorlimits.repchar import _weyl_dim_rows

    rs = build_root_system(label)
    roots = np.array(_weyl_dim_rows(rs)[0]).T
    rng = random.Random(31)
    xs = np.array([[rng.randint(1, 6) for _ in range(rs.rank)] for _ in range(5)])
    for w in rs.weyl:
        images = xs @ np.array(w.matrix).T
        assert ((images @ roots) < 0).sum(axis=1).tolist() == [w.length] * len(xs), w
    points = np.array([[rng.randint(-6, 6) for _ in range(rs.rank)] for _ in range(300)])
    on_wall = (points @ roots == 0).any(axis=1)
    assert on_wall.tolist() == (to_dominant_rows(rs, points) == 0).any(axis=1).tolist()
    assert on_wall.any() and not on_wall.all()


def test_sums_by_row():
    rows, sums = sums_by_row(np.zeros((0, 2), dtype=np.int64), [])
    assert rows.shape == (0, 2) and sums == []
    # zero sums are dropped, rows come out in lexicographic order, sums stay exact beyond int64
    rows, sums = sums_by_row(
        [(1, 0), (0, 2), (1, 0), (0, 2), (-1, 5), (0, 1), (0, 1)], [2**70, 3, 2**70, -3, 7, 2, -2]
    )
    assert rows.tolist() == [[-1, 5], [1, 0]] and sums == [7, 2**71]
    assert all(type(s) is int for s in sums)
    rng = random.Random(3)
    keys = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(200)]
    nums = [rng.randint(-3, 3) * 2 ** rng.randint(0, 80) for _ in keys]
    want: dict = {}
    for key, n in zip(keys, nums):
        want[key] = want.get(key, 0) + n
    rows, sums = sums_by_row(np.array(keys), nums)
    assert list(zip(map(tuple, rows.tolist()), sums)) == sorted((k, s) for k, s in want.items() if s)


def test_shifted_orbit_partition_a2():
    # each weight is either on a wall or in exactly one shifted orbit of P_+
    rs = build_root_system("A2")
    for m1 in range(-5, 4):
        for m2 in range(-5, 4):
            res = to_dominant_shifted(rs, (m1, m2))
            if res is ON_WALL:
                continue
            w, lam = res
            orbit = {shifted_action(rs, u, lam) for u in rs.weyl}
            assert (m1, m2) in orbit
            assert len(orbit) == len(rs.weyl)


# ---------------------------------------------------------------- scalars


def test_casimir_values():
    a1 = build_root_system("A1")
    assert casimir_eigenvalue(a1, (1,)) == Fraction(3, 2)
    assert casimir_eigenvalue(a1, (0,)) == 0
    with pytest.raises(NotDominant):
        casimir_eigenvalue(a1, (-1,))
    # adjoint of A2: Casimir in Killing normalization is 1, standard form is b_g
    a2 = build_root_system("A2")
    assert casimir_eigenvalue(a2, (1, 1)) == a2.b_g


def test_b_g_table():
    # twice the dual Coxeter number, from the classical tables
    assert build_root_system("A1").b_g == 4
    assert build_root_system("A3").b_g == 8
    assert build_root_system("B2").b_g == 6
    assert build_root_system("B4").b_g == 14
    assert build_root_system("C3").b_g == 8
    assert build_root_system("D4").b_g == 12
    assert build_root_system("G2").b_g == 8
    assert build_root_system("F4").b_g == 18


def test_b_g_a1_ad_trace_oracle():
    # sl2 basis (e, h, f): ad(h) = diag(2, 0, -2), so the Killing form gives
    # (h, h)_K-unnormalized = tr(ad h ad h) = 8, while the standard form has
    # (h, h) = (alpha, alpha) = 2; the ratio is b_g = 4
    ad_h = ((2, 0, 0), (0, 0, 0), (0, 0, -2))
    trace = sum(ad_h[i][i] * ad_h[i][i] for i in range(3))
    rs = build_root_system("A1")
    alpha_sq = inner_product(rs, (1,), (1,), "alpha")
    assert Fraction(trace) == rs.b_g * alpha_sq


def test_d_family_low_rank():
    d2 = build_root_system("D2")
    assert d2.C == ((2, 0), (0, 2))
    assert len(d2.weyl) == 4 and d2.dim_g == 6
    d3 = build_root_system("D3")
    a3 = build_root_system("A3")
    assert len(d3.weyl) == len(a3.weyl)
    assert d3.dim_g == a3.dim_g == 15


# ---------------------------------------------------------------- serialization


# sha256 of `ltl rootsys info --type X` stdout: the rootsys_to_json document
# plus weyl_order, with W listed shortest first and sorted within each length
ROOTSYS_INFO_SHA256 = {
    "A1": "af8a507415152df52fdc3e64f6b2ffcf97efb658276d94c8f4f644b2935078c6",
    "B2": "100210b881cf94e28fe43998b7a85e693d76a6794546d3d7e0a15010fc21a5eb",
    "G2": "9cebf41f8b7969888a1c32dc22e76c36621016634b3445568bd611c199e3c18d",
    "A3": "16beea218749bf520d4cb036c63b1c1cf5286f5a39ff668652108033d8e6e261",
    "D4": "239dc3d5efb4b956ee5e72fb3bcbcd482b7c2e58a8b39e19fac64c546e6cd84e",
    "F4": "7ac7248a4baf8f50cace47702833c153c18f74aeb601174434ab146b8b4754ef",
    "B3": "373a402077a67caa82cd509b37a4777fd741a2dff33df9593250cd347a0dc8e0",
    "C3": "c1577e73365fd26ea3143d51ab41bb8f0ae63b17f9f32b43d35869ebb7aa14a9",
    "B4": "f65be02a47847085cb1059010ce0d93caed517b67318021e43ebf10a1481a60e",
    "C4": "11ad00402fd2d8703e65378aa02e005a940c34a05524190c66dd465ef613900e",
    "D3": "321f9f9e2af180b85cb5ed66179bf00a0bd495ffa88821ecd8e87f2ca66229d5",
    "D5": "551728c29974402f07dff00738ca0abaa14b2482938793dc3879e33066eb07b0",
    # the largest groups under the cap: 5,040 and 3,840 elements
    "A6": "ec44449eaa826441ee7e89004e2a16f23d9f0e40c27e0daaccc1370596aea902",
    "B5": "7a57218f17f5caf75f59e61aefd0e39194df744bbf909a23775cd8ea4c4c6f32",
    "C5": "0fa2825bb3427b04adb2b8433f835a73fa9f462c8ca9231768bcbc004db33d46",
}


@pytest.mark.parametrize("label", sorted(ROOTSYS_INFO_SHA256))
def test_rootsys_info_bytes(capsys, label):
    assert main(["rootsys", "info", "--type", label]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ROOTSYS_INFO_SHA256[label]
