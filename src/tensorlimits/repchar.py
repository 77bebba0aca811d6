"""Exact weight multiplicities of irreducibles, tensor powers, and decompositions.

A character is stored as a MultiplicityMap, built one way only: from its root
system, its arbitrary-precision multiplicities at dominant weights
(omega-coords) and its total dimension, which the constructor checks against
the orbit sizes (rootsys.orbit_sizes).  A map is thus W-invariant by
construction, which Racah's sum and Miller's recurrence rely on: both read
a character only at dominant weights (Racah's sum walks their orbits by
rootsys.orbit_rows).  The full map is expanded over W-orbits by
rootsys.orbit only on demand, when its entries are read: by ltl measure xi,
the trace identity, the factor characters' own consumers and the tests.
Characters of irreducibles come from the Freudenthal recursion; characters
of tensor powers prod_l V_lam_l^(n_l) from Miller's power recurrence, which
finds each multiplicity from higher ones by one exact integer division, at a
cost per dominant weight of the support sizes of the factors.  It is the
only product of characters the package computes; the test suite checks it
against plain convolution of the factor characters (tests/oracles.py).
Characters are split into irreducibles by Racah's alternating Weyl sum, as
the signed pushforward under the shifted Weyl action, which the tests check
against a scan of the full table and against peeling off highest weights.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul

import numpy as np

from .errors import BasisMismatch, NegativeMultiplicity
from .linalg import bilinear
from .rootsys import (
    CartanType,
    IntVector,
    RootSystemData,
    build_root_system,
    casimir_eigenvalue,
    check_length,
    highest_weight,
    is_dominant,
    orbit,
    orbit_rows,
    orbit_sizes,
    sums_by_row,
    to_dominant,
    to_dominant_rows,
)

_BLOCK_ROWS = 2**16  # orbit points per block of racah_decompose: its arrays stay a few MB


class MultiplicityMap:
    """W-invariant character: weight (omega-coords) -> multiplicity.

    Treat instances as immutable.  A map holds its root system rs, its
    multiplicities at dominant weights and its total dimension, and expands
    them over W-orbits into entries on first read; len and repr count the
    orbit points by orbit_sizes.  NotDominant unless every weight of
    dominant is dominant and of the rank; ValueError unless every count is
    positive and sum_mu m(mu) |W mu| is total_dim.
    """

    def __init__(self, rs: RootSystemData, dominant: dict, total_dim: int):
        sizes = orbit_sizes(rs, dominant)
        for mu, m in dominant.items():
            if m <= 0:
                raise ValueError(f"multiplicity {m} at {mu} is not positive")
        total = sum(map(mul, dominant.values(), sizes))
        if total != total_dim:
            raise ValueError(f"multiplicity total {total} != dimension {total_dim}")
        self.rs = rs
        self.dominant = dominant
        self.total_dim = total_dim

    @cached_property
    def entries(self) -> dict:
        return {nu: m for mu, m in self.dominant.items() for nu in orbit(self.rs, mu)}

    def __len__(self) -> int:
        return sum(orbit_sizes(self.rs, self.dominant))

    def __getitem__(self, weight) -> int:
        return self.entries.get(tuple(weight), 0)

    def __repr__(self) -> str:
        return f"MultiplicityMap({len(self)} weights, total_dim={self.total_dim})"


@dataclass(eq=False)
class IrrepDecomposition:
    """Multiset of irreducible components: dominant weight -> multiplicity.

    dims, when set, maps each component to its Weyl dimension.
    """

    components: dict
    dims: dict | None = None

    def __getitem__(self, weight) -> int:
        return self.components.get(tuple(weight), 0)

    def __repr__(self) -> str:
        return f"IrrepDecomposition({len(self.components)} components)"


def _weyl_dim_rows(rs: RootSystemData):
    """Integer rows and denominator of Weyl's dimension formula.

    Row beta holds d_j k_j scale for beta = sum_j k_j alpha_j, so that
    (lam + rho, beta) scale = sum_j row_j (lam_j + 1), with scale the lcm of
    the symmetrizers' denominators; the denominator is prod_beta (rho, beta) scale.
    """
    scale = lcm(*(x.denominator for x in rs.d))
    dint = [x.numerator * (scale // x.denominator) for x in rs.d]
    rows = [[x * k for x, k in zip(dint, root)] for root in rs.positive_roots]
    return rows, prod(sum(row) for row in rows)


def _weyl_dim_from_rows(rows, den: int, lam) -> int:
    """prod_beta (lam + rho, beta) / (rho, beta) from _weyl_dim_rows, by one exact division."""
    lam_rho = [l + 1 for l in lam]
    num = prod(sum(r * x for r, x in zip(row, lam_rho)) for row in rows)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"Weyl dimension {Fraction(num, den)} is not an integer")
    return dim


def weyl_dim(rs: RootSystemData, lam) -> int:
    """Dimension of the irreducible with highest weight lam (Weyl formula).

    prod over positive roots beta of (lam + rho, beta) / (rho, beta), with
    every pairing scaled to an integer by the lcm of the symmetrizers' denominators
    and one exact division at the end.
    """
    return _weyl_dim_from_rows(*_weyl_dim_rows(rs), highest_weight(rs, lam))


def _dominant_weights(rs: RootSystemData, lam) -> list[IntVector]:
    """Dominant weights of V_lam by depth below lam: those reached from lam by
    positive-root steps that stay dominant (Stembridge, "The partial order of
    dominant weights", Adv. Math. 136, 1998)."""
    seen = {lam}
    stack = [lam]
    while stack:
        nu = stack.pop()
        for alpha in rs.positive_roots_omega:
            cand = tuple([x - a for x, a in zip(nu, alpha)])
            if min(cand) >= 0 and cand not in seen:
                seen.add(cand)
                stack.append(cand)
    height = _height_vector(rs)
    return sorted(seen, key=lambda mu: (sum(h * (l - x) for h, l, x in zip(height, lam, mu)), mu))


def freudenthal_multiplicities(rs: RootSystemData, lam) -> MultiplicityMap:
    """Full weight multiplicity map of the irreducible V_lam.

    Freudenthal recursion at the dominant weights, highest first; the
    W-orbits are expanded on first read of entries.  m(mu) sums the positive
    root strings above mu, read at dominant representatives; a string ends at
    the first one not yet found.
    """
    lam = highest_weight(rs, lam)
    dominant = _dominant_weights(rs, lam)
    lam_rho = tuple(x + 1 for x in lam)
    norm_top = bilinear(lam_rho, rs.gram_omega, lam_rho)
    mult_dom = {lam: 1}
    for mu in dominant[1:]:
        acc = Fraction(0)
        for alpha, vec in zip(rs.positive_roots_omega, rs.root_pair_vectors):
            nu = tuple(m + a for m, a in zip(mu, alpha))
            while (m_nu := mult_dom.get(to_dominant(rs, nu))) is not None:
                acc += m_nu * sum(n * v for n, v in zip(nu, vec))
                nu = tuple(n + a for n, a in zip(nu, alpha))
        mu_rho = tuple(x + 1 for x in mu)
        denom = norm_top - bilinear(mu_rho, rs.gram_omega, mu_rho)
        # denom > 0 for dominant mu strictly below lam
        m = 2 * acc / denom
        if m.denominator != 1:
            raise AssertionError(f"non-integer multiplicity {m} at {mu}")
        mult_dom[mu] = m.numerator
    return MultiplicityMap(rs, mult_dom, weyl_dim(rs, lam))


def check_character(rs: RootSystemData, m: MultiplicityMap) -> None:
    """BasisMismatch unless m is a character of rs's rank and Cartan type."""
    check_length(rs, m.rs.rank, "weight")
    if m.rs.cartan_type != rs.cartan_type:
        raise BasisMismatch(f"a character of {m.rs.cartan_type}, not of {rs.cartan_type}")


def _height_vector(rs: RootSystemData) -> IntVector:
    """Integer functional on omega-coords, positive on every simple root.

    It is the sum of simple-root coordinates (pairing with rho^vee), scaled by
    the least common denominator of C^-1 so that it is integral.
    """
    r = rs.rank
    sums = [sum(rs.C_inv[i][j] for i in range(r)) for j in range(r)]
    scale = lcm(*(x.denominator for x in sums))
    return tuple(int(x * scale) for x in sums)


def _miller_power(rs: RootSystemData, factors) -> MultiplicityMap:
    """Character of prod_l V_lam_l^(n_l) by Miller's power recurrence.

    factors is a list of (lam, character of V_lam, n).  Write g_l for the
    character of V_lam_l in the variable lam_l - weight: its constant term is
    1 and every other term has positive depth d, the height of lam_l - weight.
    With theta the Euler operator along d, Q = prod_l g_l^(n_l) satisfies
    theta(Q) = sum_l n_l theta(g_l) A_l with Q = g_l A_l, where A_l is the
    character with one copy of V_lam_l fewer.  Comparing coefficients at a
    weight nu of depth D > 0 below top = sum_l n_l lam_l gives

        D m(nu)           = sum_l n_l sum_(w != lam_l) d(lam_l - w) V_lam_l(w) A_l(nu - w)
        A_l(nu - lam_l)   = m(nu) - sum_(w != lam_l) V_lam_l(w) A_l(nu - w)

    where every nu - w lies higher in A_l than nu - lam_l, and the division
    by D is exact.  For one factor this is J.C.P. Miller's formula for powers
    of a power series (Knuth, TAOCP vol. 2, section 4.7); carrying the
    quotients A_l instead of multiplying through by prod_l g_l keeps the cost
    per weight at sum_l |supp V_lam_l| rather than the product.

    Q and every A_l are W-invariant, so the recurrence visits only the
    dominant weights nu below top, by depth: each is a weight of V_top, so
    none is zero.  A_l is kept at the dominant weights nu - lam_l of its own
    frame and read at to_dominant(nu - w), which lies no lower, so it was
    found earlier or is zero.  The result holds the dominant multiplicities;
    its W-orbits are expanded only if its entries are read.
    """
    factors = [(lam, base, n) for lam, base, n in factors if n]
    top = tuple(sum(n * lam[i] for lam, _, n in factors) for i in range(rs.rank))
    height = _height_vector(rs)
    # per factor: (lam_l, [(w, n d(lam_l - w) V_lam_l(w), V_lam_l(w)) for w != lam_l], A_l)
    steps = []
    for lam, base, n in factors:
        row = [
            (w, n * sum(h * (l - x) for h, l, x in zip(height, lam, w)) * c, c)
            for w, c in base.entries.items()
            if w != lam
        ]
        steps.append((lam, row, {}))
    mult_dom = {}
    for nu in _dominant_weights(rs, top):
        acc = 0
        subs = []
        for lam, row, quotient in steps:
            sub = 0
            for w, coeff, c in row:
                a = quotient.get(to_dominant(rs, [x - y for x, y in zip(nu, w)]))
                if a:
                    acc += coeff * a
                    sub += c * a
            subs.append(sub)
        depth = sum(h * (t - x) for h, t, x in zip(height, top, nu))
        # only top has depth 0; its multiplicity is 1
        m, rem = divmod(acc, depth) if depth else (1, 0)
        if rem:
            raise AssertionError(f"multiplicity sum {acc} at depth {depth} is not divisible by the depth")
        mult_dom[nu] = m
        for (lam, _, quotient), sub in zip(steps, subs):
            mu = tuple(x - y for x, y in zip(nu, lam))
            if is_dominant(mu):
                quotient[mu] = m - sub
    return MultiplicityMap(rs, mult_dom, prod(base.total_dim**n for _, base, n in factors))


def tensor_power_multiplicities(rs: RootSystemData, factors) -> MultiplicityMap:
    """Character of the tensor product of irreducible powers.

    factors is a list of (lam, n) pairs meaning V_lam tensored n times; this
    is tensor_power_table at N = 1 with each n as tau.
    """
    return tensor_power_table(rs, factors, [1])[1]


def tensor_power_table(rs: RootSystemData, factors, n_values) -> dict:
    """Characters of prod_l V_{lam_l}^(tau_l * N) for several N at once.

    factors is a list of (lam, tau) with rational tau; an N that is not an
    integer, or a tau_l * N that is not a nonnegative integer, raises
    ValueError.  The factor characters are computed once; each N then costs
    one run of Miller's power recurrence, linear in the number of dominant
    weights of V_N for fixed factors.  The maps hold
    dominant multiplicities and expand their W-orbits only when entries is
    read (ltl measure xi and the tests).
    """
    try:
        n_values = sorted({operator.index(n) for n in n_values})
    except TypeError:
        raise ValueError(f"N values {n_values!r} are not all integers") from None
    bases = []
    for lam, tau in factors:
        lam, tau = highest_weight(rs, lam), Fraction(tau)
        for n in n_values:
            e = tau * n
            if e.denominator != 1 or e < 0:
                raise ValueError(f"tau * N = {e} is not a nonnegative integer")
        bases.append((lam, tau, freudenthal_multiplicities(rs, lam)))
    return {
        n: _miller_power(rs, [(lam, base, (tau * n).numerator) for lam, tau, base in bases])
        for n in n_values
    }


def racah_decompose(rs: RootSystemData, m: MultiplicityMap) -> IrrepDecomposition:
    """Irreducible components of a W-invariant character, as its signed shifted pushforward.

    ch V A_rho = sum_nu m(nu) A_(nu + rho) (Humphreys, Introduction to Lie
    Algebras and Representation Theory, section 24), where A_x = 0 for x on a
    wall and sign(u) A_(u^-1 x) else: [V : V_lam] sums sign(u) m(nu) over the
    nu with to_dominant(nu + rho) = lam + rho.  The nu come by rootsys.orbit_rows
    from m.dominant, one zero pattern and at most _BLOCK_ROWS points at a time;
    x = nu + rho pairs with the positive roots by the rows of _weyl_dim_rows,
    to 0 on a wall and negatively with l(u) of them.  Negative counts, or
    components short of total_dim (their Weyl dimensions are kept in dims),
    mean the input was not a genuine character; a map of another rank or
    Cartan type raises BasisMismatch (check_character).
    """
    check_character(rs, m)
    rows, den = _weyl_dim_rows(rs)
    by_pattern = {}
    for (mu, c), size in zip(m.dominant.items(), orbit_sizes(rs, m.dominant)):
        by_pattern.setdefault(tuple([x > 0 for x in mu]), (size, []))[1].append((mu, c))
    lams, counts = np.zeros((0, rs.rank), dtype=np.int64), []
    for size, items in by_pattern.values():
        step = max(1, _BLOCK_ROWS // size)
        for a in range(0, len(items), step):
            block = items[a : a + step]
            x = orbit_rows(rs, [mu for mu, _ in block]).reshape(-1, rs.rank) + 1
            pairings = x @ np.array(rows, dtype=np.int64).T
            regular = (pairings != 0).all(axis=1)
            nums = np.tile(np.array([c for _, c in block], dtype=object), size)
            nums = np.where((pairings < 0).sum(axis=1) % 2, -nums, nums)[regular].tolist()
            keys = np.concatenate([lams, to_dominant_rows(rs, x[regular]) - 1])
            lams, counts = sums_by_row(keys, counts + nums)  # running sums: one block in memory at a time
    components = dict(zip(map(tuple, lams.tolist()), counts))
    if min(counts, default=0) < 0:
        raise NegativeMultiplicity(f"[V : V_mu] < 0 for mu in {[mu for mu, c in components.items() if c < 0]}")
    dims = {mu: _weyl_dim_from_rows(rows, den, mu) for mu in components}
    total = sum(c * dims[mu] for mu, c in components.items())
    if total != m.total_dim:
        raise NegativeMultiplicity(
            f"components account for dimension {total} of {m.total_dim}; input was not a character"
        )
    return IrrepDecomposition(components, dims)


def trace_identity_check(rs: RootSystemData, lam, t) -> tuple[Fraction, Fraction]:
    """Both sides of the quadratic trace identity for V_lam along direction t.

    t is a rational vector in simple-root coordinates.  Returns
    (sum_mu dim V_lam(mu) * (t, mu)^2,  (lam, lam+2rho) * dim V_lam / dim g * (t, t));
    the two are equal for every lam and t.
    """
    lam = tuple(lam)
    t = tuple(Fraction(x) for x in t)
    check_length(rs, len(t), "direction")
    m = freudenthal_multiplicities(rs, lam)
    lhs = Fraction(0)
    for mu, c in m.entries.items():
        pairing = sum(ti * di * xi for ti, di, xi in zip(t, rs.d, mu))
        lhs += c * pairing * pairing
    tt = bilinear(t, rs.Cbar, t)
    rhs = casimir_eigenvalue(rs, lam) * Fraction(m.total_dim, rs.dim_g) * tt
    return lhs, rhs


def save_multiplicity_map(m: MultiplicityMap, path) -> None:
    """Write a map as JSON: its Cartan type, dominant weights as integer arrays, counts as decimal strings.

    The document goes to a temporary file beside path that then replaces
    path, so a reader sees the old file or the whole new one, never a part.
    """
    items = sorted(m.dominant.items())
    doc = {
        "cartan_type": str(m.rs.cartan_type),
        "weights": [list(w) for w, _ in items],
        "multiplicities": [str(c) for _, c in items],
        "total_dim": str(m.total_dim),
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_multiplicity_map(path) -> MultiplicityMap:
    """The map save_multiplicity_map wrote to path, W-invariant under its stored type.

    It holds the stored dominant multiplicities and expands their W-orbits
    only when entries is read.  A bad file raises ValueError (among them a
    weight coordinate that is not a JSON integer, a count that is not
    positive and a total that sum_mu m(mu) |W mu| does not match),
    UnsupportedType, WeylCapExceeded or NotDominant at load time."""
    with open(path) as fh:
        doc = json.load(fh)
    rs = build_root_system(CartanType.parse(doc["cartan_type"]))
    dominant = {}
    for w, c in zip(doc["weights"], doc["multiplicities"], strict=True):
        if any(type(x) is not int for x in w):
            raise ValueError(f"weight {w} has a coordinate that is not an integer")
        dominant[tuple(w)] = int(c)
    return MultiplicityMap(rs, dominant, int(doc["total_dim"]))
