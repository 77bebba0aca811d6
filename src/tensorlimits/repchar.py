"""Exact weight multiplicities of irreducibles, tensor powers, and decompositions.

A character is stored as a MultiplicityMap: a sparse dict from weights
(omega-coords) to arbitrary-precision multiplicities.  Both recurrences run
on dominant weights alone, reading W-invariant values through the integer
kernel rootsys.to_dominant, and expand the result over W-orbits once by
rootsys.orbit with a check of the total dimension.  Characters of
irreducibles come from the Freudenthal recursion; characters of tensor
powers prod_l V_lam_l^(n_l) from Miller's power recurrence, which finds each
multiplicity from higher ones by one exact integer division, at a cost per
dominant weight of the support sizes of the factors.
It is the only product of characters the package computes; the test suite
checks it against plain convolution of the factor characters
(tests/oracles.py).  Characters are split into irreducibles by Racah's
alternating Weyl sum, which the tests check against peeling off highest
weights.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from .errors import NegativeMultiplicity
from .linalg import bilinear
from .rootsys import (
    IntVector,
    RootSystemData,
    casimir_eigenvalue,
    check_length,
    highest_weight,
    is_dominant,
    orbit,
    to_dominant,
)


@dataclass(eq=False)
class MultiplicityMap:
    """Sparse character: weight (omega-coords) -> multiplicity.

    Treat instances as immutable; total_dim caches the sum of all entries.
    """

    entries: dict
    total_dim: int = field(default=None)

    def __post_init__(self):
        if self.total_dim is None:
            self.total_dim = sum(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, weight) -> int:
        return self.entries.get(tuple(weight), 0)

    def __repr__(self) -> str:
        return f"MultiplicityMap({len(self.entries)} weights, total_dim={self.total_dim})"


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


def unit_map(rank: int) -> MultiplicityMap:
    """Character of the trivial representation."""
    return MultiplicityMap({(0,) * rank: 1}, 1)


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

    Freudenthal recursion at the dominant weights, highest first, expanded
    over their W-orbits.  m(mu) sums the positive root strings above mu, read
    at dominant representatives; a string ends at the first one not yet found.
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
    return _expand_orbits(rs, mult_dom, weyl_dim(rs, lam))


def _expand_orbits(rs: RootSystemData, mult_dom: dict, expected: int) -> MultiplicityMap:
    """The W-invariant character with multiplicities mult_dom at its dominant
    weights, checked to have total dimension expected."""
    entries = {nu: m for mu, m in mult_dom.items() for nu in orbit(rs, mu)}
    total = sum(entries.values())
    if total != expected:
        raise AssertionError(f"multiplicity total {total} != dimension {expected}")
    return MultiplicityMap(entries, total)


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
    found earlier or is zero.  The result is expanded over W-orbits once.
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
    return _expand_orbits(rs, mult_dom, prod(base.total_dim**n for _, base, n in factors))


def tensor_power_multiplicities(rs: RootSystemData, factors) -> MultiplicityMap:
    """Character of the tensor product of irreducible powers.

    factors is a list of (lam, n) pairs meaning V_lam tensored n times; this
    is tensor_power_table at N = 1 with each n as tau.
    """
    return tensor_power_table(rs, factors, [1])[1]


def tensor_power_table(rs: RootSystemData, factors, n_values) -> dict:
    """Characters of prod_l V_{lam_l}^(tau_l * N) for several N at once.

    factors is a list of (lam, tau) with rational tau; a tau_l * N that is not
    a nonnegative integer raises ValueError.  The factor characters are computed
    once; each N then costs one run of Miller's power recurrence, linear in
    the number of dominant weights of V_N for fixed factors, plus one
    expansion over their W-orbits.
    """
    n_values = sorted(set(int(n) for n in n_values))
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
    """Irreducible components of a character by alternating Weyl sums.

    [V : V_mu] = sum over w of sign(w) * m(mu + rho - w rho), evaluated at
    every dominant weight in the support.  The shifts rho - v come from the
    orbit v = w rho of rho, with sign(w) = (-1)^#{beta > 0 : (v, beta) < 0},
    the pairings read from the integer rows of Weyl's dimension formula.
    Negative counts mean the input was not a genuine character.  The Weyl
    dimensions of the dimension check are kept in the result's dims.
    """
    rows, den = _weyl_dim_rows(rs)
    deltas = []
    for v in orbit(rs, rs.rho):
        negative = sum(1 for row in rows if sum(r * x for r, x in zip(row, v)) < 0)
        deltas.append((-1 if negative % 2 else 1, tuple(1 - x for x in v)))
    entries = m.entries
    components = {}
    for mu in entries:
        if not is_dominant(mu):
            continue
        c = 0
        for sign, delta in deltas:
            val = entries.get(tuple(x + d for x, d in zip(mu, delta)))
            if val:
                c += sign * val
        if c < 0:
            raise NegativeMultiplicity(f"[V : V_{mu}] = {c}")
        if c:
            components[mu] = c
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
    """Write a map as JSON: weights as integer arrays, counts as decimal strings.

    The document goes to a temporary file beside path that then replaces
    path, so a reader sees the old file or the whole new one, never a part.
    """
    items = sorted(m.entries.items())
    doc = {
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
    with open(path) as fh:
        doc = json.load(fh)
    entries = {
        tuple(int(x) for x in w): int(c)
        for w, c in zip(doc["weights"], doc["multiplicities"])
    }
    return MultiplicityMap(entries, int(doc["total_dim"]))
