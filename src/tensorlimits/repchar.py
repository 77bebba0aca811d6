"""Exact weight multiplicities of irreducibles, tensor powers, and decompositions.

A character is stored as a MultiplicityMap: a sparse dict from weights
(omega-coords) to arbitrary-precision multiplicities.  Characters of
irreducibles come from the Freudenthal recursion; characters of tensor powers
prod_l V_lam_l^(n_l) from Miller's power recurrence, which finds each
multiplicity from higher ones by one exact integer division, at a cost per
weight of the support sizes of the factors.  It is the only product of
characters the package computes; the test suite checks it against plain
convolution of the factor characters (tests/oracles.py).  Characters are
split into irreducibles by Racah's alternating Weyl sum, which the tests
check against peeling off highest weights.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from .errors import NegativeMultiplicity, NotDominant
from .linalg import bilinear
from .rootsys import IntVector, RootSystemData, casimir_eigenvalue, is_dominant, to_dominant


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


def weyl_dim(rs: RootSystemData, lam) -> int:
    """Dimension of the irreducible with highest weight lam (Weyl formula).

    prod over positive roots beta of (lam + rho, beta) / (rho, beta), with
    every pairing scaled to an integer by the lcm of the symmetrizers' denominators
    and one exact division at the end.
    """
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant")
    scale = lcm(*(x.denominator for x in rs.d))
    dint = [x.numerator * (scale // x.denominator) for x in rs.d]
    lam_rho = [(l + 1) * x for l, x in zip(lam, dint)]
    num = den = 1
    for root in rs.positive_roots:
        num *= sum(a * k for a, k in zip(lam_rho, root))
        den *= sum(x * k for x, k in zip(dint, root))
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"Weyl dimension {Fraction(num, den)} is not an integer")
    return dim


def _weight_support(rs: RootSystemData, lam) -> list[list[IntVector]]:
    """Weights of V_lam grouped by depth below lam in the root lattice.

    A vector nu in lam + Q is a weight iff its dominant representative is
    below lam, i.e. lam - dominant(nu) is a nonnegative integer combination
    of simple roots.  The levels are generated by subtracting simple roots.
    """
    r = rs.rank
    simple_omega = [tuple(rs.C[j][i] for j in range(r)) for i in range(r)]

    def admissible(nu) -> bool:
        dom = to_dominant(rs, nu)
        diff = tuple(l - x for l, x in zip(lam, dom))
        for row in rs.C_inv:
            coord = sum(c * x for c, x in zip(row, diff))
            if coord.denominator != 1 or coord < 0:
                return False
        return True

    levels = [[tuple(lam)]]
    seen = {tuple(lam)}
    current = levels[0]
    while True:
        nxt = set()
        for nu in current:
            for alpha in simple_omega:
                cand = tuple(x - a for x, a in zip(nu, alpha))
                if cand in seen:
                    continue
                seen.add(cand)
                if admissible(cand):
                    nxt.add(cand)
        if not nxt:
            return levels
        current = sorted(nxt)
        levels.append(current)


def freudenthal_multiplicities(rs: RootSystemData, lam) -> MultiplicityMap:
    """Full weight multiplicity map of the irreducible V_lam.

    Freudenthal recursion, evaluated only at dominant weights and spread over
    Weyl orbits: m(mu) is determined level by level from the weights above mu
    along positive root strings.
    """
    lam = tuple(lam)
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant")
    levels = _weight_support(rs, lam)
    support = {nu for level in levels for nu in level}
    lam_rho = tuple(x + 1 for x in lam)
    norm_top = bilinear(lam_rho, rs.gram_omega, lam_rho)
    mult_dom = {lam: 1}
    for level in levels[1:]:
        for mu in level:
            if not is_dominant(mu):
                continue
            acc = Fraction(0)
            for alpha, vec in zip(rs.positive_roots_omega, rs.root_pair_vectors):
                nu = tuple(m + a for m, a in zip(mu, alpha))
                while nu in support:
                    pairing = sum(n * v for n, v in zip(nu, vec))
                    acc += mult_dom[to_dominant(rs, nu)] * pairing
                    nu = tuple(n + a for n, a in zip(nu, alpha))
            mu_rho = tuple(x + 1 for x in mu)
            denom = norm_top - bilinear(mu_rho, rs.gram_omega, mu_rho)
            # denom > 0 for dominant mu strictly below lam
            m = 2 * acc / denom
            if m.denominator != 1:
                raise AssertionError(f"non-integer multiplicity {m} at {mu}")
            mult_dom[mu] = m.numerator
    entries = {nu: mult_dom[to_dominant(rs, nu)] for nu in support}
    total = sum(entries.values())
    expected = weyl_dim(rs, lam)
    if total != expected:
        raise AssertionError(f"multiplicity total {total} != dim {expected}")
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
    character with one copy of V_lam_l fewer.  Index the coefficients m of Q
    and a_l of A_l by the weight of the tensor product at the same offset
    from its top weight; comparing them at a weight nu of depth D > 0 gives

        D m(nu)  = sum_l n_l sum_(gamma != 0) d(gamma) g_l[gamma] a_l(nu + gamma)
        a_l(nu)  = m(nu) - sum_(gamma != 0) g_l[gamma] a_l(nu + gamma)

    where every nu + gamma lies higher, and the division by D is exact.  For
    one factor this is J.C.P. Miller's formula for powers of a power series
    (Knuth, TAOCP vol. 2, section 4.7); carrying the quotients A_l instead of
    multiplying through by prod_l g_l keeps the cost per weight at
    sum_l |supp V_lam_l| rather than the product.  Weights are visited level
    by level from the top; a candidate whose multiplicity is zero lies outside
    the support and spawns no further candidates.
    """
    factors = [(lam, base, n) for lam, base, n in factors if n]
    height = _height_vector(rs)
    r = rs.rank
    # The support lies in the box sum_l n_l [min, max] of each coordinate over
    # V_lam_l.  Candidates lie within one factor's coordinate range of it and
    # their lookups within two, so padding the box by twice the widest range
    # gives every weight the recurrence touches its own mixed-radix code.
    top, lo, hi, pad = [0] * r, [0] * r, [0] * r, [0] * r
    expected = 1
    for lam, base, n in factors:
        expected *= base.total_dim**n
        for i in range(r):
            coords = [w[i] for w in base.entries]
            top[i] += n * lam[i]
            lo[i] += n * min(coords)
            hi[i] += n * max(coords)
            pad[i] = max(pad[i], max(coords) - min(coords))
    origin = [x - 2 * p for x, p in zip(lo, pad)]
    widths = [h - x + 4 * p + 1 for h, x, p in zip(hi, lo, pad)]
    strides = [prod(widths[:i]) for i in range(r)]

    def code(v) -> int:
        return sum(x * s for x, s in zip(v, strides))

    # per factor: (code(gamma), n d(gamma) g_l[gamma], g_l[gamma]) for gamma != 0
    steps = []
    offsets = {}
    for lam, base, n in factors:
        row = []
        for w, c in base.entries.items():
            delta = tuple(a - b for a, b in zip(lam, w))
            if any(delta):
                d = sum(h * x for h, x in zip(height, delta))
                row.append((code(delta), n * d * c, c))
                offsets[code(delta)] = d
        steps.append(row)

    start = code([t - o for t, o in zip(top, origin)])
    mults = {start: 1}
    quotients = {start: (1,) * len(steps)}
    levels: dict = {}
    for g, d in offsets.items():
        levels.setdefault(d, set()).add(start - g)
    while levels:
        level = min(levels)
        for nu in levels.pop(level):
            acc = 0
            subs = []
            for l, row in enumerate(steps):
                sub = 0
                for g, coeff, c in row:
                    q = quotients.get(nu + g)
                    if q:
                        acc += coeff * q[l]
                        sub += c * q[l]
                subs.append(sub)
            m, rem = divmod(acc, level)
            if rem:
                raise AssertionError(f"multiplicity sum {acc} at depth {level} is not divisible by the depth")
            if m:
                mults[nu] = m
                quotients[nu] = tuple(m - sub for sub in subs)
                for g, d in offsets.items():
                    levels.setdefault(level + d, set()).add(nu - g)
    entries = {}
    for k, m in mults.items():
        w = []
        for width, o in zip(widths, origin):
            k, x = divmod(k, width)
            w.append(x + o)
        entries[tuple(w)] = m
    total = sum(entries.values())
    if total != expected:
        raise AssertionError(f"multiplicity total {total} != product of dimensions {expected}")
    return MultiplicityMap(entries, total)


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
    the size of its support for fixed factors.
    """
    n_values = sorted(set(int(n) for n in n_values))
    bases = []
    for lam, tau in factors:
        lam, tau = tuple(lam), Fraction(tau)
        if not is_dominant(lam):
            raise NotDominant(f"{lam} is not dominant")
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
    every dominant weight in the support.  Negative counts mean the input was
    not a genuine character.  The Weyl dimensions of the dimension check are
    kept in the result's dims.
    """
    deltas = [
        (w.sign, tuple(1 - x for x in w.apply(rs.rho)))
        for w in rs.weyl
    ]
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
    dims = {mu: weyl_dim(rs, mu) for mu in components}
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
            json.dump(doc, fh)
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
