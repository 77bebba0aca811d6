"""Independent slow oracles used by the test suite.

These deliberately avoid the algorithms under test: characters come from
exact division of Weyl alternants, products of characters from the plain
convolution sum, decompositions from peeling off highest weights or from
Racah's sum over the full weight table with enumerated Weyl elements, rank-1
tensor powers from the ballot closed form, dominant weights by a search
along positive roots, and the moments, the characteristic function and the
binned TV of a measure from sums over its atoms.  Convolution and peel-off work on full entries as plain dicts;
character_map turns a W-invariant dict into a MultiplicityMap.
"""

import itertools
import math
from fractions import Fraction
from math import comb, lcm

import numpy as np

from tensorlimits.errors import NegativeMultiplicity
from tensorlimits.linalg import bilinear
from tensorlimits.repchar import IrrepDecomposition, MultiplicityMap, freudenthal_multiplicities, weyl_dim
from tensorlimits.rootsys import is_dominant


def character_by_weyl_formula(rs, lam) -> dict:
    """Weight multiplicities of V_lam by dividing alternants A_{lam+rho}/A_rho.

    Works in the group algebra of the weight lattice with dict terms; division
    proceeds by repeatedly cancelling the maximal term in the (mu, rho) order,
    which strictly decreases, so it terminates.  Exact integers throughout.
    """

    def alternant(v):
        out = {}
        for w in rs.weyl:
            key = w.apply(v)
            out[key] = out.get(key, 0) + w.sign
        return out

    def order_key(mu):
        return (bilinear(mu, rs.gram_omega, rs.rho), mu)

    num = alternant(tuple(x + 1 for x in lam))
    den = alternant(rs.rho)
    assert den.get(rs.rho) == 1
    quotient: dict = {}
    rem = dict(num)
    while rem:
        top = max(rem, key=order_key)
        coeff = rem[top]
        q = tuple(t - r for t, r in zip(top, rs.rho))
        quotient[q] = quotient.get(q, 0) + coeff
        for k, c in den.items():
            key = tuple(qi + ki for qi, ki in zip(q, k))
            left = rem.get(key, 0) - coeff * c
            if left:
                rem[key] = left
            else:
                rem.pop(key, None)
    assert all(c > 0 for c in quotient.values())
    return quotient


def character_map(rs, entries: dict) -> MultiplicityMap:
    """The MultiplicityMap of rs with the dominant part of entries, or ValueError
    unless its orbit expansion gives back entries weight for weight (entries
    is not W-invariant, or holds a zero count)."""
    m = MultiplicityMap(rs, {mu: c for mu, c in entries.items() if is_dominant(mu)}, sum(entries.values()))
    if m.entries != entries:
        raise ValueError("entries are not the orbit expansion of their dominant part")
    return m


def convolve(a: dict, b: dict) -> dict:
    """Product of characters given as full entries: out[nu] = sum_mu a[mu] * b[nu - mu]."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            key = tuple(x + y for x, y in zip(wa, wb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _height_vector(rs):
    """Integer functional on omega-coords, positive on every simple root.

    It is the sum of simple-root coordinates (pairing with rho^vee), scaled by
    the least common denominator of C^-1 so that it is integral.
    """
    r = rs.rank
    sums = [sum(rs.C_inv[i][j] for i in range(r)) for j in range(r)]
    scale = lcm(*(x.denominator for x in sums))
    return tuple(int(x * scale) for x in sums)


def dominant_weights_dfs(rs, lam) -> list:
    """Dominant weights of V_lam by depth below lam: those reached from lam by
    positive-root steps that stay dominant (Stembridge, "The partial order of
    dominant weights", Adv. Math. 136, 1998).  The reference for
    repchar._dominant_weights, which enumerates them coordinate by coordinate."""
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


def peel_off_decompose(rs, entries: dict) -> IrrepDecomposition:
    """Decompose full entries, W-invariant or not, by peeling the highest dominant weight.

    Independent of racah_decompose: the dominant weight of maximal height
    (mu, rho) in the remaining support is a highest weight; subtract its full
    multiplicity map and recurse.
    """
    rho_pairing = [sum(row) for row in rs.gram_omega]  # (omega_i, rho), rho = (1, ..., 1)
    scale = lcm(*(x.denominator for x in rho_pairing))
    height_vec = [int(x * scale) for x in rho_pairing]
    work = dict(entries)
    components: dict = {}
    irrep_cache: dict = {}
    while work:
        best = None
        best_height = None
        for mu in work:
            if is_dominant(mu):
                h = sum(hv * x for hv, x in zip(height_vec, mu))
                if best is None or (h, mu) > (best_height, best):
                    best, best_height = mu, h
        if best is None:
            raise NegativeMultiplicity(f"no dominant weight left in nonempty support {sorted(work)[:3]}...")
        c = work[best]
        if c < 0:
            raise NegativeMultiplicity(f"multiplicity {c} at {best}")
        if best not in irrep_cache:
            irrep_cache[best] = freudenthal_multiplicities(rs, best)
        for nu, cnt in irrep_cache[best].entries.items():
            rem = work.get(nu, 0) - c * cnt
            if rem < 0:
                raise NegativeMultiplicity(f"oversubtraction at {nu}")
            if rem:
                work[nu] = rem
            else:
                work.pop(nu, None)
        components[best] = c
    return IrrepDecomposition(components)


def racah_full_scan(rs, m: MultiplicityMap) -> IrrepDecomposition:
    """Cross-check of racah_decompose: Racah's alternating sum read off the full entries.

    Scans every weight of the expanded table for dominant ones and reads
    m(mu + rho - w rho) at the shifted weight itself, with w and sign(w) from
    the enumerated Weyl group, so it needs no W-invariance, no to_dominant and
    no orbit walk.  Dimensions come from weyl_dim.
    """
    entries = m.entries
    shifts = [(w.sign, tuple(r - x for r, x in zip(rs.rho, w.apply(rs.rho)))) for w in rs.weyl]
    components = {}
    for mu in entries:
        if not is_dominant(mu):
            continue
        c = sum(sign * entries.get(tuple(x + d for x, d in zip(mu, delta)), 0) for sign, delta in shifts)
        if c < 0:
            raise NegativeMultiplicity(f"[V : V_{mu}] = {c}")
        if c:
            components[mu] = c
    dims = {mu: weyl_dim(rs, mu) for mu in components}
    if sum(c * dims[mu] for mu, c in components.items()) != m.total_dim:
        raise NegativeMultiplicity("components do not account for total_dim")
    return IrrepDecomposition(components, dims)


def sl2_power_components(n: int) -> dict:
    """[V^(tensor n) : V_k] for the 2-dim irreducible of A1, by ballot counts."""
    out = {}
    for k in range(n % 2, n + 1, 2):
        down = (n - k) // 2
        c = comb(n, down) - (comb(n, down - 1) if down >= 1 else 0)
        if c:
            out[(k,)] = c
    return out


def second_moment_direct(entries: dict, pair_vec) -> Fraction:
    """Sum of mult * (t, mu)^2 with a precomputed pairing vector for t."""
    acc = Fraction(0)
    for mu, c in entries.items():
        p = sum(v * x for v, x in zip(pair_vec, mu))
        acc += c * p * p
    return acc


def mixed_moments(measure, max_order: int) -> dict:
    """Raw moments of a scaled DiscreteMeasure by summing over its atoms.

    Even total orders are exact Fractions; odd ones are floats, through the
    same expression as measures.mixed_moments.
    """
    if max_order > 6:
        raise ValueError("moments above order 6 are not supported")
    out: dict = {}
    scale_sq = measure.scale_sq
    for kappa in itertools.product(range(max_order + 1), repeat=measure.rank):
        order = sum(kappa)
        if order > max_order:
            continue
        raw = Fraction(0)
        for w, p in measure.atoms:
            term = p
            for x, k in zip(w, kappa):
                for _ in range(k):
                    term *= x
            raw += term
        if order % 2 == 0:
            out[kappa] = raw / scale_sq ** (order // 2)
        else:
            out[kappa] = float(raw) / float(scale_sq) ** (order / 2)
    return out


def char_fn_atoms(rs, measure, t_grid):
    """phi of a scaled DiscreteMeasure at every t of the grid, by summing over its atoms.

    t in simple-root coordinates, as for convergence.char_fn_xi.
    """
    t_arr = np.asarray(list(t_grid), dtype=float)
    if t_arr.ndim == 1:
        t_arr = t_arr[:, None]
    weights = np.array([[float(x) for x in w] for w, _ in measure.atoms])
    probs = np.array([float(p) for _, p in measure.atoms])
    dvec = np.array([float(x) for x in rs.d])
    thetas = weights @ (t_arr * dvec).T / measure.scale
    return (probs[None, :] @ np.exp(1j * thetas)).ravel()


def boxes_tv(measure, boxes) -> float:
    """Binned TV of convergence._boxes_tv, binning and summing one atom at a time.

    Each atom's box index is floor((float(w_i) / scale - lo_i) / width_i) per
    axis, its mass is added as a Fraction, and every box mass becomes a float
    only when it is compared with the density's mass, box by box in sorted order.
    """
    rank = len(boxes.lo)
    box_mass: dict = {}
    tail_mass = Fraction(0)
    scale = measure.scale
    for w, p in measure.atoms:
        if p == 0:
            continue
        idx = []
        inside = True
        for i in range(rank):
            x = float(w[i]) / scale
            k = int(math.floor((x - boxes.lo[i]) / boxes.width[i]))
            if k < 0 or k >= boxes.bins:
                inside = False
                break
            idx.append(k)
        if inside:
            key = tuple(idx)
            box_mass[key] = box_mass.get(key, Fraction(0)) + p
        else:
            tail_mass += p
    q = boxes.q
    distance = 0.0
    seen = np.zeros_like(q, dtype=bool)
    for key in sorted(box_mass):
        distance += abs(float(box_mass[key]) - float(q[key]))
        seen[key] = True
    distance += float(q[~seen].sum())
    distance += float(tail_mass) + boxes.q_tail
    return 0.5 * distance
