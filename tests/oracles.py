"""Independent slow oracles used by the test suite.

These deliberately avoid the algorithms under test: characters come from
exact division of Weyl alternants or from the Freudenthal recursion, products
of characters from the plain convolution sum, decompositions from peeling off highest weights, from
Racah's sum over the full weight table with enumerated Weyl elements or from
Racah's sum as the signed pushforward over every W-orbit point, rank-1
tensor powers from the ballot closed form, dominant weights by a search
along positive roots, W-orbits and dominant points one scalar reflection at
a time (orbit, and to_dominant, the reference for rootsys.to_dominant_rows), and
the moments, the characteristic function and the
binned TV of a measure from sums over its atoms.  xi is read off the sorted
full entries of its character, and a measure's CSV and JSON rows are reduced
by one gcd per atom.  Convolution and peel-off work on full entries as plain dicts;
character_map turns a W-invariant dict into a MultiplicityMap, and mat_vec
gives a root's omega-coords as C @ root.  cache_parts, cache_file and
edit_cache_body take a cache file apart and put edited parts back together, for
the loader's tests.
"""

import hashlib
import itertools
import json
import math
from fractions import Fraction
from math import comb, lcm

import numpy as np

from tensorlimits import repchar
from tensorlimits.errors import NegativeMultiplicity
from tensorlimits.linalg import bilinear
from tensorlimits.measures import DiscreteMeasure, sigma_squared
from tensorlimits.repchar import IrrepDecomposition, MultiplicityMap, _dominant_weights, weyl_dim
from tensorlimits.rootsys import (
    IntVector,
    _weyl_walk,
    check_length,
    highest_weight,
    is_dominant,
    orbit_rows,
    check_length,
    scaled_norm,
    sums_by_row,
    to_dominant_rows,
)


def mat_vec(a, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def to_dominant(rs, mu) -> IntVector:
    """Dominant representative of the W-orbit of mu (ordinary, unshifted action).

    A weight whose length is not the rank raises BasisMismatch.
    """
    v = list(mu)
    c = rs.C
    check_length(rs, len(v), "weight")
    indices = range(len(c))
    while True:
        for i in indices:
            if v[i] < 0:
                break
        else:
            return tuple(v)
        vi = v[i]
        for j in indices:
            v[j] -= c[j][i] * vi


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


def freudenthal_multiplicities(rs, lam) -> MultiplicityMap:
    """Full weight multiplicity map of the irreducible V_lam.

    Freudenthal recursion at the dominant weights, highest first.  m(mu) sums the positive
    root strings above mu, read at dominant representatives; a string ends at
    the first one not yet found.  With the pairings (nu, beta) s = row_beta . nu
    of rs.pairing_rows summed as acc and N = scaled_norm = s^2 (b_g / 2) (x, x),
    ((lam + rho)^2 - (mu + rho)^2) m(mu) = 2 sum m(nu) (nu, beta) reads
    m(mu) = acc s b_g / (N(lam + rho) - N(mu + rho)): one exact integer division.
    The reference for repchar.irreducible_character, which reads Racah's recursion.
    """
    lam = highest_weight(rs, lam)
    dominant = list(map(tuple, _dominant_weights(rs, lam)[0].tolist()))
    scale = rs.pairing_scale * rs.b_g
    norm_top = scaled_norm(rs, [x + 1 for x in lam])
    roots_omega = [mat_vec(rs.C, root) for root in rs.positive_roots]
    mult_dom = {lam: 1}
    for mu in dominant[1:]:
        acc = 0
        for alpha, row in zip(roots_omega, rs.pairing_rows):
            nu = tuple(m + a for m, a in zip(mu, alpha))
            while (m_nu := mult_dom.get(to_dominant(rs, nu))) is not None:
                acc += m_nu * sum(n * r for n, r in zip(nu, row))
                nu = tuple(n + a for n, a in zip(nu, alpha))
        # N(lam + rho) - N(mu + rho) > 0 for dominant mu strictly below lam
        num, den = acc * scale, norm_top - scaled_norm(rs, [x + 1 for x in mu])
        m, rem = divmod(num, den)
        if rem:
            raise AssertionError(f"non-integer multiplicity {Fraction(num, den)} at {mu}")
        mult_dom[mu] = m
    return MultiplicityMap(rs, list(mult_dom), list(mult_dom.values()), weyl_dim(rs, lam))


def orbit(rs, lam) -> set:
    """W-orbit of the dominant weight lam, as a set of integer tuples: the walk of lam's
    zero pattern replayed on lam one scalar reflection at a time (the lemma of
    rootsys._weyl_walk).  NotDominant for a weight that is not dominant or not of the rank."""
    lam = highest_weight(rs, lam)
    c = rs.C
    _, steps, _ = _weyl_walk(c, tuple([int(x > 0) for x in lam]))
    images = [lam]
    for parent, i in steps:
        v = images[parent]
        vi = v[i]
        images.append(tuple([x - row[i] * vi for x, row in zip(v, c)]))
    return set(images)


def character_map(rs, entries: dict) -> MultiplicityMap:
    """The MultiplicityMap of rs with the dominant part of entries, or ValueError
    unless its orbit expansion gives back entries weight for weight (entries
    is not W-invariant, or holds a zero count)."""
    d = {mu: c for mu, c in entries.items() if is_dominant(mu)}
    m = MultiplicityMap(rs, list(d), list(d.values()), sum(entries.values()))
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
        for root in rs.positive_roots:
            cand = tuple([x - a for x, a in zip(nu, mat_vec(rs.C, root))])
            if min(cand) >= 0 and cand not in seen:
                seen.add(cand)
                stack.append(cand)
    height = _height_vector(rs)
    return sorted(seen, key=lambda mu: (sum(h * (l - x) for h, l, x in zip(height, lam, mu)), mu))


def decomposition_of(rs, components: dict) -> IrrepDecomposition:
    """The IrrepDecomposition of {dominant weight: multiplicity}: its rows in lexicographic
    order, each dimension by weyl_dim."""
    lams = sorted(components)
    rows = np.array(lams, dtype=np.int64).reshape(-1, rs.rank)
    return IrrepDecomposition(rows, [components[mu] for mu in lams], [weyl_dim(rs, mu) for mu in lams])


def fields(dec: IrrepDecomposition) -> tuple:
    """(rows as lists, counts, dims) of a decomposition, to compare two of them field by field."""
    return dec.rows.tolist(), dec.counts, dec.dims


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
    return decomposition_of(rs, components)


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
    dec = decomposition_of(rs, components)
    if sum(c * d for c, d in zip(dec.counts, dec.dims)) != m.total_dim:
        raise NegativeMultiplicity("components do not account for total_dim")
    return dec


def racah_pushforward(rs, m: MultiplicityMap) -> IrrepDecomposition:
    """Cross-check of racah_decompose: Racah's sum as the signed pushforward under the shifted Weyl action.

    ch V A_rho = sum_nu m(nu) A_(nu + rho) (Humphreys, Introduction to Lie
    Algebras and Representation Theory, section 24), where A_x = 0 for x on a
    wall and sign(u) A_(u^-1 x) else: [V : V_lam] sums sign(u) m(nu) over the
    nu with to_dominant(nu + rho) = lam + rho.  The nu come by rootsys.orbit_rows
    from m.dominant, one zero pattern and at most repchar._BLOCK_ROWS points at a
    time; x = nu + rho pairs with the positive roots by rs.pairing_rows, to 0 on
    a wall and negatively with l(u) of them.  It walks every orbit point where
    racah_decompose reads |W| shifts at each dominant weight, so the two share
    only to_dominant_rows and the checks; its dimensions come from weyl_dim.
    """
    rows = np.array(rs.pairing_rows, dtype=np.int64)
    by_pattern = {}
    for (mu, c), size in zip(m.dominant.items(), m.sizes):
        by_pattern.setdefault(tuple([x > 0 for x in mu]), (size, []))[1].append((mu, c))
    lams, counts = np.zeros((0, rs.rank), dtype=np.int64), []
    for size, items in by_pattern.values():
        step = max(1, repchar._BLOCK_ROWS // size)
        for a in range(0, len(items), step):
            block = items[a : a + step]
            x = orbit_rows(rs, [mu for mu, _ in block]).reshape(-1, rs.rank) + 1
            pairings = x @ rows.T
            regular = (pairings != 0).all(axis=1)
            nums = np.tile(np.array([c for _, c in block], dtype=object), size)
            nums = np.where((pairings < 0).sum(axis=1) % 2, -nums, nums)[regular].tolist()
            keys = np.concatenate([lams, to_dominant_rows(rs, x[regular]) - 1])
            lams, counts = sums_by_row(keys, counts + nums)  # running sums: one block in memory at a time
    dec = decomposition_of(rs, dict(zip(map(tuple, lams.tolist()), counts)))
    if min(counts, default=0) < 0:
        raise NegativeMultiplicity(f"[V : V_mu] < 0 for mu in {[mu for mu, c in dec.components.items() if c < 0]}")
    total = sum(c * d for c, d in zip(dec.counts, dec.dims))
    if total != m.total_dim:
        raise NegativeMultiplicity(
            f"components account for dimension {total} of {m.total_dim}; input was not a character"
        )
    return dec


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


def xi_from_entries(spec, N: int, m: MultiplicityMap) -> DiscreteMeasure:
    """xi(N) from the character m of V_N: one atom per weight of its full entries,
    an orbit walk per dominant weight, in sorted order, over dim V_N."""
    weights = sorted(m.entries)
    nums = [m.entries[w] for w in weights]
    return DiscreteMeasure._exact(np.array(weights, dtype=np.int64), nums, m.total_dim, sigma_squared(spec), N)


def _reduced_atoms(measure):
    """(weight list, numerator, denominator) per atom, reduced by one gcd each."""
    for w, n in zip(measure.weights.tolist(), measure.nums):
        g = math.gcd(n, measure.den)
        yield w, n // g, measure.den // g


def measure_csv(measure) -> str:
    """measures.measure_to_csv one atom and one gcd at a time."""
    header = ",".join(f"weight_{i+1}" for i in range(measure.rank)) + ",numerator,denominator"
    lines = [header]
    for w, n, d in _reduced_atoms(measure):
        lines.append(",".join(str(x) for x in w) + f",{n},{d}")
    return "\n".join(lines) + "\n"


def measure_json(measure) -> dict:
    """measures.measure_to_json one atom and one gcd at a time."""
    return {
        "N": measure.N,
        "sigma_squared": f"{measure.sigma_sq.numerator}/{measure.sigma_sq.denominator}",
        "atoms": [{"weight": w, "prob": f"{n}/{d}"} for w, n, d in _reduced_atoms(measure)],
    }


def cache_parts(data: bytes) -> dict:
    """The parts of the cache file data (repchar._decode), as repchar._encode takes them: lists of
    Python ints, the rows as lists."""
    rs, rows, counts, lam_at, lam_counts, total_dim = repchar._decode(data)
    return {"cartan_type": str(rs.cartan_type), "rows": rows.tolist(), "counts": counts,
            "lam_at": lam_at.tolist(), "lam_counts": lam_counts, "total_dim": total_dim}


def cache_file(parts: dict, **head) -> bytes:
    """The cache file of parts (repchar._encode), with the header fields in head written over the ones
    _encode writes; the sha256 stays that of the body."""
    line, body = repchar._encode(**parts)
    return json.dumps({**json.loads(line), **head}).encode() + b"\n" + bytes(body)


def edit_cache_body(data: bytes, edit) -> bytes:
    """The cache file data with edit applied to its body, a bytearray, and the header's sha256 that
    of the edited body: only the loader's reading of the body can refuse it."""
    end = data.index(b"\n")
    body = bytearray(data[end + 1 :])
    edit(body)
    head = {**json.loads(data[:end]), "sha256": hashlib.sha256(body).hexdigest()}
    return json.dumps(head).encode() + b"\n" + bytes(body)
