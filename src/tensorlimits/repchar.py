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
Both recurrences walk the dominant weights below their top by depth, as one
numpy enumeration lists them (_dominant_weights, checked against a search
along positive roots); Miller's recurrence reads its quotients at positions
in that list, found a block of rows at a time by to_dominant_rows and packed
int64 keys, while Freudenthal's root strings step with the scalar to_dominant.
A table whose enumeration would hold more than MAX_TABLE_ROWS rows raises
TableCapExceeded before it is built.
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

from .errors import BasisMismatch, NegativeMultiplicity, TableCapExceeded
from .linalg import bilinear
from .rootsys import (
    CartanType,
    IntVector,
    RootSystemData,
    build_root_system,
    casimir_eigenvalue,
    check_length,
    highest_weight,
    orbit,
    orbit_rows,
    orbit_sizes,
    scaled_norm,
    sums_by_row,
    to_dominant,
    to_dominant_rows,
)

_BLOCK_ROWS = 2**16  # orbit points per block of racah_decompose, lookups per block of _miller_power
MAX_TABLE_ROWS = 2**24  # rows _dominant_weights may hold, as densities.MAX_GRID_POINTS


class MultiplicityMap:
    """W-invariant character: weight (omega-coords) -> multiplicity.

    Treat instances as immutable.  A map holds its root system rs, its
    multiplicities at dominant weights and its total dimension, and expands
    them over W-orbits into entries on first read, as it keeps the result of
    the first racah_decompose call; sizes keeps the constructor's orbit_sizes,
    in dominant's order, for len, repr and Racah's sum.  NotDominant unless every
    weight of dominant is dominant and of the rank; ValueError unless every count is
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
        self.sizes = sizes
        self.total_dim = total_dim

    @cached_property
    def entries(self) -> dict:
        return {nu: m for mu, m in self.dominant.items() for nu in orbit(self.rs, mu)}

    @cached_property
    def _decomposition(self) -> IrrepDecomposition:
        """racah_decompose's sum, run once per map and then shared by every call."""
        rs = self.rs
        rows = np.array(rs.pairing_rows, dtype=np.int64)
        by_pattern = {}
        for (mu, c), size in zip(self.dominant.items(), self.sizes):
            by_pattern.setdefault(tuple([x > 0 for x in mu]), (size, []))[1].append((mu, c))
        lams, counts = np.zeros((0, rs.rank), dtype=np.int64), []
        for size, items in by_pattern.values():
            step = max(1, _BLOCK_ROWS // size)
            for a in range(0, len(items), step):
                block = items[a : a + step]
                x = orbit_rows(rs, [mu for mu, _ in block]).reshape(-1, rs.rank) + 1
                pairings = x @ rows.T
                regular = (pairings != 0).all(axis=1)
                nums = np.tile(np.array([c for _, c in block], dtype=object), size)
                nums = np.where((pairings < 0).sum(axis=1) % 2, -nums, nums)[regular].tolist()
                keys = np.concatenate([lams, to_dominant_rows(rs, x[regular]) - 1])
                lams, counts = sums_by_row(keys, counts + nums)  # running sums: one block in memory at a time
        components = dict(zip(map(tuple, lams.tolist()), counts))
        if min(counts, default=0) < 0:
            raise NegativeMultiplicity(f"[V : V_mu] < 0 for mu in {[mu for mu, c in components.items() if c < 0]}")
        # one int64 matrix of the scaled pairings (lam + rho, beta), then exact Python ints
        dims = dict(zip(components, _weyl_dims(rs, ((lams + 1) @ rows.T).tolist())))
        total = sum(c * dims[mu] for mu, c in components.items())
        if total != self.total_dim:
            raise NegativeMultiplicity(
                f"components account for dimension {total} of {self.total_dim}; input was not a character"
            )
        return IrrepDecomposition(components, dims)

    def __len__(self) -> int:
        return sum(self.sizes)

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


def _weyl_dims(rs: RootSystemData, pairings) -> list[int]:
    """prod_beta (lam + rho, beta) / (rho, beta) for each list of pairings row_beta . (lam + rho)
    of rs.pairing_rows in pairings, by one exact division by the product of the rows' sums."""
    den = prod(map(sum, rs.pairing_rows))
    dims = []
    for p in pairings:
        dim, rem = divmod(prod(p), den)
        if rem:
            raise AssertionError(f"Weyl dimension {Fraction(prod(p), den)} is not an integer")
        dims.append(dim)
    return dims


def weyl_dim(rs: RootSystemData, lam) -> int:
    """Dimension of the irreducible with highest weight lam (Weyl formula).

    prod over positive roots beta of (lam + rho, beta) / (rho, beta), every
    pairing an integer row_beta . (lam + rho) of rs.pairing_rows (the scale s
    cancels), and one exact division at the end.
    """
    lam_rho = [x + 1 for x in highest_weight(rs, lam)]
    return _weyl_dims(rs, [[sum(map(mul, row, lam_rho)) for row in rs.pairing_rows]])[0]


def _scaled_inverse_cartan(rs: RootSystemData) -> tuple[np.ndarray, int]:
    """(den C^-1, den) as an int64 matrix and an int, den the least common denominator
    of C^-1: den C^-1 x is den times the simple-root coordinates of x in omega-coords."""
    den = lcm(*(x.denominator for row in rs.C_inv for x in row))
    return np.array([[int(x * den) for x in row] for row in rs.C_inv], dtype=np.int64), den


def _dominant_weights(rs: RootSystemData, lam) -> tuple[np.ndarray, np.ndarray]:
    """Dominant weights of V_lam and their depths below lam, sorted by (depth, weight).

    They are the nu >= 0 with k = C^-1 (lam - nu) >= 0 integral (Humphreys,
    Introduction to Lie Algebras and Representation Theory, section 21.3), and
    the depth of nu is sum k, the height of lam - nu.  C^-1 >= 0 entrywise, so
    {nu >= 0 : C^-1 nu <= C^-1 lam} is downward closed: nu grows one
    coordinate at a time, each prefix repeated (np.repeat) once per next
    coordinate from 0 to the largest its budget left = M (lam - prefix) allows,
    M = den C^-1: the least over the j with M_ji > 0 of left_j // M_ji.  No
    prefix is a dead end, so at most det C times the output is held; the rows
    whose left den divides (the root-lattice coset) are kept, as
    nu = lam - C k with k = left / den, and np.lexsort'ed.  TableCapExceeded,
    before anything is allocated, if a step would hold more than
    MAX_TABLE_ROWS rows.  Returns the weights as an (n, rank) int64 array and
    their depths as an (n,) int64 array.
    """
    r = rs.rank
    # each step holds (0, ..., 0, t) for t <= lam_i, so this also keeps den C^-1 lam in int64
    if max(lam) >= MAX_TABLE_ROWS:
        raise TableCapExceeded(f"the dominant weights below {lam} take more than {MAX_TABLE_ROWS} rows")
    m, den = _scaled_inverse_cartan(rs)
    left = (m @ np.array(lam, dtype=np.int64))[None]
    for i in range(r):
        col = m[:, i]
        bounds = col > 0  # zeros (D2 only) bound nothing
        counts = (left[:, bounds] // col[bounds]).min(axis=1) + 1
        total = int(counts.sum())
        if total > MAX_TABLE_ROWS:
            raise TableCapExceeded(f"the dominant weights below {lam} take more than {MAX_TABLE_ROWS} rows")
        x = np.arange(total)
        x -= np.repeat(np.cumsum(counts) - counts, counts)
        left = np.repeat(left, counts, axis=0)
        for j in np.flatnonzero(bounds):
            left[:, j] -= x * col[j]
    k = left[(left % den == 0).all(axis=1)] // den
    nus, depths = np.array(lam, dtype=np.int64) - k @ np.array(rs.C, dtype=np.int64).T, k.sum(axis=1)
    order = np.lexsort((*nus.T[::-1], depths))
    return nus[order], depths[order]


def freudenthal_multiplicities(rs: RootSystemData, lam) -> MultiplicityMap:
    """Full weight multiplicity map of the irreducible V_lam.

    Freudenthal recursion at the dominant weights, highest first; the
    W-orbits are expanded on first read of entries.  m(mu) sums the positive
    root strings above mu, read at dominant representatives; a string ends at
    the first one not yet found.  With the pairings (nu, beta) s = row_beta . nu
    of rs.pairing_rows summed as acc and N = scaled_norm = s^2 (b_g / 2) (x, x),
    ((lam + rho)^2 - (mu + rho)^2) m(mu) = 2 sum m(nu) (nu, beta) reads
    m(mu) = acc s b_g / (N(lam + rho) - N(mu + rho)): one exact integer division.
    """
    lam = highest_weight(rs, lam)
    dominant = list(map(tuple, _dominant_weights(rs, lam)[0].tolist()))
    scale = rs.pairing_scale * rs.b_g
    norm_top = scaled_norm(rs, [x + 1 for x in lam])
    mult_dom = {lam: 1}
    for mu in dominant[1:]:
        acc = 0
        for alpha, row in zip(rs.positive_roots_omega, rs.pairing_rows):
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
    return MultiplicityMap(rs, mult_dom, weyl_dim(rs, lam))


def check_character(rs: RootSystemData, m: MultiplicityMap) -> None:
    """BasisMismatch unless m is a character of rs's rank and Cartan type."""
    check_length(rs, m.rs.rank, "weight")
    if m.rs.cartan_type != rs.cartan_type:
        raise BasisMismatch(f"a character of {m.rs.cartan_type}, not of {rs.cartan_type}")


def _positions(nus: np.ndarray):
    """The function taking an (n, rank) array of nonnegative weights to their
    positions in the rows nus, len(nus) for a weight not among them.

    A weight is packed into one int64 key in the uniform radix one past the
    largest coordinate of nus and found by np.searchsorted in nus's sorted
    keys; a weight with a coordinate at or past the radix is absent.
    TableCapExceeded unless radix^rank < 2^63."""
    size, r = nus.shape
    radix = int(nus.max()) + 1
    if radix**r >= 2**63:
        raise TableCapExceeded(f"weights with coordinates up to {radix - 1} do not pack into int64 keys")
    powers = radix ** np.arange(r - 1, -1, -1, dtype=np.int64)
    keys = nus @ powers
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def find(rows: np.ndarray) -> np.ndarray:
        inside = (rows < radix).all(axis=1)
        k = np.where(inside, np.minimum(rows, radix - 1) @ powers, -1)
        i = np.minimum(np.searchsorted(sorted_keys, k), size - 1)
        return np.where(sorted_keys[i] == k, order[i], size)

    return find


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
    per weight at sum_l |supp V_lam_l| rather than the product.  The heights
    are simple-root heights, unscaled: the recurrence is linear in the grading.

    Q and every A_l are W-invariant, so the recurrence visits only the
    dominant weights nu below top, by depth (_dominant_weights): each is a
    weight of V_top, so none is zero.  A_l lives in the coset of
    V_(top - lam_l), so A_l(mu) is kept at the position of mu + lam_l among
    them, in A_l's part of one list of slots, and read at
    to_dominant(nu - w) + lam_l, which lies higher than nu, so it was found
    earlier or is zero; a weight not among them reads the part's last slot,
    which stays 0.  Those positions come for a block of rows at a time, at
    most _BLOCK_ROWS lookups, from one to_dominant_rows per factor and
    _positions, so a row's step is one list of reads and one sum of products.
    The result holds the dominant multiplicities; its W-orbits are expanded
    only if its entries are read.
    """
    factors = [(lam, base, n) for lam, base, n in factors if n]
    r = rs.rank
    top = tuple(sum(n * lam[i] for lam, _, n in factors) for i in range(r))
    nus, depths = _dominant_weights(rs, top)
    size = len(nus)
    find = _positions(nus)
    m_inv, den = _scaled_inverse_cartan(rs)
    height = m_inv.sum(axis=0)  # den times the height of an omega-coords weight
    # per factor with a weight w != lam_l: lam_l, those w, their V_lam_l(w), the offset of
    # A_l's slots and the part of a row's lookups it reads; coeffs holds every n d(lam_l - w) V_lam_l(w)
    steps, coeffs = [], []
    for lam, base, n in factors:
        items = [(w, c) for w, c in base.entries.items() if w != lam]
        if items:
            ws = np.array([w for w, _ in items], dtype=np.int64)
            lam_row = np.array(lam, dtype=np.int64)
            d = ((lam_row - ws) @ height // den).tolist()
            part = slice(len(coeffs), len(coeffs) + len(items))
            coeffs += [n * h * c for h, (_, c) in zip(d, items)]
            steps.append((lam_row, ws, [c for _, c in items], len(steps) * (size + 1), part))
    # the A_l side by side, size + 1 slots each; the last slot of each stays 0
    quotients = [0] * (len(steps) * (size + 1))
    block_rows = max(1, _BLOCK_ROWS // max(1, len(coeffs)))
    mult = []
    for a in range(0, size, block_rows):
        block = nus[a : a + block_rows]
        looks = [np.empty((len(block), 0), dtype=np.int64)]
        for lam_row, ws, _, offset, _ in steps:
            x = to_dominant_rows(rs, (block[:, None, :] - ws).reshape(-1, r)) + lam_row
            looks.append(find(x).reshape(len(block), len(ws)) + offset)
        owns = [(block >= lam_row).all(axis=1).tolist() for lam_row, *_ in steps]
        for i, (look, depth) in enumerate(zip(np.hstack(looks).tolist(), depths[a : a + block_rows].tolist())):
            vals = [quotients[j] for j in look]
            acc = sum(map(mul, coeffs, vals))
            # only top has depth 0; its multiplicity is 1
            m, rem = divmod(acc, depth) if depth else (1, 0)
            if rem:
                raise AssertionError(f"multiplicity sum {acc} at depth {depth} is not divisible by the depth")
            mult.append(m)
            for (_, _, cs, offset, part), own in zip(steps, owns):
                if own[i]:
                    quotients[offset + a + i] = m - sum(map(mul, cs, vals[part]))
    dominant = dict(zip(zip(*[col.tolist() for col in nus.T]), mult))
    return MultiplicityMap(rs, dominant, prod(base.total_dim**n for _, base, n in factors))


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
    x = nu + rho pairs with the positive roots by rs.pairing_rows, to 0 on a
    wall and negatively with l(u) of them.  Negative counts, or
    components short of total_dim (their Weyl dimensions are kept in dims),
    mean the input was not a genuine character; a map of another rank or
    Cartan type raises BasisMismatch (check_character).  The sum runs once
    per map: later calls return the same IrrepDecomposition, which, like the
    map, must be treated as immutable.
    """
    check_character(rs, m)
    return m._decomposition


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
    weight coordinate that is not a JSON integer, a count or total that is not
    a string of ASCII decimal digits, a count that is not positive and a total that
    sum_mu m(mu) |W mu| does not match), UnsupportedType, WeylCapExceeded or NotDominant."""
    with open(path) as fh:
        doc = json.load(fh)
    rs = build_root_system(CartanType.parse(doc["cartan_type"]))
    dominant = {}
    for w, c in zip(doc["weights"], doc["multiplicities"], strict=True):
        if any(type(x) is not int for x in w):
            raise ValueError(f"weight {w} has a coordinate that is not an integer")
        dominant[tuple(w)] = _decimal("multiplicities", c)
    return MultiplicityMap(rs, dominant, _decimal("total_dim", doc["total_dim"]))


def _decimal(field: str, text) -> int:
    """int(text) for a str of ASCII digits, else ValueError naming field (int() takes 2.5, true, "1_0")."""
    if type(text) is not str or not (text.isascii() and text.isdigit()):
        raise ValueError(f"{field} value {text!r} is not a string of ASCII decimal digits")
    return int(text)
