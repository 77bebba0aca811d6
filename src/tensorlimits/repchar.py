"""Exact weight multiplicities of irreducibles, tensor powers, and decompositions.

A character is stored as a MultiplicityMap, built one way only: from its root
system, one int64 array of its dominant weights (omega-coords), the list of
their arbitrary-precision multiplicities and its total dimension, which the
constructor checks against the orbit sizes, one walk per zero pattern of the
array.  That array and that list are its one store; the dict of dominant
multiplicities is a view built on first read.  A map is thus W-invariant by
construction, which the decomposition, Miller's recurrence and a lookup
m[weight] rely on: they read a character at dominant weights alone.  Its
orbits are expanded in one place, support(), read by ltl measure xi and, once
per factor and process (_factor_support), the factor characters' consumers.
A decomposition is stored as a map is: int64 rows with lists of their
multiplicities and Weyl dimensions.
One signed sum over W, sum_w sign(w) m(mu + rho - w rho) at each dominant mu
(_alternating_sums), does two jobs: it splits a character into irreducibles,
which the tests check against Racah's signed pushforward, a scan of the full
table and peeling off highest weights, and, as Racah's recursion, it builds
the characters of irreducibles, which the tests check against the Freudenthal
recursion and the division of Weyl alternants.  Characters of tensor powers
prod_l V_lam_l^(n_l) come from Miller's power recurrence, which finds each
multiplicity from higher ones by one exact integer division, at a cost per
dominant weight of the support sizes of the factors.  It is the only product
of characters the package computes; the test suite checks it against plain
convolution of the factor characters (tests/oracles.py).  Both recursions
walk the dominant weights below their top by depth, as one numpy enumeration
lists them (_dominant_weights, checked against a search along positive
roots), and read at positions in that list, found a block of rows at a time
by rootsys._dominant_rows and a walk down the enumeration's levels (_levels, _positions).
A table whose enumeration would hold more than MAX_TABLE_ROWS rows raises TableCapExceeded before it is built.

A map is saved with its decomposition, in the one cache format, 5 (_encode), a section at a time: a
JSON header line (the type, the numbers of components and rows, the byte size of each section), the
decomposition section (int32 component rows, an int32 byte length per count, the counts' bytes, total_dim
last) and the table section (rows, lengths and counts alike), each followed by its sha256.  A file holds
V = prod_l V_lam_l^n_l by a chain of two links, one check each, both in the integers of scaled_norm and
both on the components' Casimir trace sum c dim V_lam (lam, lam + 2 rho) (_casimir_trace, formed once per
read).  check_decomposition ties the decomposition to the spec: sum c dim V_lam = prod_l dim V_lam_l^n_l
and the trace is dim V sum_l n_l (lam_l, lam_l + 2 rho).  load_multiplicity_map ties the table to the
decomposition: the constructor's checks, then rank times the trace is dim g sum_mu m(mu) (mu, mu).
load_decomposition reads the header and the decomposition section alone, for ltl decompose, converge and
measure eta and eta_extended, and checks the first link; load_multiplicity_map reads the whole file, for
ltl measure xi, checks the second and attaches the decomposition (racah_decompose on a loaded map runs no
W-sum), on which ltl then checks the first.  Neither link tells apart components exchanged by a diagram
automorphism, such as (a, b) and (b, a) on A2, which have the same dimension and Casimir.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import repeat
from math import lcm, prod
from operator import mul

import numpy as np

from .errors import BasisMismatch, NegativeMultiplicity, NotDominant, TableCapExceeded
from .linalg import inverse
from .rootsys import (
    CartanType,
    IntMatrix,
    IntVector,
    RootSystemData,
    _dominant_rows,
    _int_rows,
    _weyl_walk,
    build_root_system,
    check_length,
    highest_weight,
    orbit_rows,
    scaled_norm,
    to_dominant_rows,
)

_BLOCK_ROWS = 2**16  # reads per block of _alternating_sums, lookups per block of _miller_power
MAX_TABLE_ROWS = 2**24  # rows _dominant_weights may hold, as densities.MAX_GRID_POINTS


class MultiplicityMap:
    """W-invariant character: weight (omega-coords) -> multiplicity.

    Treat instances as immutable.  A map holds rs, its dominant weights as one read-only
    int64 array rows, their multiplicities as the list counts of Python ints in the same
    order, each row's zero pattern id sum_i [mu_i > 0] 2^i (pattern_ids), |W mu| per id
    present (pattern_sizes, the length of its _weyl_walk) and per row (sizes), and total_dim;
    the dict views dominant (in row order) and entries (in support() order), m[weight]'s lookup and
    racah_decompose's result (attached by load_multiplicity_map) are built on first read.  NotDominant
    unless every weight is dominant and of the rank; ValueError for a coordinate that is not an integer
    or of |x| >= 2^31, a weight listed twice, a count list of another length than rows, a count that is
    not a positive int (bool excluded), a total_dim that is not an int or sum_mu m(mu) |W mu| != total_dim.
    """

    def __init__(self, rs: RootSystemData, rows, counts: list, total_dim: int):
        lengths = {rows.shape[1]} if isinstance(rows, np.ndarray) and rows.ndim == 2 else set(map(len, rows))
        if lengths - {rs.rank}:
            raise NotDominant(f"{rs.cartan_type} dominant weights have {rs.rank} coordinates")
        rows = _int_rows(rs, rows)
        if (rows < 0).any():
            raise NotDominant(f"{tuple(rows[(rows < 0).any(axis=1)][0].tolist())} is not dominant")
        ranked = rows[np.lexsort(rows.T[::-1])]
        if len(twice := ranked[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]):
            raise ValueError(f"weight {tuple(twice[0].tolist())} is listed twice")
        if len(counts) != len(rows):
            raise ValueError(f"{len(counts)} multiplicities for {len(rows)} weights")
        if set(map(type, counts)) - {int} or min(counts, default=1) <= 0:
            i = next(i for i, c in enumerate(counts) if type(c) is not int or c <= 0)
            raise ValueError(f"multiplicity {counts[i]!r} at {tuple(rows[i].tolist())} is not a positive int")
        if type(total_dim) is not int:
            raise ValueError(f"dimension {total_dim!r} is not an int")
        ids = (rows > 0) @ (1 << np.arange(rs.rank))
        # the ids present by np.bincount: np.unique imports numpy.ma, which a warm-cache run does not otherwise load
        present = np.flatnonzero(np.bincount(ids)).tolist()
        by_id = {p: len(_weyl_walk(rs.C, tuple([(p >> i) & 1 for i in range(rs.rank)]))[0]) for p in present}
        sizes = list(map(by_id.__getitem__, ids.tolist()))
        total = sum(map(mul, counts, sizes))
        if total != total_dim:
            raise ValueError(f"multiplicity total {total} != dimension {total_dim}")
        rows.setflags(write=False)
        self.rs, self.rows, self.counts, self.total_dim = rs, rows, counts, total_dim
        self.pattern_ids, self.pattern_sizes, self.sizes = ids, by_id, sizes

    @cached_property
    def dominant(self) -> dict:
        """weight tuple -> multiplicity, in row order: for the tests and library users."""
        return dict(zip(map(tuple, self.rows.tolist()), self.counts))

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Every weight (int64 rows) and its count (object array of Python ints), built afresh
        per call: one orbit_rows call per zero pattern id, its counts tiled over the orbit points.
        convergence.char_fn_xi sums floats in this order."""
        counts = np.array(self.counts, dtype=object)
        weights, tiled = [np.zeros((0, self.rs.rank), dtype=np.int64)], [counts[:0]]
        for p in self.pattern_sizes:
            at = np.flatnonzero(self.pattern_ids == p)
            orbits = orbit_rows(self.rs, self.rows[at])
            weights.append(orbits.reshape(-1, self.rs.rank))
            tiled.append(np.tile(counts[at], len(orbits)))
        return np.concatenate(weights), np.concatenate(tiled)

    @cached_property
    def entries(self) -> dict:
        weights, counts = self.support()
        return dict(zip(map(tuple, weights.tolist()), counts))

    @cached_property
    def _decomposition(self) -> IrrepDecomposition:
        """racah_decompose's sum, run once per map and then shared by every call."""
        rs, nus = self.rs, self.rows
        reads = np.array([*self.counts, 0], dtype=object)
        sums = next(_alternating_sums(rs, nus, reads, [0, len(nus)], self._find))
        keep = [i for i in np.lexsort(nus.T[::-1]).tolist() if sums[i]]
        lams, counts = nus[keep], [sums[i] for i in keep]
        if min(counts, default=0) < 0:
            raise NegativeMultiplicity(f"[V : V_mu] < 0 for mu in {list(map(tuple, lams[np.less(counts, 0)].tolist()))}")
        dims = _weyl_dims(rs, (lams + 1) @ np.array(rs.pairing_rows, dtype=np.int64).T)
        total = sum(map(mul, counts, dims))
        if total != self.total_dim:
            raise NegativeMultiplicity(
                f"components account for dimension {total} of {self.total_dim}; input was not a character"
            )
        lams.setflags(write=False)
        return IrrepDecomposition(lams, counts, dims)

    @cached_property
    def _find(self):
        """The _positions lookup of rows: Miller's recurrence hands over its own, and any other map
        builds it on first read."""
        return _positions(self.rs, self.rows)

    def __len__(self) -> int:
        return sum(self.sizes)

    def __getitem__(self, weight) -> int:
        """The multiplicity at weight, read at the row of its to_dominant_rows point by one _positions
        lookup (0 if none): BasisMismatch for another length, ValueError for a coordinate not an integer
        or of |x| >= 2^31, TableCapExceeded for rows whose index passes MAX_TABLE_ROWS slots (hand-built)."""
        at = self._find(to_dominant_rows(self.rs, [weight]))[0]
        return self.counts[at] if at < len(self.counts) else 0

    def __repr__(self) -> str:
        return f"MultiplicityMap({len(self)} weights, total_dim={self.total_dim})"


@dataclass(eq=False)
class IrrepDecomposition:
    """Irreducible components as int64 rows (dominant weights, in lexicographic order) with the
    lists counts and dims of their multiplicities and Weyl dimensions; the view components
    (weight tuple -> multiplicity, in row order) is built on first read."""

    rows: np.ndarray
    counts: list
    dims: list

    @cached_property
    def components(self) -> dict:
        return dict(zip(map(tuple, self.rows.tolist()), self.counts))

    def __getitem__(self, weight) -> int:
        return self.components.get(tuple(weight), 0)

    def __repr__(self) -> str:
        return f"IrrepDecomposition({len(self.counts)} components)"


def _weyl_dims(rs: RootSystemData, pairings: np.ndarray) -> list[int]:
    """prod_beta (lam + rho, beta) / (rho, beta) for each row of pairings, the (n, |Phi+|) matrix of
    row_beta . (lam + rho) over rs.pairing_rows: its columns multiplied one at a time as Python ints
    (an object array), then one exact division by the product of the rows' sums."""
    den, num = prod(map(sum, rs.pairing_rows)), np.ones(len(pairings), dtype=object)
    for col in pairings.T:
        num *= col.astype(object)
    if (rem := num % den).any():
        raise AssertionError(f"Weyl dimension {Fraction(num[rem != 0][0], den)} is not an integer")
    return (num // den).tolist()


def _squared_norms(rows: np.ndarray, pairing_rows) -> np.ndarray:
    """scaled_norm(rs, x) = sum_beta (x . row_beta)^2 for each row x of rows, one pairing row at a time.
    int64 while every |x . row_beta| < 2^20, so that |W| times a norm stays below 2^63 under the Weyl cap
    (|W| <= 10,000, |Phi+| <= 25), else Python ints in an object array."""
    if rows.size and np.abs(rows).max() * max(map(sum, pairing_rows)) >= 2**20:  # pairing rows are >= 0
        rows = rows.astype(object)
    norms = np.zeros(len(rows), dtype=rows.dtype)
    for row in pairing_rows:
        p = rows @ np.array(row, dtype=rows.dtype)
        norms += p * p
    return norms


def weyl_dim(rs: RootSystemData, lam) -> int:
    """Dimension of the irreducible with highest weight lam (Weyl formula).

    prod over positive roots beta of (lam + rho, beta) / (rho, beta), every
    pairing an integer row_beta . (lam + rho) of rs.pairing_rows (the scale s
    cancels), and one exact division at the end: _weyl_dims on one row of Python ints.
    """
    lam_rho = np.array([[x + 1 for x in highest_weight(rs, lam)]], dtype=object)
    return _weyl_dims(rs, lam_rho @ np.array(rs.pairing_rows, dtype=np.int64).T)[0]


@cache
def _weyl_shifts(c: IntMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The shifts rho - w rho of all w in W (int64 rows) and where sign(w) = -1: the walk from rho."""
    points, _, lengths = _weyl_walk(c, (1,) * len(c))
    return 1 - np.array(points, dtype=np.int64), np.array(lengths) % 2 == 1


@cache
def _scaled_inverse_cartan(c: IntMatrix) -> tuple[np.ndarray, int]:
    """(den C^-1, den) as a read-only int64 matrix and an int, den the least common denominator
    of C^-1: den C^-1 x is den times the simple-root coordinates of x in omega-coords."""
    c_inv = inverse(c)
    den = lcm(*(x.denominator for row in c_inv for x in row))
    m = np.array([[int(x * den) for x in row] for row in c_inv], dtype=np.int64)
    m.setflags(write=False)
    return m, den


def _levels(rs: RootSystemData, budget: np.ndarray, what: str) -> tuple[list, np.ndarray]:
    """The nu >= 0 with M nu <= budget, M = den C^-1, one coordinate at a time: C^-1 >= 0, so the set is
    downward closed, and a prefix's next coordinate runs from 0 to the least left_j // M_ji over the j
    with M_ji > 0, left = budget - M prefix.  Returns per coordinate i (starts_i, counts_i) over the
    slots of the prefixes (nu_0, ..., nu_{i-1}), one before the first, slot p's children being
    starts_i[p] + x for 0 <= x < counts_i[p], and the (n, rank) int64 left of the last level's slots.
    TableCapExceeded ("what take more than ..."), before it is allocated, for a level over MAX_TABLE_ROWS."""
    (m, _), left, levels = _scaled_inverse_cartan(rs.C), budget[None], []
    for i in range(rs.rank):
        col = m[:, i]
        bounds = col > 0  # zeros (D2 only) bound nothing
        counts = (left[:, bounds] // col[bounds]).min(axis=1) + 1
        starts, total = np.cumsum(counts) - counts, int(counts.sum())
        if total > MAX_TABLE_ROWS:
            raise TableCapExceeded(f"{what} take more than {MAX_TABLE_ROWS} rows")
        x = np.arange(total) - np.repeat(starts, counts)
        left = np.repeat(left, counts, axis=0)
        for j in np.flatnonzero(bounds):
            left[:, j] -= x * col[j]
        levels.append((starts, counts))
    return levels, left


def _dominant_weights(rs: RootSystemData, lam) -> tuple[np.ndarray, np.ndarray]:
    """Dominant weights of V_lam and their depths below lam, sorted by (depth, weight): the nu >= 0
    with k = C^-1 (lam - nu) >= 0 integral (Humphreys, Introduction to Lie Algebras and Representation
    Theory, section 21.3), of depth sum k.  Of the slots of _levels under den C^-1 lam (at most det C
    times the output) those whose left den divides, the root-lattice coset, are kept as nu = lam - C k,
    k = left / den, and np.lexsort'ed.  TableCapExceeded as in _levels.  Returns the weights as an
    (n, rank) int64 array and their depths as an (n,) int64 array."""
    # each level holds (0, ..., 0, t) for t <= lam_i, so this also keeps den C^-1 lam in int64
    if max(lam) >= MAX_TABLE_ROWS:
        raise TableCapExceeded(f"the dominant weights below {lam} take more than {MAX_TABLE_ROWS} rows")
    m, den = _scaled_inverse_cartan(rs.C)
    _, left = _levels(rs, m @ np.array(lam, dtype=np.int64), f"the dominant weights below {lam}")
    k = left[(left % den == 0).all(axis=1)] // den
    nus, depths = np.array(lam, dtype=np.int64) - k @ np.array(rs.C, dtype=np.int64).T, k.sum(axis=1)
    order = np.lexsort((*nus.T[::-1], depths))
    return nus[order], depths[order]


def _alternating_sums(rs: RootSystemData, nus: np.ndarray, reads: np.ndarray, cuts, find):
    """For each part nus[a:b] between consecutive cuts, the list of sum_w sign(w) reads[i]
    over w in W, i = find(the dominant point of nu + rho - w rho), find the _positions lookup of the
    rows nus: len(nus) for a weight not among them (reads has one more slot than nus).

    A term is read only where den C^-1 (nu + rho - w rho) <= the coordinatewise max of
    den C^-1 mu over nus (_positions' budget): the dominant point mu of v has mu - v in Q+, so a
    term dropped would read as absent, and dropping it before the _dominant_rows fold pays
    (decompose B5 omega1 N=16: 0.28 s with it, 0.74 s without; one process, 2-core Xeon).  By
    _weyl_shifts, _dominant_rows and find, _BLOCK_ROWS reads a block; each part is summed
    only when asked for, so a caller may write reads in between.
    The rows nu + rho - w rho go to _dominant_rows unchecked: nus are a map's rows (|x| < 2^31,
    which MultiplicityMap checks) or those of _dominant_weights (below 2^28, see _miller_power),
    and a shift rho - w rho has |x| <= 12 under the Weyl cap, so every row is below the kernel's 2^32.
    """
    (shifts, odd), (m_inv, _) = _weyl_shifts(rs.C), _scaled_inverse_cartan(rs.C)
    bound, lifts = (nus @ m_inv.T).max(axis=0, initial=0), shifts @ m_inv.T
    step = max(1, _BLOCK_ROWS // len(shifts))
    for a, b in zip(cuts, cuts[1:]):
        sums = []
        for c in range(a, b, step):
            block = nus[c : min(c + step, b)]
            slack, at = bound - block @ m_inv.T, np.arange(len(block))
            row, k = np.nonzero(np.logical_and.reduce([lifts[:, i] <= slack[:, i, None] for i in range(rs.rank)]))
            vals, even = reads[find(_dominant_rows(rs, block[row] + shifts[k]))], ~odd[k]
            # shift 0 is even and keeps every row: a row's sum is 2 (its even reads) - (all its reads)
            alls = np.add.reduceat(vals, np.searchsorted(row, at))
            sums += (2 * np.add.reduceat(vals[even], np.searchsorted(row[even], at)) - alls).tolist()
        yield sums


def irreducible_character(rs: RootSystemData, lam) -> MultiplicityMap:
    """Character of the irreducible V_lam, by Racah's recursion on its dominant weights.

    [V_lam : V_mu] = sum_w sign(w) m(mu + rho - w rho) is 0 for dominant mu != lam (Humphreys,
    Introduction to Lie Algebras and Representation Theory, section 24), and every w != 1
    reads a weight higher than mu: so the weights are visited a depth at a time
    (_dominant_weights), each level's m(mu) = -(its _alternating_sums), read while the
    w = 1 slot is still 0.  The recursion divides nothing; the constructor's checks of
    positive counts and sum_mu m(mu) |W mu| = weyl_dim guard it.
    """
    lam = highest_weight(rs, lam)
    nus, depths = _dominant_weights(rs, lam)
    reads, find = np.zeros(len(nus) + 1, dtype=object), _positions(rs, nus)
    reads[0] = 1
    cuts = [*(np.flatnonzero(np.diff(depths)) + 1).tolist(), len(nus)]
    for a, sums in zip(cuts, _alternating_sums(rs, nus, reads, cuts, find)):
        reads[a : a + len(sums)] = [-s for s in sums]
    return MultiplicityMap(rs, nus, reads[:-1].tolist(), weyl_dim(rs, lam))


@lru_cache(maxsize=32)
def _factor_support(rs: RootSystemData, lam: IntVector) -> tuple[np.ndarray, np.ndarray]:
    """irreducible_character(rs, lam).support(), read-only and kept for the last 32 asked, lam
    as highest_weight returns it: each factor is built and its orbits expanded once per process,
    for Miller's steps at every N of every table and for TensorSpec.factor_supports (the
    char-fn and the moments of xi)."""
    weights, counts = irreducible_character(rs, lam).support()
    weights.setflags(write=False)
    counts.setflags(write=False)
    return weights, counts


def check_character(rs: RootSystemData, m: MultiplicityMap) -> None:
    """BasisMismatch unless m is a character of rs's rank and Cartan type."""
    check_length(rs, m.rs.rank, "weight")
    if m.rs.cartan_type != rs.cartan_type:
        raise BasisMismatch(f"a character of {m.rs.cartan_type}, not of {rs.cartan_type}")


def _positions(rs: RootSystemData, nus: np.ndarray):
    """The function taking an (n, rank) array of nonnegative weights to their positions in the rows
    nus, len(nus) for a weight not among them.  The index is _levels under b, the coordinatewise max
    of den C^-1 nu over nus (its slots hold every nu >= 0 with den C^-1 nu <= b, nus among them), and
    one int32 array from slot to row of nus (len(nus) elsewhere), so the positions come as int32; a weight
    walks down the levels by rank gathers p <- starts_i[p] + x_i, absent once x_i >= counts_i[p].
    TableCapExceeded as in _levels."""
    b = (nus @ _scaled_inverse_cartan(rs.C)[0].T).max(axis=0, initial=0)
    levels, _ = _levels(rs, b, f"the weights nu >= 0 with den C^-1 nu <= {tuple(b.tolist())}")
    size, slot = len(nus), np.zeros(len(nus), dtype=np.int64)
    for (starts, _), x in zip(levels, nus.T):
        slot = starts[slot] + x
    # int32: every nu is a slot, and _levels caps the slots at MAX_TABLE_ROWS < 2^31
    at = np.full(int(levels[-1][1].sum()), size, dtype=np.int32)
    at[slot] = np.arange(size)

    # find keeps the levels and at, not nus: a map that holds it keeps no second copy of its rows
    def find(rows: np.ndarray) -> np.ndarray:
        p, inside = np.zeros(len(rows), dtype=np.int64), np.ones(len(rows), dtype=bool)
        for (starts, counts), x in zip(levels, rows.T):
            inside &= x < counts[p]
            p = starts[p] + np.where(inside, x, 0)
        return np.where(inside, at[p], size)

    return find


def _miller_power(rs: RootSystemData, factors) -> MultiplicityMap:
    """Character of prod_l V_lam_l^(n_l) by Miller's power recurrence.

    factors is a list of (lam, support of V_lam, dim V_lam, n), the support as
    MultiplicityMap.support returns it.  Write g_l for the
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
    (the dominant point of nu - w) + lam_l, which lies higher than nu, so it was found
    earlier or is zero; a weight not among them reads the part's last slot,
    which stays 0.  Those positions come for a block of rows at a time, at
    most _BLOCK_ROWS lookups, from one _dominant_rows per factor and _positions
    (nus's own levels), so a row's step is one list of reads and one sum of
    products.  Those rows nu - w go to _dominant_rows unchecked: a weight mu of V_lam has
    |mu_i| <= (lam, theta^v) <= (h - 1) max(lam), h <= 12 the Coxeter number under
    the Weyl cap and max(lam) <= max(top) < MAX_TABLE_ROWS = 2^24 (_dominant_weights
    refuses a larger top), so |nu - w| < 2^29, below the kernel's 2^32.
    """
    factors = [(lam, support, dim, n) for lam, support, dim, n in factors if n]
    r = rs.rank
    top = tuple(sum(n * lam[i] for lam, _, _, n in factors) for i in range(r))
    nus, depths = _dominant_weights(rs, top)
    size, find = len(nus), _positions(rs, nus)
    m_inv, den = _scaled_inverse_cartan(rs.C)
    height = m_inv.sum(axis=0)  # den times the height of an omega-coords weight
    # per factor with a weight w != lam_l: lam_l, those w, their V_lam_l(w), the offset of
    # A_l's slots and the part of a row's lookups it reads; coeffs holds every n d(lam_l - w) V_lam_l(w)
    steps, coeffs = [], []
    for lam, (ws, cs), _, n in factors:
        lam_row = np.array(lam, dtype=np.int64)
        below = (ws != lam_row).any(axis=1)
        if below.any():
            ws, cs = ws[below], cs[below].tolist()
            d = ((lam_row - ws) @ height // den).tolist()
            part = slice(len(coeffs), len(coeffs) + len(cs))
            coeffs += [n * h * c for h, c in zip(d, cs)]
            steps.append((lam_row, ws, cs, len(steps) * (size + 1), part))
    # the A_l side by side, size + 1 slots each; the last slot of each stays 0
    quotients = [0] * (len(steps) * (size + 1))
    block_rows = max(1, _BLOCK_ROWS // max(1, len(coeffs)))
    mult = []
    for a in range(0, size, block_rows):
        block = nus[a : a + block_rows]
        looks = [np.empty((len(block), 0), dtype=np.int64)]
        for lam_row, ws, _, offset, _ in steps:
            x = _dominant_rows(rs, (block[:, None, :] - ws).reshape(-1, r)) + lam_row
            # find gives int32 rows; the offsets pass 2^31 for enough factors, so add them in int64
            looks.append(find(x).astype(np.int64).reshape(len(block), len(ws)) + offset)
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
    m = MultiplicityMap(rs, nus, mult, prod(dim**n for _, _, dim, n in factors))
    m._find = find  # the map's lookup (m[weight]) and its W-sum read Miller's index
    return m


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
    ValueError.  The factor supports come from _factor_support, shared with TensorSpec,
    and their dimensions from weyl_dim; each N then costs one run of Miller's power
    recurrence, linear in the number of dominant weights of V_N for fixed factors.
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
        bases.append((lam, tau, _factor_support(rs, lam), weyl_dim(rs, lam)))
    return {
        n: _miller_power(rs, [(lam, support, dim, (tau * n).numerator) for lam, tau, support, dim in bases])
        for n in n_values
    }


def racah_decompose(rs: RootSystemData, m: MultiplicityMap) -> IrrepDecomposition:
    """Irreducible components of a W-invariant character, by one signed sum over W.

    [V : V_lam] = sum_w sign(w) m(lam + rho - w rho) for dominant lam, the coefficient of
    e^lam in ch V prod_(alpha > 0) (1 - e^-alpha) (Humphreys, Introduction to Lie Algebras
    and Representation Theory, section 24), read at m's dominant weights, where every
    component lies, by _alternating_sums, with their Weyl dimensions by _weyl_dims.  Negative
    counts, or components short of total_dim, mean the input was not a genuine character; a map
    of another rank or Cartan type raises BasisMismatch (check_character).  The sum runs once
    per map: later calls return the same IrrepDecomposition, which, like the
    map, must be treated as immutable.
    """
    check_character(rs, m)
    return m._decomposition


_FORMAT = 5
_HEADER = {"format": int, "cartan_type": str, "components": int, "decomposition_bytes": int, "rows": int,
           "table_bytes": int}
_DIGEST = 32  # the bytes of the sha256 after each section
_WRITE_COUNTS = 2**12  # counts encoded and written a part at a time


def cache_key(cartan_type, factors, n: int) -> str:
    """The sha256 hex digest that names the cache file of the tensor power at N of factors, (lam,
    tau) pairs of cartan_type: it hashes them in sorted order, N, the algorithm that wrote the
    table (Miller's recurrence) and the file format, so a file of another format has another name."""
    return hashlib.sha256(f"{cartan_type}|{sorted(factors)}|N={n}|miller|v{_FORMAT}".encode()).hexdigest()


def _section(rows, counts: list) -> tuple[int, Iterator[bytes]]:
    """The size in bytes of the section of rows and counts (ints >= 0), and its parts: the rows as int32
    little-endian, the byte length of each count as int32 little-endian, then each count's unsigned
    little-endian bytes (0 has none), _WRITE_COUNTS counts a part."""
    lengths = [(c.bit_length() + 7) // 8 for c in counts]
    head = np.asarray(rows, dtype="<i4").tobytes() + np.array(lengths, dtype="<i4").tobytes()

    def parts():
        yield head
        for a in range(0, len(counts), _WRITE_COUNTS):
            b = a + _WRITE_COUNTS
            yield b"".join(map(int.to_bytes, counts[a:b], lengths[a:b], repeat("little")))

    return len(head) + sum(lengths), parts()


def _encode(cartan_type: str, rows, counts, lams, lam_counts, total_dim: int) -> Iterator[bytes]:
    """The format-5 file of a map's rows and counts, its components lams (rows) with their counts and
    total_dim, each written as given, a part at a time: the header line, one JSON object of the format,
    the type, the numbers of components and rows and the byte sizes of the two sections; then the
    decomposition section (_section of lams and lam_counts with total_dim as one more count) and the
    table section (_section of rows and counts), each followed by its sha256."""
    (d_size, d_parts), (t_size, t_parts) = _section(lams, [*lam_counts, total_dim]), _section(rows, counts)
    head = {"format": _FORMAT, "cartan_type": cartan_type, "components": len(lam_counts),
            "decomposition_bytes": d_size, "rows": len(counts), "table_bytes": t_size}
    yield json.dumps(head).encode() + b"\n"
    for parts in (d_parts, t_parts):
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
            yield part
        yield digest.digest()


def save_multiplicity_map(m: MultiplicityMap, path) -> None:
    """Write a map, its rows in their order, and its decomposition (racah_decompose's, so
    NegativeMultiplicity unless m is a character) to path in format 5 (_encode), a part at a time.
    The file goes to a temporary name beside path that then replaces path, so a reader sees the old
    file or the whole new one, never a part."""
    dec = m._decomposition
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(_encode(str(m.rs.cartan_type), m.rows, m.counts, dec.rows, dec.counts, m.total_dim))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _header(line: bytes) -> dict:
    """The fields of a header line; ValueError unless it is one JSON object of exactly _HEADER's fields
    and types, of format 5, with its numbers and sizes >= 0."""
    head = json.loads(line)
    if type(head) is not dict or set(head) != set(_HEADER):
        raise ValueError(f"header {head!r} does not hold exactly the fields {list(_HEADER)}")
    for key, kind in _HEADER.items():
        if type(head[key]) is not kind:
            raise ValueError(f"header field {key!r} is {head[key]!r}, not a JSON {kind.__name__}")
    if head["format"] != _FORMAT or min(v for k, v in head.items() if k != "cartan_type") < 0:
        raise ValueError(f"header {head!r} is not of format {_FORMAT} with numbers >= 0")
    return head


def _read_section(data: bytes, at: int, size: int, what: str, rows: int, rank: int, counts: int) -> tuple[np.ndarray, list]:
    """The rows ((rows, rank) int64) and the counts of the section data[at : at + size], after its
    sha256 is checked against the 32 bytes that follow it; ValueError (naming the section what) for
    another sha256, or for a section that the rows, the lengths and the count bytes they give do not
    fill exactly.  Each count is read from its own slice of data."""
    end, start = at + size, at + 4 * (rows * rank + counts)
    with memoryview(data) as view:
        if hashlib.sha256(view[at:end]).digest() != data[end : end + _DIGEST]:
            raise ValueError(f"the {what} section's sha256 is not the stored one")
    if start > end:
        raise ValueError(f"the {what} section's rows and lengths pass its {size} bytes")
    nus = np.frombuffer(data, dtype="<i4", count=rows * rank, offset=at).astype(np.int64).reshape(rows, rank)
    lengths = np.frombuffer(data, dtype="<u4", count=counts, offset=at + 4 * rows * rank)
    stops = (np.cumsum(lengths, dtype=np.int64) + start).tolist()
    if (stops[-1] if stops else start) != end:
        raise ValueError(f"the {what} section's lengths count {(stops[-1] if stops else start) - start} bytes of {end - start}")
    return nus, list(map(int.from_bytes, map(data.__getitem__, map(slice, [start, *stops], stops)), repeat("little")))


def _decomposition_section(rs: RootSystemData, head: dict, data: bytes, at: int) -> tuple[IrrepDecomposition, int]:
    """The decomposition and total_dim of the decomposition section at data[at:] (_read_section);
    ValueError for a component that is not dominant, components not strictly increasing in
    lexicographic order, a count of 0 or sum_lam c_lam dim V_lam != total_dim."""
    k = head["components"]
    lams, counts = _read_section(data, at, head["decomposition_bytes"], "decomposition", k, rs.rank, k + 1)
    total_dim = counts.pop()
    if (lams < 0).any():
        raise ValueError(f"component {tuple(lams[(lams < 0).any(axis=1)][0].tolist())} is not dominant")
    # row i + 1 follows row i iff their first differing coordinate grows
    steps = lams[1:] - lams[:-1]
    if (down := np.flatnonzero(steps[np.arange(len(steps)), (steps != 0).argmax(axis=1)] <= 0)).size:
        pair = tuple(lams[down[0]].tolist()), tuple(lams[down[0] + 1].tolist())
        raise ValueError(f"components {pair[0]} and {pair[1]} are not in strictly increasing lexicographic order")
    if 0 in counts:
        raise ValueError(f"component {tuple(lams[counts.index(0)].tolist())} has count 0")
    dims = _weyl_dims(rs, (lams + 1) @ np.array(rs.pairing_rows, dtype=np.int64).T)
    if (total := sum(map(mul, counts, dims))) != total_dim:
        raise ValueError(f"the components account for dimension {total} of {total_dim}")
    lams.setflags(write=False)
    return IrrepDecomposition(lams, counts, dims), total_dim


@lru_cache(maxsize=1)  # a whole read asks twice, for the table's check and then for the spec's
def _casimir_trace(rs: RootSystemData, dec: IrrepDecomposition) -> int:
    """sum_lam c_lam dim V_lam (N(lam + rho) - N(rho)), N = scaled_norm: s^2 b_g / 2 times the trace of the
    Casimir on the sum of the components, sum_lam c_lam dim V_lam (lam, lam + 2 rho)."""
    lifts = (_squared_norms(dec.rows + 1, rs.pairing_rows) - scaled_norm(rs, rs.rho)).tolist()
    return sum(map(mul, dec.counts, map(mul, dec.dims, lifts)))


def check_decomposition(rs: RootSystemData, dec: IrrepDecomposition, total_dim: int, factors) -> None:
    """ValueError unless dec, whose components account for total_dim (as its reader checked), is the
    decomposition of V = prod_l V_lam_l^(n_l), factors its (lam_l, n_l) pairs of rs's type: unless
    total_dim is dim V = prod_l dim V_lam_l^n_l and the Casimir trace sum_lam c_lam dim V_lam (lam, lam +
    2 rho) is dim V sum_l n_l (lam_l, lam_l + 2 rho), in the integers of scaled_norm.  The Casimir acts on
    V_lam by (lam, lam + 2 rho) and on V as sum_l of its factors' Casimirs plus the cross terms Omega_ij,
    each traceless, so both hold for every genuine decomposition; the trace catches a unit moved between
    components of different Casimir, the total a dropped component.  Neither tells apart components
    exchanged by a diagram automorphism, such as (a, b) and (b, a) on A2, which have the same dimension
    and Casimir."""
    factors = [(highest_weight(rs, lam), n) for lam, n in factors]
    if total_dim != (dim := prod(weyl_dim(rs, lam) ** n for lam, n in factors)):
        raise ValueError(f"the components account for dimension {total_dim}; V has dimension {dim}")
    rho = scaled_norm(rs, rs.rho)
    if _casimir_trace(rs, dec) != dim * sum(n * (scaled_norm(rs, [x + 1 for x in lam]) - rho) for lam, n in factors):
        raise ValueError("the components' Casimir trace is not V's")


def load_decomposition(path, rs: RootSystemData, factors) -> IrrepDecomposition:
    """The decomposition that save_multiplicity_map wrote to path, read from the header line and the
    decomposition section alone, checked as that of V = prod_l V_lam_l^(n_l), factors its (lam_l, n_l)
    pairs, of rs's type: ValueError for a bad header, a file of another type, a section the file does
    not hold, each check of _decomposition_section and each of check_decomposition.  The table section
    is neither read nor checked."""
    with open(path, "rb") as fh:
        head = _header(fh.readline())
        size = head["decomposition_bytes"] + _DIGEST
        if fh.tell() + size > os.fstat(fh.fileno()).st_size:
            raise ValueError(f"the decomposition section of {size} bytes passes the end of the file")
        section = fh.read(size)
    if head["cartan_type"] != str(rs.cartan_type):
        raise ValueError(f"a decomposition of {head['cartan_type']}, not of {rs.cartan_type}")
    dec, total_dim = _decomposition_section(rs, head, section, 0)
    check_decomposition(rs, dec, total_dim, factors)
    return dec


def load_multiplicity_map(path) -> MultiplicityMap:
    """The map save_multiplicity_map wrote to path, W-invariant under its stored type, with its
    decomposition attached: racah_decompose on it runs no W-sum.

    The file is read once: ValueError for a bad header, a body of another
    size than its sections, and each check of _decomposition_section and _read_section (so a truncated
    or bit-flipped file is refused); UnsupportedType or WeylCapExceeded for its type.  The constructor's
    checks run as for any map (ValueError, NotDominant).  Then the components must account for the table
    by the Casimir identity rank sum_lam c_lam dim V_lam (lam, lam + 2 rho) = dim g sum_mu m(mu) (mu, mu)
    over every weight, or ValueError: in the integers of N = scaled_norm, rank _casimir_trace = dim g
    sum_mu m(mu) |W mu| N(mu) over the dominant rows, one int64 product |W mu| N(mu) per row
    (_squared_norms).  A unit moved between components of equal dimension and different Casimir fails
    it; components exchanged by a diagram automorphism pass.  The digests guard against storage faults,
    not against a wrong writer; the map is V's for a spec only once check_decomposition passes on its
    decomposition."""
    with open(path, "rb") as fh:
        data = fh.read()
    line = data.partition(b"\n")[0]
    head = _header(line)
    rs = build_root_system(CartanType.parse(head["cartan_type"]))
    at = len(line) + 1
    table = at + head["decomposition_bytes"] + _DIGEST
    if len(data) != table + head["table_bytes"] + _DIGEST:
        raise ValueError(f"the header's sections take {table + head['table_bytes'] + _DIGEST - at} bytes of a body of {len(data) - at}")
    dec, total_dim = _decomposition_section(rs, head, data, at)
    rows, counts = _read_section(data, table, head["table_bytes"], "table", head["rows"], rs.rank, head["rows"])
    m = MultiplicityMap(rs, rows, counts, total_dim)
    moments = (np.array(m.sizes, dtype=np.int64) * _squared_norms(m.rows, rs.pairing_rows)).tolist()
    if rs.rank * _casimir_trace(rs, dec) != rs.dim_g * sum(map(mul, m.counts, moments)):
        raise ValueError("the components' Casimir sum does not match the map's second moment")
    m._decomposition = dec
    return m
