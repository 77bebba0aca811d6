"""Root-system, Weyl-group, and bilinear-form data for simple Lie algebras.

Supported families are A, B, C, D (rank >= 2), G2 and F4.  The E family is
rejected, and build_root_system refuses a Weyl group above its cap, because
the decomposition reads |W| shifts per dominant weight and eta^e |W| points per atom.

Conventions, fixed once and used everywhere else in the package:

* Weights are integer vectors in the fundamental-weight basis (omega-coords).
* The Cartan matrix is row normalized, c_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
  so a root beta = sum l_i alpha_i has omega-coords C @ l.
* The standard bilinear form is fixed by (alpha_i, alpha_j) = d_i c_ij with long
  simple roots of squared length 2, hence d_i in {1, 1/2, 1/3}.
* The Gram matrix of the fundamental weights is (C^-1)^t diag(d), its inverse
  diag(d)^-1 C^t, and (omega_i, alpha_j) = d_i delta_ij.
* Exact pairings are integers (x, beta) s = row_beta . x of pairing_rows, s the
  lcm of the d_j's denominators, and exact norms their sums of squares, scaled_norm.

All but the |W| table, which the cap reads first, comes from C by one integer
reflection s_i or a closed formula.  On simple-root coordinates s_i is
beta_i -= sum_j c_ij beta_j, and it generates the positive roots from the
simple ones; b_g = 2 + 2 (rho, theta) off theta's pairing row; one exact
inverse C^-1 gives both Gram matrices.  On omega-coords s_i is
v_j -= C[j][i] v_i.
W-orbits are walked in one place, _weyl_walk, once per Cartan matrix and 0/1
zero pattern, applying s_i wherever v_i is positive, and replayed in one place,
_replay, which takes the walk's steps on whole int64 arrays one length at a time:
orbit_rows replays it on dominant weights with the pattern's zeros, and |W mu| is
its length; _weyl_matrices replays the walk from rho, all of W, on the identity,
for RootSystemData.weyl (built on first read, for rootsys info and the tests) and
the chamber table of to_dominant_rows, which names each u in W by its own root
images, the positive roots u sends below zero; the decomposition's shifts
rho - w rho are the walk's points.
Two numpy kernels act on whole int64 arrays of weights, and they are the
package's only shifted Weyl action w . mu = w(mu + rho) - rho, for eta^e and
its pushforward: to_dominant_rows finds the dominant point of every row
(mu + rho on a wall iff it has a zero; the decomposition, both recursions and
m[weight] read there too) by one lookup of the Weyl element that folds it,
named by the set of positive roots the row pairs negatively with; orbit_rows
replays the walk of one zero pattern on many dominant weights.  Both refuse a
coordinate of |x| >= 2^31, so no product wraps in int64 or leaves the exact
range of a float; the decomposition and both recursions, whose rows the
package builds itself within a stated bound, call the unchecked kernel
_dominant_rows behind to_dominant_rows.  sums_by_row is their exact grouped sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
import math
import operator
import re

import numpy as np

from .errors import BasisMismatch, NotDominant, UnsupportedType, WeylCapExceeded
from .linalg import Matrix, inverse

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]

_FAMILIES = ("A", "B", "C", "D", "G", "F")


@dataclass(frozen=True)
class CartanType:
    """A simple-type letter plus rank, e.g. CartanType('B', 2)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UnsupportedType(f"unsupported family {self.family!r} (supported: A, B, C, D, G2, F4)")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise UnsupportedType(f"rank must be a positive integer, got {self.rank!r}")
        if self.family == "D" and self.rank < 2:
            raise UnsupportedType("family D requires rank >= 2")
        if self.family == "G" and self.rank != 2:
            raise UnsupportedType("family G requires rank = 2")
        if self.family == "F" and self.rank != 4:
            raise UnsupportedType("family F requires rank = 4")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        """Parse 'A3', 'b2', 'F4' style labels."""
        m = re.fullmatch(r"\s*([A-Za-z])\s*(\d+)\s*", text)
        if not m:
            raise UnsupportedType(f"cannot parse Cartan type {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class WeylElement:
    """One Weyl group element, stored as its action on omega-coords."""

    matrix: IntMatrix
    length: int
    sign: int

    def apply(self, v: IntVector) -> IntVector:
        return tuple(sum(m * x for m, x in zip(row, v)) for row in self.matrix)


DEFAULT_WEYL_CAP = 10_000


def cartan_matrix(t: CartanType) -> IntMatrix:
    """Cartan matrix in the Bourbaki node ordering for each family."""
    r = t.rank
    c = [[0] * r for _ in range(r)]
    for i in range(r):
        c[i][i] = 2
    # chain edges first, family-specific corrections after
    for i in range(r - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if t.family == "B" and r >= 2:
        c[r - 1][r - 2] = -2
    elif t.family == "C" and r >= 2:
        c[r - 2][r - 1] = -2
    elif t.family == "D":
        if r == 2:
            c[0][1] = c[1][0] = 0
        else:
            c[r - 2][r - 1] = c[r - 1][r - 2] = 0
            c[r - 3][r - 1] = c[r - 1][r - 3] = -1
    elif t.family == "G":
        c[1][0] = -3
    elif t.family == "F":
        c[2][1] = -2
    return tuple(tuple(row) for row in c)


def _symmetrizers(c: IntMatrix) -> tuple[Fraction, ...]:
    """Positive d_i with diag(d) @ C symmetric, normalized so max(d) = 1."""
    r = len(c)
    d: list[Fraction | None] = [None] * r
    for start in range(r):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(r):
                if c[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * Fraction(c[i][j], c[j][i])
                    queue.append(j)
    top = max(d)
    return tuple(x / top for x in d)


def _positive_roots(c: IntMatrix) -> tuple[IntVector, ...]:
    """Positive roots in simple-root coordinates, sorted by (height, root): the
    closure of the simple roots under the s_i, which permute the positive roots
    other than alpha_i (skipped); every root is W-conjugate to a simple one."""
    r = len(c)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    found = set(simple)
    stack = list(simple)
    while stack:
        beta = stack.pop()
        for i in range(r):
            pairing = sum(c[i][j] * beta[j] for j in range(r))
            if pairing and beta != simple[i]:
                image = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
                if image not in found:
                    found.add(image)
                    stack.append(image)
    return tuple(sorted(found, key=lambda v: (sum(v), v)))


def weyl_group_order(t: CartanType) -> int:
    """Order of the Weyl group, from the classical tables."""
    r = t.rank
    fact = math.factorial(r)
    if t.family == "A":
        return fact * (r + 1)
    if t.family in ("B", "C"):
        return (2**r) * fact
    if t.family == "D":
        return (2 ** (r - 1)) * fact
    if t.family == "G":
        return 12
    return 1152  # F4


@dataclass(frozen=True, eq=False)
class RootSystemData:
    """Immutable bundle of everything downstream modules need about one type.

    The first block of fields is the public contract; the trailing fields are
    precomputed caches (C^-1, the integer pairing rows and their scale s) that
    keep the hot loops in other modules simple.  All come from C:
    positive_roots by reflection, b_g from the highest root's pairing row,
    both Gram matrices from C and C^-1.
    The Weyl group as matrices, weyl, is built on first read; |W| comes from
    weyl_group_order.
    """

    cartan_type: CartanType
    C: IntMatrix
    d: tuple[Fraction, ...]
    Cbar: Matrix
    positive_roots: tuple[IntVector, ...]
    rho: IntVector
    gram_omega: Matrix
    gram_omega_inv: Matrix
    b_g: int
    dim_g: int
    # caches
    C_inv: Matrix
    pairing_rows: tuple[IntVector, ...]
    pairing_scale: int

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @cached_property
    def weyl(self) -> tuple[WeylElement, ...]:
        """Every Weyl element with its length and sign, sorted by (length, matrix):
        the matrices of _weyl_matrices.  Read by rootsys info and the tests only; the
        package's W computations replay the walk on weights or read _chamber_table."""
        lengths = _weyl_walk(self.C, self.rho)[2]
        mats = [tuple(map(tuple, m)) for m in _weyl_matrices(self.C).tolist()]
        expected = weyl_group_order(self.cartan_type)
        if len(mats) != expected:
            raise WeylCapExceeded(f"walked {len(mats)} Weyl elements, expected {expected}")
        return tuple(WeylElement(m, n, -1 if n % 2 else 1) for n, m in sorted(zip(lengths, mats)))

    def __repr__(self) -> str:
        order = weyl_group_order(self.cartan_type)
        return f"RootSystemData({self.cartan_type}, |W|={order}, dim_g={self.dim_g})"


def build_root_system(t: CartanType | str) -> RootSystemData:
    """The full root-system bundle for one Cartan type, built once per type and process.

    Raises UnsupportedType for bad labels and WeylCapExceeded, before any
    root is generated, when the Weyl group order exceeds DEFAULT_WEYL_CAP;
    a refused type is refused again on every call.
    """
    return _build_root_system(CartanType.parse(t) if isinstance(t, str) else t)


@cache
def _build_root_system(t: CartanType) -> RootSystemData:
    expected = weyl_group_order(t)
    if expected > DEFAULT_WEYL_CAP:
        raise WeylCapExceeded(f"Weyl group order {expected} exceeds cap {DEFAULT_WEYL_CAP}")
    c = cartan_matrix(t)
    d = _symmetrizers(c)
    r = t.rank
    cbar = tuple(tuple(d[i] * c[i][j] for j in range(r)) for i in range(r))
    pos = _positive_roots(c)
    c_inv = inverse(c)
    # (x, beta) s for x in omega-coords and beta = sum l_j alpha_j is sum_j x_j s d_j l_j,
    # so row beta holds the integers s d_j l_j, for s the lcm of the d_j's denominators
    s = math.lcm(*(x.denominator for x in d))
    sd = [int(s * x) for x in d]
    rows = tuple(tuple([a * l for a, l in zip(sd, root)]) for root in pos)
    # b_g = 2 h^v = 2 + 2 (rho, theta), theta the highest root (the last one)
    b_g = 2 + Fraction(2 * sum(rows[-1]), s)
    assert b_g.denominator == 1, f"{t}: b_g = {b_g} is not an integer"
    return RootSystemData(
        cartan_type=t,
        C=c,
        d=d,
        Cbar=cbar,
        positive_roots=pos,
        rho=(1,) * r,
        gram_omega=tuple(tuple(c_inv[j][i] * d[j] for j in range(r)) for i in range(r)),
        gram_omega_inv=tuple(tuple(c[j][i] / d[i] for j in range(r)) for i in range(r)),
        b_g=b_g.numerator,
        dim_g=2 * len(pos) + r,
        C_inv=c_inv,
        pairing_rows=rows,
        pairing_scale=s,
    )


def scaled_norm(rs: RootSystemData, x) -> int:
    """sum_beta (row_beta . x)^2 = s^2 (b_g / 2) (x, x) for x in omega-coords, s = pairing_scale:
    the Killing form, sum_(beta > 0) (x, beta)^2 = (b_g / 2) (x, x) on the Cartan subalgebra."""
    return sum(sum(map(operator.mul, row, x)) ** 2 for row in rs.pairing_rows)


def is_dominant(mu) -> bool:
    return all(x >= 0 for x in mu)


def highest_weight(rs: RootSystemData, lam) -> IntVector:
    """lam as a tuple of ints, or NotDominant unless it has rank coordinates,
    each an integer (operator.index takes it) and none negative."""
    lam = tuple(lam)
    if any(type(x) is not int for x in lam):
        try:
            lam = tuple([operator.index(x) for x in lam])
        except TypeError:
            raise NotDominant(f"{lam} has a coordinate that is not an integer") from None
    if len(lam) != rs.rank:
        raise NotDominant(f"{lam} has {len(lam)} coordinates; {rs.cartan_type} needs {rs.rank}")
    if not is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant")
    return lam


def check_length(rs: RootSystemData, n: int, what: str) -> None:
    """Raise BasisMismatch, naming both lengths, unless a what of length n fits rs."""
    if n != rs.rank:
        raise BasisMismatch(f"{what} of length {n}; {rs.cartan_type} {what}s have length {rs.rank}")


# a weight whose coordinates stay below this bound in absolute value has exact
# products with the pairing rows and Weyl matrices, in int64 and in float64,
# so the array kernels refuse anything larger
_ROW_LIMIT = 2**31


def _int_rows(rs: RootSystemData | None, v) -> np.ndarray:
    """v as an (n, rank) int64 array: BasisMismatch unless v is one weight of
    the rank (any one rank when rs is None) per row, ValueError naming the first
    weight with a coordinate of |x| >= _ROW_LIMIT or one that is not an integer."""
    a = np.asarray(v)
    if a.size == 0:
        return np.zeros((0, rs.rank) if rs else (len(a), 0), dtype=np.int64)
    if a.ndim != 2:
        raise BasisMismatch(f"weights must be the rows of a 2-d array, got shape {a.shape}")
    if rs:
        check_length(rs, a.shape[1], "weight")
    big = np.flatnonzero((np.abs(a) >= _ROW_LIMIT).any(axis=1))
    if big.size:
        raise ValueError(f"weight {tuple(a[big[0]].tolist())} has a coordinate of absolute value >= 2^31")
    rows = a.astype(np.int64)
    if a.dtype.kind not in "iu":
        inexact = np.flatnonzero((rows != a).any(axis=1))
        if inexact.size:
            raise ValueError(f"weight {tuple(a[inexact[0]].tolist())} is not integral")
    return rows


def to_dominant_rows(rs: RootSystemData, v) -> np.ndarray:
    """The dominant point of the W-orbit of every row of v (ordinary, unshifted action),
    as a new (n, rank) int64 array: _dominant_rows on v checked by _int_rows.

    A row of another length raises BasisMismatch, a coordinate of |x| >= 2^31 or
    one that is not an integer ValueError.
    """
    return _dominant_rows(rs, _int_rows(rs, v))


def _dominant_rows(rs: RootSystemData, rows: np.ndarray) -> np.ndarray:
    """to_dominant_rows without its checks: rows must be an (n, rank) int64 array
    with every |x| < 2^32, and the result is a new array.

    A row with no negative coordinate is its own dominant point.  Any other row v
    is moved by the shortest u in W with u v dominant, and u is named by its
    inversion set N(u) = {beta > 0 : u beta < 0}, which equals
    N(v) = {beta > 0 : (v, beta) < 0} (Humphreys, Reflection Groups and Coxeter
    Groups, sections 1.6-1.7; a beta with u beta < 0 and (v, beta) = 0 would make
    u s_beta shorter and still send v to u v).  So each such row takes one product
    with the pairing rows, its bitmask key over the positive roots, one
    np.searchsorted among the |W| keys of _chamber_table and one product with the
    integer matrix of u found there.  Both products are exact: each pairing row
    has absolute sum at most 16 and each row of a matrix of W at most 11 under the
    Weyl cap, so |row . x| < 16 * 2^32 < 2^53 in float64 and |M_u v| < 11 * 2^32
    in int64, and there are at most 25 positive roots, so the keys stay below 2^25.
    """
    out = rows.copy()
    # column by column: numpy's any(axis=1) over a few columns is several times slower
    moved = np.flatnonzero(np.logical_or.reduce([col < 0 for col in rows.T]))
    if moved.size:
        pairings, bits, keys, maps = _chamber_table(rs)
        sub = rows[moved]
        at = np.searchsorted(keys, (sub @ pairings < 0) @ bits)
        out[moved] = np.einsum("nij,nj->ni", maps[at], sub)
    return out


@cache
def _chamber_table(rs: RootSystemData) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lookup of to_dominant_rows: (pairings, bits, keys, maps).

    pairings is the transposed pairing rows as a float (rank, |positive roots|)
    matrix, bits the float 2^k of the k-th positive root, keys the |W| inversion-set
    keys in increasing order and maps[k] the int64 matrix, in omega-coords, of the
    u in W whose inversion set has key keys[k].  Each u is named by its own root
    images: beta > 0 is in N(u) iff (u beta, rho) < 0, and M_u from _weyl_matrices
    takes beta's omega-coords C @ l to u beta, whose pairing with rho has the sign
    of its product with the column sums of pairing_rows, (u beta, 2 rho) s.
    """
    mats = _weyl_matrices(rs.C)
    pairings = np.array(rs.pairing_rows, dtype=np.int64).T
    bits = 2.0 ** np.arange(pairings.shape[1])
    roots = np.array(rs.C, dtype=np.int64) @ np.array(rs.positive_roots, dtype=np.int64).T
    keys = (pairings.sum(axis=1) @ (mats @ roots) < 0) @ bits
    order = np.argsort(keys)
    return pairings.astype(float), bits, keys[order], mats[order]


def _weyl_matrices(c: IntMatrix) -> np.ndarray:
    """The omega-coords matrix M_w of every w in W, as a (|W|, rank, rank) int64 array in
    the order of _weyl_walk(c, rho): _replay of the walk from rho on the identity, whose
    row j at w is w omega_j, transposed so that it is column j."""
    return _replay(c, (1,) * len(c), np.eye(len(c), dtype=np.int64)).transpose(0, 2, 1)


@cache
def _weyl_walk(
    c: IntMatrix, top: IntVector
) -> tuple[tuple[IntVector, ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The walk of the W-orbit of a dominant 0/1 vector top: (points, steps, lengths).

    Point k is w_k top, with w_0 = 1; step k - 1 is (parent, i) with
    w_k = s_i w_parent; lengths[k] is l(w_k), its depth.  Depth first, a step
    is taken only where (w top)_i > 0, so the w are the minimal coset
    representatives of W / Stab(top), each reached once (Bjorner-Brenti,
    ch. 2); from rho they are all of W.  The lemma behind every replay: for
    dominant lam with the zeros of top, (w lam)_i has the sign of (w top)_i,
    both being pairings with the coroot w^-1 alpha_i^v, whose coefficients
    share one sign; so the steps, replayed on lam, are the walk from lam.
    """
    index = {top: 0}
    steps, lengths = [], [0]
    stack = [top]
    while stack:
        v = stack.pop()
        k = index[v]
        for i, vi in enumerate(v):
            if vi > 0:
                u = tuple([x - row[i] * vi for x, row in zip(v, c)])
                if u not in index:
                    index[u] = len(index)
                    steps.append((k, i))
                    lengths.append(lengths[k] + 1)
                    stack.append(u)
    return tuple(index), tuple(steps), tuple(lengths)


def orbit_rows(rs: RootSystemData, lams) -> np.ndarray:
    """W-orbits of dominant weights of one zero pattern, as a (|W lam|, n, rank)
    int64 array whose [:, k] holds the orbit of lams[k] once per point, lams[k] first:
    _replay of the pattern's walk on every row (the lemma of _weyl_walk).  A row with a
    negative coordinate or the zeros of another row raises NotDominant, one of another
    length BasisMismatch, |x| >= 2^31 ValueError."""
    rows = _int_rows(rs, lams)
    pattern = (rows[:1] > 0).any(axis=0)
    bad = np.flatnonzero((rows < 0).any(axis=1) | ((rows > 0) != pattern).any(axis=1))
    if bad.size:
        raise NotDominant(f"{tuple(rows[bad[0]].tolist())} is not dominant with the zeros of {tuple(rows[0].tolist())}")
    return _replay(rs.C, tuple(pattern.astype(int).tolist()), rows)


def _replay(c: IntMatrix, top: IntVector, rows: np.ndarray) -> np.ndarray:
    """The steps of _weyl_walk(c, top) applied to every row of an (n, rank) int64 array,
    one length at a time, s_i being v -= v_i C[:, i]: a (len(walk), n, rank) array
    whose [k] holds w_k applied to each row, the rows themselves first."""
    out = np.empty((len(_weyl_walk(c, top)[0]),) + rows.shape, dtype=np.int64)
    out[0] = rows
    cols = np.array(c, dtype=np.int64).T
    for k, parents, i in _walk_by_length(c, top):
        v = out[parents]
        out[k] = v - v[np.arange(len(k)), :, i][:, :, None] * cols[i][:, None, :]
    return out


@cache
def _walk_by_length(c: IntMatrix, top: IntVector) -> tuple:
    """The steps of _weyl_walk(c, top) by the length of the point they reach, as int arrays
    (points, parents, i) per length: a parent is one shorter, so one numpy step takes them all."""
    _, steps, lengths = _weyl_walk(c, top)
    parents, i = np.array(steps, dtype=np.int64).reshape(-1, 2).T
    k, depth = np.arange(1, len(lengths)), np.array(lengths[1:], dtype=np.int64)
    return tuple((k[depth == d], parents[depth == d], i[depth == d]) for d in range(1, max(lengths) + 1))


def sums_by_row(rows, nums) -> tuple[np.ndarray, list]:
    """The distinct rows of an integer array in lexicographic order, each with the exact
    sum of the Python-int nums of its copies, by one np.lexsort and np.add.reduceat on
    an object array; rows whose sum is zero are dropped."""
    rows = np.asarray(rows)
    if not len(rows):
        return rows, []
    ranked = np.lexsort(rows.T[::-1])
    rows = rows[ranked]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    sums = np.add.reduceat(np.asarray(nums, dtype=object)[ranked], starts)
    return rows[starts[sums != 0]], sums[sums != 0].tolist()


def casimir_eigenvalue(rs: RootSystemData, lam) -> Fraction:
    """Casimir scalar (lam, lam + 2 rho) = (lam + rho)^2 - rho^2 on the irreducible with highest
    weight lam: 2 (scaled_norm(lam + rho) - scaled_norm(rho)) / (s^2 b_g), s = pairing_scale."""
    lam = highest_weight(rs, lam)
    diff = scaled_norm(rs, [x + 1 for x in lam]) - scaled_norm(rs, rs.rho)
    return Fraction(2 * diff, rs.pairing_scale**2 * rs.b_g)


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rootsys_to_json(rs: RootSystemData) -> dict:
    """Plain-JSON form: matrices as nested arrays, rationals as 'p/q' strings."""
    return {
        "cartan_type": str(rs.cartan_type),
        "cartan_matrix": [list(row) for row in rs.C],
        "symmetrizers": [_frac_str(x) for x in rs.d],
        "symmetrized_cartan": [[_frac_str(x) for x in row] for row in rs.Cbar],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "rho": list(rs.rho),
        "gram_omega": [[_frac_str(x) for x in row] for row in rs.gram_omega],
        "gram_omega_inv": [[_frac_str(x) for x in row] for row in rs.gram_omega_inv],
        "weyl": [
            {"matrix": [list(row) for row in w.matrix], "length": w.length, "sign": w.sign}
            for w in rs.weyl
        ],
        "b_g": rs.b_g,
        "dim_g": rs.dim_g,
    }
