"""Root-system, Weyl-group, and bilinear-form data for simple Lie algebras.

Supported families are A, B, C, D (rank >= 2), G2 and F4.  The E family is
rejected, and build_root_system refuses a Weyl group above its cap, because
Racah's sum walks the W-orbits of a character and every eta^e atom one of |W| points.

Conventions, fixed once and used everywhere else in the package:

* Weights are integer vectors in the fundamental-weight basis (omega-coords).
* The Cartan matrix is row normalized, c_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
  so a root beta = sum l_i alpha_i has omega-coords C @ l.
* The standard bilinear form is fixed by (alpha_i, alpha_j) = d_i c_ij with long
  simple roots of squared length 2, hence d_i in {1, 1/2, 1/3}.
* The Gram matrix of the fundamental weights is (C^-1)^t diag(d), its inverse
  diag(d)^-1 C^t, and (omega_i, alpha_j) = d_i delta_ij.

All but the |W| table, which the cap reads first, comes from C by one integer
reflection s_i or a closed formula.  On simple-root coordinates s_i is
beta_i -= sum_j c_ij beta_j, and it generates the positive roots from the
simple ones; b_g = 2 + 2 (rho, theta) for the highest root theta; one exact
inverse C^-1 gives both Gram matrices.  On omega-coords s_i is
v_j -= C[j][i] v_i: to_dominant applies it while some v_i is negative, and
shifted_dominant runs to_dominant on mu + rho and returns ON_WALL if a
coordinate is zero.  W-orbits are walked in one place, _weyl_walk, once per
Cartan matrix and 0/1 zero pattern, applying s_i wherever v_i is positive:
orbit, orbit_sizes and orbit_rows use the walk of a weight's pattern;
RootSystemData.weyl (built on first read, for rootsys info,
to_dominant_shifted and the tests) uses the walk from rho, all of W.  Two
numpy kernels run the rule on whole int64 arrays of weights, for Racah's sum,
eta^e and its pushforward: to_dominant_rows is to_dominant on every row,
orbit_rows the walk of one zero pattern replayed on many dominant weights.
Both refuse a coordinate of absolute value >= 2^31, so that no reflection
can wrap around in int64.  sums_by_row is their exact grouped sum.
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
from .linalg import Matrix, bilinear, inverse, mat_vec

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


class OnWall:
    """Marker: mu + rho is fixed by some reflection, so mu has no shifted dominant form."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OnWall"


ON_WALL = OnWall()

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
    precomputed caches (C^-1, roots in omega-coords, pairing vectors) that keep
    the hot loops in other modules simple.  All come from C: positive_roots by
    reflection, b_g from the highest root, both Gram matrices from C and C^-1.
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
    positive_roots_omega: tuple[IntVector, ...]
    root_pair_vectors: tuple[tuple[Fraction, ...], ...]
    rho_root_pairings: tuple[Fraction, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @cached_property
    def weyl(self) -> tuple[WeylElement, ...]:
        """Every Weyl element with its length and sign, sorted by (length, matrix):
        _weyl_walk replayed on the identity, row j -= C[j][i] * row i per step."""
        c = self.C
        _, steps, lengths = _weyl_walk(c, self.rho)
        r = len(c)
        mats = [tuple(tuple(int(i == j) for j in range(r)) for i in range(r))]
        for parent, i in steps:
            w = mats[parent]
            mats.append(tuple(tuple([x - c[j][i] * y for x, y in zip(w[j], w[i])]) for j in range(r)))
        expected = weyl_group_order(self.cartan_type)
        if len(mats) != expected:
            raise WeylCapExceeded(f"walked {len(mats)} Weyl elements, expected {expected}")
        return tuple(WeylElement(m, n, -1 if n % 2 else 1) for n, m in sorted(zip(lengths, mats)))

    def __repr__(self) -> str:
        order = weyl_group_order(self.cartan_type)
        return f"RootSystemData({self.cartan_type}, |W|={order}, dim_g={self.dim_g})"


def build_root_system(t: CartanType | str) -> RootSystemData:
    """Construct the full root-system bundle for one Cartan type.

    Raises UnsupportedType for bad labels and WeylCapExceeded, before any
    root is generated, when the Weyl group order exceeds DEFAULT_WEYL_CAP.
    """
    if isinstance(t, str):
        t = CartanType.parse(t)
    expected = weyl_group_order(t)
    if expected > DEFAULT_WEYL_CAP:
        raise WeylCapExceeded(f"Weyl group order {expected} exceeds cap {DEFAULT_WEYL_CAP}")
    c = cartan_matrix(t)
    d = _symmetrizers(c)
    r = t.rank
    cbar = tuple(tuple(d[i] * c[i][j] for j in range(r)) for i in range(r))
    pos = _positive_roots(c)
    c_inv = inverse(c)
    # (x, beta) for x in omega-coords and beta = sum l_i alpha_i is
    # sum_j x_j d_j l_j, so cache the vector (d_j l_j)_j per positive root
    pair_vecs = tuple(tuple(d[j] * l for j, l in enumerate(root)) for root in pos)
    # b_g = 2 h^v = 2 + 2 (rho, theta), theta the highest root (the last one)
    b_g = 2 + 2 * sum(pair_vecs[-1])
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
        positive_roots_omega=tuple(mat_vec(c, root) for root in pos),
        root_pair_vectors=pair_vecs,
        rho_root_pairings=tuple(sum(vec) for vec in pair_vecs),
    )


def is_dominant(mu) -> bool:
    return all(x >= 0 for x in mu)


def highest_weight(rs: RootSystemData, lam) -> IntVector:
    """lam as a tuple of ints, or NotDominant unless it has rank coordinates,
    each an integer (operator.index takes it) and none negative."""
    lam = tuple(lam)
    # a tuple of ints is kept as is, so orbit's first point is the dominant entry's key
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


def inner_product(rs: RootSystemData, u, v, basis: str = "omega", basis2: str | None = None):
    """Standard bilinear form of two vectors, each in a declared basis.

    basis / basis2 are 'omega' (fundamental-weight coords) or 'alpha'
    (simple-root coords); basis2 defaults to basis.  Exact on rational input.
    """
    if basis2 is None:
        basis2 = basis
    for b in (basis, basis2):
        if b not in ("omega", "alpha"):
            raise BasisMismatch(f"unknown basis {b!r} (expected 'omega' or 'alpha')")
    for vec in (u, v):
        check_length(rs, len(vec), "vector")
    if basis == basis2 == "omega":
        return bilinear(u, rs.gram_omega, v)
    if basis == basis2 == "alpha":
        return bilinear(u, rs.Cbar, v)
    if basis == "omega":
        # (omega_j, alpha_i) = d_j delta_ij
        return sum(x * dj * y for x, dj, y in zip(u, rs.d, v))
    return sum(x * dj * y for x, dj, y in zip(v, rs.d, u))


def shifted_action(rs: RootSystemData, w: WeylElement, beta) -> IntVector:
    """Shifted Weyl action w * beta = w(beta + rho) - rho."""
    shifted = tuple(b + 1 for b in beta)
    image = w.apply(shifted)
    return tuple(x - 1 for x in image)


def to_dominant(rs: RootSystemData, mu) -> IntVector:
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


# reflections of a weight whose coordinates stay below this bound in absolute
# value cannot leave int64, so the array kernels refuse anything larger
_ROW_LIMIT = 2**31


def _int_rows(rs: RootSystemData, v) -> np.ndarray:
    """v as an (n, rank) int64 array: BasisMismatch unless v is one weight of
    the rank per row, ValueError naming the first weight with a coordinate of
    |x| >= _ROW_LIMIT or one that is not an integer."""
    a = np.asarray(v)
    if a.size == 0:
        return np.zeros((0, rs.rank), dtype=np.int64)
    if a.ndim != 2:
        raise BasisMismatch(f"weights must be the rows of a 2-d array, got shape {a.shape}")
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
    """to_dominant on every row of v at once, as a new (n, rank) int64 array.

    Each pass applies v_j -= C[j][i] v_i, at the first negative v_i, to the
    rows that still have one; a pass undoes one inverted root per row, so
    there are at most |positive roots| passes.  A row of another length raises
    BasisMismatch, a coordinate of |x| >= 2^31 ValueError.
    """
    rows = _int_rows(rs, v)
    c = np.array(rs.C, dtype=np.int64)
    active = np.flatnonzero((rows < 0).any(axis=1))
    while active.size:
        sub = rows[active]
        i = (sub < 0).argmax(axis=1)
        sub -= c.T[i] * sub[np.arange(len(sub)), i][:, None]
        rows[active] = sub
        active = active[(sub < 0).any(axis=1)]
    return rows


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
    the walk of the pattern replayed on every row (the lemma of _weyl_walk), as
    in orbit.  A row with a negative coordinate or the zeros of another row raises
    NotDominant, one of another length BasisMismatch, a coordinate of |x| >= 2^31
    ValueError."""
    rows = _int_rows(rs, lams)
    pattern = (rows[:1] > 0).any(axis=0)
    bad = np.flatnonzero((rows < 0).any(axis=1) | ((rows > 0) != pattern).any(axis=1))
    if bad.size:
        raise NotDominant(f"{tuple(rows[bad[0]].tolist())} is not dominant with the zeros of {tuple(rows[0].tolist())}")
    c = np.array(rs.C, dtype=np.int64)
    _, steps, _ = _weyl_walk(rs.C, tuple(pattern.astype(int).tolist()))
    out = np.empty((len(steps) + 1,) + rows.shape, dtype=np.int64)
    out[0] = rows
    for k, (parent, i) in enumerate(steps, 1):
        v = out[parent]
        out[k] = v - v[:, i, None] * c[:, i]
    return out


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


def orbit(rs: RootSystemData, lam) -> set:
    """W-orbit of the dominant weight lam, as a set of integer tuples: the walk
    of lam's zero pattern replayed on lam (the lemma of _weyl_walk)."""
    lam = highest_weight(rs, lam)
    c = rs.C
    _, steps, _ = _weyl_walk(c, tuple([int(x > 0) for x in lam]))
    images = [lam]
    for parent, i in steps:
        v = images[parent]
        vi = v[i]
        images.append(tuple([x - row[i] * vi for x, row in zip(v, c)]))
    return set(images)


def orbit_sizes(rs: RootSystemData, weights) -> list[int]:
    """|W mu| for each dominant mu of weights: the points of the walk of mu's
    zero pattern.  A weight that is not dominant or not of the rank raises
    NotDominant, from highest_weight on its sign pattern."""
    by_pattern = {}
    sizes = []
    for mu in weights:
        pattern = tuple([(x > 0) - (x < 0) for x in mu])
        size = by_pattern.get(pattern)
        if size is None:
            size = by_pattern[pattern] = len(_weyl_walk(rs.C, highest_weight(rs, pattern))[0])
        sizes.append(size)
    return sizes


def shifted_dominant(rs: RootSystemData, mu):
    """lam with lam + rho the dominant point of W(mu + rho), or ON_WALL.

    The dominant point has a zero coordinate exactly when mu + rho lies on a
    wall, i.e. when some shifted reflection fixes mu.
    """
    v = to_dominant(rs, [x + 1 for x in mu])
    if 0 in v:
        return ON_WALL
    return tuple(x - 1 for x in v)


def to_dominant_shifted(rs: RootSystemData, mu):
    """Shifted-dominant form of mu: (w, lam) with w * lam = mu, or ON_WALL.

    lam comes from shifted_dominant; w is the unique Weyl element with
    w * lam = mu (unique because lam + rho is strictly dominant), found by
    scanning the group.
    """
    lam = shifted_dominant(rs, mu)
    if lam is ON_WALL:
        return ON_WALL
    mu = tuple(mu)
    w = next(w for w in rs.weyl if shifted_action(rs, w, lam) == mu)
    return w, lam


def casimir_eigenvalue(rs: RootSystemData, lam) -> Fraction:
    """Casimir scalar (lam, lam + 2 rho) on the irreducible with highest weight lam."""
    lam = highest_weight(rs, lam)
    shifted = tuple(x + 2 for x in lam)
    return bilinear(lam, rs.gram_omega, shifted)


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
