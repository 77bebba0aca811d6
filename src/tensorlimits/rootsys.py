"""Root-system, Weyl-group, and bilinear-form data for simple Lie algebras.

Supported families are A, B, C, D (rank >= 2), G2 and F4.  The E family is
rejected, and build_root_system refuses a Weyl group above its cap, because
Racah's shift table and every eta^e atom walk a W-orbit of |W| points.

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
v_j -= C[j][i] v_i: to_dominant applies it while some v_i is negative;
orbit(lam) walks back from a dominant lam, applying it wherever v_i is
positive; shifted_dominant runs to_dominant on mu + rho and returns ON_WALL
if a coordinate is zero.  None builds a Weyl matrix; RootSystemData.weyl
enumerates them on first read, for rootsys info, to_dominant_shifted and
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math
import re

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


def _enumerate_weyl(c: IntMatrix, expected: int) -> tuple[WeylElement, ...]:
    """All of W as matrices on omega-coords, by length, each length sorted.

    Breadth first from the identity by left multiplication with s_i, which
    is the integer reflection applied to rows: row j -= C[j][i] * row i.
    """
    r = len(c)
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    lengths = {ident: 0}
    frontier = [ident]
    order = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for i in range(r):
                sw = tuple(tuple([x - c[j][i] * y for x, y in zip(w[j], w[i])]) for j in range(r))
                if sw not in lengths:
                    lengths[sw] = depth
                    nxt.append(sw)
        nxt.sort()
        order.extend(nxt)
        frontier = nxt
    if len(order) != expected:
        raise WeylCapExceeded(f"enumerated {len(order)} Weyl elements, expected {expected}")
    return tuple(WeylElement(m, lengths[m], -1 if lengths[m] % 2 else 1) for m in order)


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
        """Every Weyl element with its length and sign, shortest first."""
        return _enumerate_weyl(self.C, weyl_group_order(self.cartan_type))

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
    """lam as a tuple, or NotDominant unless it has rank coordinates, none negative."""
    lam = tuple(lam)
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


def orbit(rs: RootSystemData, lam) -> set:
    """W-orbit of the dominant weight lam, as a set of integer tuples: to_dominant's
    loop run backwards, applying s_i from lam wherever v_i > 0."""
    c = rs.C
    seen = {highest_weight(rs, lam)}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for i, vi in enumerate(v):
            if vi > 0:
                u = tuple([x - row[i] * vi for x, row in zip(v, c)])
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return seen


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
