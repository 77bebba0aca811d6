"""Closed-form limiting densities and their normalization checks.

All densities live on R^r in fundamental-weight coordinates x = sum x_i w_i
and share the Gaussian core exp(-(x,x)/2) with the common constant
K = sqrt(det(diag(d)) / det(C)) / (2 pi)^(r/2) = sqrt(det gram_omega) / (2 pi)^(r/2):

* xi:            K exp(-(x,x)/2)
* eta:           K prod_{a>0} (x,a)^2 / prod_{a>0} (rho,a) exp(-(x,x)/2)   on the dominant cone
* eta_extended:  the eta formula divided by |W|, on all of R^r
* gue:           the eta density of type A, where it coincides with the
                 squared-Vandermonde eigenvalue density of traceless GUE

The polynomial is even, so the extended formula is W-invariant as written.
(x,a) and (rho,a) come from the pairing row of a over its scale s, as int / int floats.

Each model has one kernel, DensityModel.values, which takes the coordinates
as separate arrays that broadcast together and is split in two halves along
the first coordinate x_0:

* hoist(xs[1:]), the terms free of x_0: -(1/2) sum_{i,j >= 1} x_i g_ij x_j,
  the coefficient -sum_{j >= 1} g_0j x_j of x_0, norm_const times the
  squared pairings (x,a) of the roots a with a_0 = 0, the partial pairings
  of the other roots without their x_0 term, and the cone test x_i >= 0;
* slab(x0, hoisted), which adds x_0: one exp of the exponent, then one
  multiply-square per root whose pairing involves x_0, into an array that
  the hoisted half keeps for the next slab, and the cone mask only where
  some point lies outside the cone.

values is slab(xs[0], hoist(xs[1:])).  On the 1-D axes of a tensor grid,
np.ix_(*axes), every term and pairing is built on only the axes it depends
on, and no mesh of points is stacked.  A point array is the same kernel on
its coordinates (evaluate), so the point and grid values agree to the last
bit.

Every density grid (this module's normalization quadrature, the convergence
module's TV boxes) is one walk of _grid_slabs over a box from density_box: it
builds the hoisted half once per grid and calls slab once per slab of boxes
along the first axis (several one-box slabs per call, about SLAB_POINTS
points, when boxes are not subdivided), and its consumer uses each slab before
the next is made.  box_masses sums each slab into its boxes; the quadrature
sums each slab's values, adds the slab sums in slab order and multiplies once
by the cell volume, holding no array of the grid.  Every kind is even in x,
and the box of xi and eta_extended is symmetric about 0, so their quadrature
walks only the slabs at x_0 >= 0 and counts each twice, the centre row
x_0 = 0 of an odd grid once (the cone kinds walk the whole box).  So memory is one slab of
sub * (bins * sub)^(r-1) values (or about SLAB_POINTS) plus the
O((bins * sub)^(r-1)) hoisted arrays and slab's reused squares, besides
box_masses's bins^r masses, and MAX_GRID_POINTS bounds the work of a grid:
no grid has more points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import GridCapExceeded, OutsideDomain, RankTooLarge, TraceNotZero, UnsupportedType
from .linalg import determinant
from .rootsys import RootSystemData, build_root_system, check_length, weyl_group_order

KINDS = ("xi", "eta", "eta_extended", "gue")

_DEFAULT_RESOLUTION = {1: 4000, 2: 800, 3: 120}
# the most points a density grid evaluates: about ten times the default rank-3
# quadrature (120^3); it bounds the work, as memory is one slab (_grid_slabs)
MAX_GRID_POINTS = 2**24
# points _grid_slabs hands one slab call when boxes are not subdivided
SLAB_POINTS = 2**15


class Hoisted(NamedTuple):
    """The terms of a density kernel that do not depend on x_0, on coordinates x_1, ..., x_(r-1)."""

    exponent: np.ndarray  # -(1/2) sum_{i,j >= 1} x_i g_ij x_j
    slope: np.ndarray  # the coefficient of x_0 in -(x,x)/2: -sum_{j >= 1} g_0j x_j
    factor: np.ndarray  # norm_const prod (x,a)^2 over the roots a free of x_0
    partials: tuple  # (x,a) without its x_0 term, for each root a whose pairing has one
    inside: np.ndarray  # x_1, ..., x_(r-1) >= 0 for the cone-supported kinds, else True
    squares: dict  # slab's arrays for (x,a)^2 by shape, reused by every slab of a grid


@dataclass(frozen=True, eq=False)
class DensityModel:
    """One density with its precomputed constant and the float coefficients of its kernel."""

    rs: RootSystemData
    kind: str
    norm_const: float

    def __post_init__(self):
        gram = tuple(tuple(float(x) for x in row) for row in self.rs.gram_omega)
        # (x, alpha) for each positive root, summed over the coordinates where alpha is nonzero
        s = self.rs.pairing_scale
        pairs = () if self.kind == "xi" else [[x / s for x in row] for row in self.rs.pairing_rows]
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_cone", self.kind in ("eta", "gue"))
        object.__setattr__(self, "_free", tuple(_terms(vec) for vec in pairs if not vec[0]))
        object.__setattr__(self, "_x0_terms", tuple((vec[0], _terms(vec)) for vec in pairs if vec[0]))

    def hoist(self, rest) -> Hoisted:
        """The x_0-free half of the kernel, on coordinate arrays rest = xs[1:] that broadcast together.

        A grid builds it once, on the axes other than the first, and then
        calls slab once per slab of first coordinates.
        """
        xs = [None, *(np.asarray(x, dtype=float) for x in rest)]  # xs[i] is x_i; x_0 is not here
        g = self._gram
        q = reduce(operator.add, ((xs[i] * g[i][j]) * xs[j] for i in range(1, len(xs)) for j in range(1, len(xs))), 0.0)
        slope = reduce(operator.add, (g[0][j] * xs[j] for j in range(1, len(xs))), 0.0)
        factor = reduce(operator.mul, (p * p for p in _pairings(self._free, xs)), self.norm_const)
        partials = tuple(_pairings((t for _, t in self._x0_terms), xs))
        inside = reduce(operator.and_, (x >= 0 for x in xs[1:]), True) if self._cone else True
        return Hoisted(-0.5 * q, -slope, factor, partials, inside, {})

    def slab(self, x0, hoisted: Hoisted) -> np.ndarray:
        """Density values at first coordinates x0 that broadcast with the arrays of hoisted:
        one exp, then one multiply-square per root whose pairing involves x_0."""
        x0 = np.asarray(x0, dtype=float)
        # a fresh array of the full shape, so the steps below can work in place
        vals = np.asarray(hoisted.slope + (-0.5 * self._gram[0][0]) * x0)
        vals *= x0
        vals += hoisted.exponent
        np.exp(vals, out=vals)
        vals *= hoisted.factor
        for (v, _), partial in zip(self._x0_terms, hoisted.partials):
            # one array per shape and grid: freeing and taking a fresh slab-sized
            # array per root costs the process page faults on every slab
            shape = np.broadcast_shapes(np.shape(partial), x0.shape)
            p = hoisted.squares.get(shape)
            if p is None:
                p = hoisted.squares[shape] = np.empty(shape)
            np.add(partial, v * x0, out=p)
            p *= p
            vals *= p
        # the mask runs only on points outside the cone, never on a cone box's slabs
        if self._cone and not (np.all(hoisted.inside) and np.all(x0 >= 0)):
            vals = np.where(hoisted.inside & (x0 >= 0), vals, 0.0)
        return vals

    def values(self, xs) -> np.ndarray:
        """Density values at coordinate arrays xs[0], ..., xs[rank - 1] that broadcast together.

        The kernel is slab(xs[0], hoist(xs[1:])).  With xs = np.ix_(*axes)
        these are the values on the tensor grid of the axes, and each term is
        built on the axes it depends on alone.  For the cone-supported kinds
        (eta, gue) the value is 0 outside the closed dominant cone, making
        this a density on all of R^r.  Coordinates for points of another
        length raise BasisMismatch.
        """
        check_length(self.rs, len(xs), "point")
        return self.slab(xs[0], self.hoist(xs[1:]))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Density values over an array of points with shape (..., r): values on its coordinates.
        An array whose last axis is not of length r, or a 0-d one, raises BasisMismatch."""
        pts = np.asarray(points, dtype=float)
        check_length(self.rs, pts.shape[-1] if pts.ndim else 0, "point")
        return self.values([pts[..., i] for i in range(self.rs.rank)])


def _terms(vec) -> tuple:
    """The (i, v) with v != 0 of a root's float pairing coefficients, but for its x_0 term."""
    return tuple((i, v) for i, v in enumerate(vec) if i and v)


def _pairings(terms, xs):
    """Each sum_i v x_i over its terms (i, v); 0.0 for a root whose only term was x_0."""
    return (reduce(operator.add, (v * xs[i] for i, v in t), 0.0) for t in terms)


def gaussian_constant(rs: RootSystemData) -> float:
    """K = sqrt(det gram_omega) / (2 pi)^(r/2), the Gaussian normalizer."""
    det = determinant(rs.gram_omega)
    return math.sqrt(float(det)) / (2.0 * math.pi) ** (rs.rank / 2.0)


def make_density_model(rs: RootSystemData, kind: str) -> DensityModel:
    if kind not in KINDS:
        raise ValueError(f"unknown density kind {kind!r} (expected one of {KINDS})")
    if kind == "gue" and rs.cartan_type.family != "A":
        raise UnsupportedType("the gue density is the type-A eta density; use family A")
    k = gaussian_constant(rs)
    if kind == "xi":
        const = k
    else:
        const = k / math.prod(sum(row) / rs.pairing_scale for row in rs.pairing_rows)
        if kind == "eta_extended":
            const /= weyl_group_order(rs.cartan_type)
    return DensityModel(rs, kind, const)


def p_xi(rs: RootSystemData, x) -> float:
    """Limiting density of the scaled weight measure: K exp(-(x,x)/2)."""
    model = make_density_model(rs, "xi")
    return float(model.evaluate(np.asarray(x, dtype=float)))


def p_eta(rs: RootSystemData, x) -> float:
    """Limiting density of the scaled component measure, on the dominant cone."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise OutsideDomain(f"{x.tolist()} has a negative fundamental coordinate")
    model = make_density_model(rs, "eta")
    return float(model.evaluate(x))


def p_eta_extended(rs: RootSystemData, x) -> float:
    """W-invariant extension of the eta density, divided by |W|, on all of R^r."""
    model = make_density_model(rs, "eta_extended")
    return float(model.evaluate(np.asarray(x, dtype=float)))


def gue_identity_check(a, tol: float = 1e-12) -> tuple[float, float]:
    """Both sides of the traceless-GUE eigenvalue density identity.

    lhs = exp(-0.5 sum a_k^2) prod_{i<j} (a_i - a_j)^2 for the eigenvalues a;
    rhs is the type-A eta polynomial-times-Gaussian at x_j = a_j - a_{j+1},
    evaluated by DensityModel.values, the kernel of every density.
    """
    a = [float(x) for x in a]
    n = len(a)
    if n < 2:
        raise ValueError("need at least two eigenvalues")
    if abs(sum(a)) > tol:
        raise TraceNotZero(f"eigenvalues sum to {sum(a)}, not 0")
    lhs = math.exp(-0.5 * sum(x * x for x in a))
    for i in range(n):
        for j in range(i + 1, n):
            diff = a[i] - a[j]
            lhs *= diff * diff
    x = [a[j] - a[j + 1] for j in range(n - 1)]
    # the eta kernel with constant 1; eta_extended, because x leaves the
    # dominant cone when a is not sorted
    rhs = float(DensityModel(build_root_system(f"A{n - 1}"), "eta_extended", 1.0).evaluate(x))
    return lhs, rhs


def density_box(model: DensityModel, extent: float) -> tuple[list[float], list[float]]:
    """Box [-extent s_i, extent s_i] per axis, or [0, extent s_i] for the cone-supported
    kinds, where s_i = sqrt((G^-1)_ii) is the limit's standard deviation along axis i."""
    hi = [extent * math.sqrt(float(row[i])) for i, row in enumerate(model.rs.gram_omega_inv)]
    lo = [0.0 if model.kind in ("eta", "gue") else -h for h in hi]
    return lo, hi


def check_grid(rank: int, bins: int, sub: int, what: str = "bins") -> None:
    """Raise ValueError, naming bins as what, unless bins >= 1, and GridCapExceeded
    if a box_masses grid of bins * sub points per axis exceeds MAX_GRID_POINTS."""
    if bins < 1:
        raise ValueError(f"{what} must be at least 1, got {bins}")
    points = (bins * sub) ** rank
    if points > MAX_GRID_POINTS:
        raise GridCapExceeded(f"a density grid of {points} points exceeds the cap of {MAX_GRID_POINTS}")


def _grid_slabs(model: DensityModel, lo, hi, bins: int, sub: int, start: int = 0):
    """The density values of the midpoint grid of [lo, hi], bins * sub points per axis,
    one slab along the first axis at a time: (ks, vals) for each slab, ks the slice of
    its boxes along axis 0 and vals the values of their sub centres each along that axis
    by every point of the other axes.  The walk begins at box start along axis 0.

    The kernel's x_0-free half is built once on the full axes other than the
    first (np.ix_), and its per-slab half runs once per slab, on that slab's
    centres of the first axis: one box thick when sub > 1, and at sub = 1 a
    run of one-box slabs of about SLAB_POINTS points.  So a consumer that
    drops each slab before taking the next holds max(sub, SLAB_POINTS /
    bins^(rank - 1)) * (bins * sub)^(rank - 1) values, the squares slab keeps
    in the hoisted half (one array per shape, none larger than a slab; a
    thinner last slab adds its own) and the hoisted arrays of
    (bins * sub)^(rank - 1) points each.
    The caller checks the grid against MAX_GRID_POINTS (check_grid) first.
    """
    rank = len(lo)
    axes = [a + (np.arange(bins * sub) + 0.5) * ((b - a) / bins / sub) for a, b in zip(lo, hi)]
    grid = np.ix_(*axes)
    hoisted = model.hoist(grid[1:])
    # at sub = 1 a slab is one point thick, and one call takes step of them
    step = max(1, SLAB_POINTS // bins ** (rank - 1)) if sub == 1 else 1
    for k in range(start, bins, step):
        yield slice(k, min(k + step, bins)), model.slab(grid[0][k * sub : (k + step) * sub], hoisted)


def box_masses(model: DensityModel, lo, hi, bins: int, sub: int) -> np.ndarray:
    """Midpoint-rule mass of the density in each of the bins^rank equal boxes of [lo, hi].

    Each box is split into sub^rank equal cells, valued at their centres, one
    slab of boxes along the first axis at a time (_grid_slabs), so memory is
    one slab of values and the hoisted arrays besides the bins^rank masses.
    A grid of more than MAX_GRID_POINTS points raises GridCapExceeded before
    anything is allocated.
    """
    rank = len(lo)
    check_grid(rank, bins, sub)
    masses = np.empty((bins,) * rank)
    for ks, vals in _grid_slabs(model, lo, hi, bins, sub):
        if sub > 1:
            # one sub-cell axis at a time, the last first: much faster than all at once
            vals = vals.sum(axis=0).reshape((bins, sub) * (rank - 1))
            for axis in range(2 * rank - 3, 0, -2):
                vals = vals.sum(axis=axis)
        masses[ks] = vals
    masses *= math.prod((b - a) / bins / sub for a, b in zip(lo, hi))
    return masses


def normalization_quadrature(model: DensityModel, resolution: int | None = None) -> float:
    """Composite-midpoint integral of the density over density_box(model, 10).

    Superalgebraically accurate here because the integrand decays to machine
    zero at the outer box faces (Gaussian exponent -50) and vanishes to second
    order on cone walls.  Each slab of _grid_slabs is summed as it comes
    (numpy's pairwise sum), the slab sums are added in slab order and the total
    is multiplied once by the cell volume, so no resolution^rank array is held.

    Every kind is even in x (exp(-(x,x)/2) and each (x,a)^2 are), and the box
    of xi and eta_extended is symmetric (lo = -hi), so x -> -x maps their
    midpoint grid onto itself and slab k along x_0 mirrors slab
    resolution - 1 - k.  Their walk takes only the slabs at x_0 >= 0, from
    resolution // 2 on, and counts each twice, but the centre row x_0 = 0 of
    an odd grid, its own mirror, once: ceil(n / 2) n^(rank - 1) points for
    n = resolution.  The cone kinds (eta, gue; lo = 0) walk the whole grid.
    """
    rank = model.rs.rank
    if resolution is None:
        if rank > 3:
            raise RankTooLarge(f"default quadrature supports rank <= 3, got rank {rank}")
        resolution = _DEFAULT_RESOLUTION[rank]
    check_grid(rank, resolution, 1, "resolution")
    lo, hi = density_box(model, 10.0)
    folded = lo[0] < 0
    start = resolution // 2 if folded else 0
    total = centre = 0.0
    for ks, vals in _grid_slabs(model, lo, hi, resolution, 1, start):
        total += float(vals.sum())
        if folded and resolution % 2 and ks.start == start:
            centre = float(vals[:1].sum())
    if folded:
        total = 2.0 * total - centre
    return total * math.prod((b - a) / resolution for a, b in zip(lo, hi))
