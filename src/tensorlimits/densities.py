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

Each model has one kernel, DensityModel.values, which takes the coordinates
as separate arrays that broadcast together: (x,x) as the sum of the terms
(x_i g_ij) x_j, each root pairing (x,a) as a sum over the coordinates where
a is nonzero, the squares multiplied in root order, and the cone mask from
the tests x_i >= 0.  On the 1-D axes of a tensor grid, np.ix_(*axes), every
term and pairing is built on only the axes it depends on, and no mesh of
points is stacked.  A point array is the same kernel on its coordinates
(evaluate), so the point and grid values agree to the last bit.

Every density grid (this module's normalization quadrature, the convergence
module's TV boxes) is box_masses over a box from density_box, and no grid
holds more than MAX_GRID_POINTS points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import GridCapExceeded, OutsideDomain, RankTooLarge, TraceNotZero, UnsupportedType
from .linalg import determinant
from .rootsys import RootSystemData, build_root_system, weyl_group_order

KINDS = ("xi", "eta", "eta_extended", "gue")

_DEFAULT_RESOLUTION = {1: 4000, 2: 800, 3: 120}
# the most points box_masses evaluates: about ten times the default rank-3
# quadrature (120^3), and at most 128 MiB of box masses
MAX_GRID_POINTS = 2**24


@dataclass(frozen=True, eq=False)
class DensityModel:
    """One density with its precomputed constant and the float coefficients of its kernel."""

    rs: RootSystemData
    kind: str
    norm_const: float

    def __post_init__(self):
        gram = tuple(tuple(float(x) for x in row) for row in self.rs.gram_omega)
        # (x, alpha) for each positive root, summed over the coordinates where alpha is nonzero
        pairs = tuple(tuple((i, float(v)) for i, v in enumerate(vec) if v) for vec in self.rs.root_pair_vectors)
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_pairs", () if self.kind == "xi" else pairs)

    def values(self, xs) -> np.ndarray:
        """Density values at coordinate arrays xs[0], ..., xs[rank - 1] that broadcast together.

        With xs = np.ix_(*axes) these are the values on the tensor grid of the
        axes, and each product x_i g_ij x_j and each root pairing is built on
        the axes it depends on alone.  For the cone-supported kinds (eta, gue)
        the value is 0 outside the closed dominant cone, making this a density
        on all of R^r.
        """
        xs = [np.asarray(x, dtype=float) for x in xs]
        q = reduce(operator.add, ((x * g) * y for x, row in zip(xs, self._gram) for g, y in zip(row, xs)))
        vals = self.norm_const * np.exp(-0.5 * q)
        if self._pairs:
            pairings = (reduce(operator.add, (v * xs[i] for i, v in pair)) for pair in self._pairs)
            vals = vals * reduce(operator.mul, (p * p for p in pairings))
        if self.kind in ("eta", "gue"):
            vals = np.where(reduce(operator.and_, (x >= 0 for x in xs)), vals, 0.0)
        return vals

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Density values over an array of points with shape (..., r): values on its coordinates."""
        pts = np.asarray(points, dtype=float)
        return self.values([pts[..., i] for i in range(self.rs.rank)])


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
        prod_rho = 1.0
        for pairing in rs.rho_root_pairings:
            prod_rho *= float(pairing)
        const = k / prod_rho
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
    rhs = float(DensityModel(_gue_root_system(n - 1), "eta_extended", 1.0).evaluate(x))
    return lhs, rhs


@cache
def _gue_root_system(rank: int) -> RootSystemData:
    return build_root_system(f"A{rank}")


def density_box(model: DensityModel, extent: float) -> tuple[list[float], list[float]]:
    """Box [-extent s_i, extent s_i] per axis, or [0, extent s_i] for the cone-supported
    kinds, where s_i = sqrt((G^-1)_ii) is the limit's standard deviation along axis i."""
    hi = [extent * math.sqrt(float(row[i])) for i, row in enumerate(model.rs.gram_omega_inv)]
    lo = [0.0 if model.kind in ("eta", "gue") else -h for h in hi]
    return lo, hi


def check_grid(rank: int, bins: int, sub: int) -> None:
    """Raise GridCapExceeded if a box_masses grid of bins * sub points per axis exceeds MAX_GRID_POINTS."""
    points = (bins * sub) ** rank
    if points > MAX_GRID_POINTS:
        raise GridCapExceeded(f"a density grid of {points} points exceeds the cap of {MAX_GRID_POINTS}")


def box_masses(model: DensityModel, lo, hi, bins: int, sub: int) -> np.ndarray:
    """Midpoint-rule mass of the density in each of the bins^rank equal boxes of [lo, hi].

    Each box is split into sub^rank equal cells, valued at their centres.  The
    kernel runs once per slab of boxes along the first axis, on that slab's
    sub centres of the first axis and the full axes of the others (np.ix_),
    so memory is bounded by sub * (bins * sub)^(rank - 1) points.  A grid of
    more than MAX_GRID_POINTS points raises GridCapExceeded before anything
    is allocated.
    """
    rank = len(lo)
    check_grid(rank, bins, sub)
    axes = [a + (np.arange(bins * sub) + 0.5) * ((b - a) / bins / sub) for a, b in zip(lo, hi)]
    cell = 1.0
    for a, b in zip(lo, hi):
        cell *= (b - a) / bins / sub
    # a slab's values, reshaped so that every sub-cell axis can be summed out
    slab_shape = (sub,) + (bins, sub) * (rank - 1)
    sub_axes = (0,) + tuple(range(2, 2 * rank, 2))
    masses = np.empty((bins,) * rank)
    for k in range(bins):
        vals = model.values(np.ix_(axes[0][k * sub : (k + 1) * sub], *axes[1:]))
        masses[k] = vals.reshape(slab_shape).sum(axis=sub_axes)
    masses *= cell
    return masses


def normalization_quadrature(model: DensityModel, resolution: int | None = None) -> float:
    """Composite-midpoint integral of the density over density_box(model, 10).

    Superalgebraically accurate here because the integrand decays to machine
    zero at the outer box faces (Gaussian exponent -50) and vanishes to second
    order on cone walls.  numpy's pairwise summation keeps the order fixed.
    """
    rank = model.rs.rank
    if resolution is None:
        if rank > 3:
            raise RankTooLarge(f"default quadrature supports rank <= 3, got rank {rank}")
        resolution = _DEFAULT_RESOLUTION[rank]
    lo, hi = density_box(model, 10.0)
    return float(box_masses(model, lo, hi, resolution, 1).sum())
