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

Every density grid (this module's normalization quadrature, the convergence
module's TV boxes) is box_masses over a box from density_box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomain, RankTooLarge, TraceNotZero, UnsupportedType
from .linalg import determinant
from .rootsys import RootSystemData, build_root_system

KINDS = ("xi", "eta", "eta_extended", "gue")

_DEFAULT_RESOLUTION = {1: 4000, 2: 800, 3: 120}


@dataclass(frozen=True, eq=False)
class DensityModel:
    """One density with its precomputed constant and evaluation arrays."""

    rs: RootSystemData
    kind: str
    norm_const: float

    def __post_init__(self):
        gram = np.array([[float(x) for x in row] for row in self.rs.gram_omega])
        roots = np.array([[float(x) for x in vec] for vec in self.rs.root_pair_vectors])
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_roots", roots)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Density values over an array of points with shape (..., r).

        For the cone-supported kinds (eta, gue) the value is 0 outside the
        closed dominant cone, making this a density on all of R^r.
        """
        pts = np.asarray(points, dtype=float)
        q = np.einsum("...i,ij,...j->...", pts, self._gram, pts)
        vals = self.norm_const * np.exp(-q / 2.0)
        if self.kind != "xi":
            pair = pts @ self._roots.T
            vals = vals * np.prod(pair * pair, axis=-1)
        if self.kind in ("eta", "gue"):
            vals = np.where(np.all(pts >= 0, axis=-1), vals, 0.0)
        return vals


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
            const /= len(rs.weyl)
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
    rhs is the type-A eta polynomial-times-Gaussian at x_j = a_j - a_{j+1}.
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
    rs = _gue_root_system(n - 1)
    x = [a[j] - a[j + 1] for j in range(n - 1)]
    xx = 0.0
    for i in range(n - 1):
        for j in range(n - 1):
            xx += x[i] * float(rs.gram_omega[i][j]) * x[j]
    rhs = math.exp(-xx / 2.0)
    for vec in rs.root_pair_vectors:
        pairing = sum(float(v) * xi for v, xi in zip(vec, x))
        rhs *= pairing * pairing
    return lhs, rhs


_GUE_CACHE: dict = {}


def _gue_root_system(rank: int) -> RootSystemData:
    if rank not in _GUE_CACHE:
        _GUE_CACHE[rank] = build_root_system(f"A{rank}")
    return _GUE_CACHE[rank]


def density_box(model: DensityModel, extent: float) -> tuple[list[float], list[float]]:
    """Box [-extent s_i, extent s_i] per axis, or [0, extent s_i] for the cone-supported
    kinds, where s_i = sqrt((G^-1)_ii) is the limit's standard deviation along axis i."""
    hi = [extent * math.sqrt(float(row[i])) for i, row in enumerate(model.rs.gram_omega_inv)]
    lo = [0.0 if model.kind in ("eta", "gue") else -h for h in hi]
    return lo, hi


def box_masses(model: DensityModel, lo, hi, bins: int, sub: int) -> np.ndarray:
    """Midpoint-rule mass of the density in each of the bins^rank equal boxes of [lo, hi].

    Each box is split into sub^rank equal cells, valued at their centres.  The
    density is evaluated one slab of boxes along the first axis at a time, so
    memory is bounded by sub * (bins * sub)^(rank - 1) points.
    """
    rank = len(lo)
    axes = [a + (np.arange(bins * sub) + 0.5) * ((b - a) / bins / sub) for a, b in zip(lo, hi)]
    cell = 1.0
    for a, b in zip(lo, hi):
        cell *= (b - a) / bins / sub
    # a slab's values, reshaped so that every sub-cell axis can be summed out
    slab_shape = (sub,) + (bins, sub) * (rank - 1)
    sub_axes = (0,) + tuple(range(2, 2 * rank, 2))
    masses = np.empty((bins,) * rank)
    for k in range(bins):
        mesh = np.meshgrid(axes[0][k * sub : (k + 1) * sub], *axes[1:], indexing="ij")
        vals = model.evaluate(np.stack(mesh, axis=-1))
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
