"""Convergence diagnostics: characteristic functions, moments, binned TV.

The exact measures from the measures module are compared against their
closed-form limits.  Directions t for characteristic functions are given in
simple-root coordinates; atom positions are weight / sqrt(sigma^2 N) in
fundamental-weight coordinates, and the pairing between the two is the
standard bilinear form.

The xi side (characteristic function and moments) reads only the factor
characters: xi(N) is the law of a sum of independent draws from them.  The
character of V_N is read only through its decomposition, for eta.  The
density side of the TV comes from densities.box_masses, once per report.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .densities import DensityModel, box_masses, check_grid, density_box, make_density_model
from .errors import BasisMismatch, RankTooLarge, UnsupportedType
from .measures import (
    DiscreteMeasure,
    TensorSpec,
    eta_measure,
    factor_counts,
    mixed_moments,
    sigma_squared,
)
from .repchar import tensor_power_table
from .rootsys import RootSystemData, check_length, sums_by_row

DEFAULT_T_POINTS_PER_AXIS = 5
DEFAULT_T_EXTENT = 2.0
# bins per axis for the binned total-variation metric, by rank; calibrated
# once on the rank-1 and rank-2 reference suites and pinned
DEFAULT_BINS = {1: 10, 2: 8, 3: 8}
DEFAULT_MOMENT_ORDER = 4


@dataclass(frozen=True)
class ReportRow:
    N: int
    char_fn_sup_error: float
    moment_errors: dict
    histogram_tv: float


@dataclass(frozen=True)
class ConvergenceReport:
    spec_descriptor: str
    N_values: tuple
    rows: tuple
    monotone_char_fn: bool
    monotone_histogram_tv: bool


def char_fn_limit_xi(rs: RootSystemData, t):
    """Limiting characteristic function exp(-(t,t)/2), t in simple-root coords.

    One point t gives a float; a (points, rank) grid gives an array of values.
    """
    t = np.asarray(t, dtype=float)
    check_length(rs, t.shape[-1] if t.ndim else 0, "direction")
    cbar = np.array([[float(x) for x in row] for row in rs.Cbar])
    values = np.exp(-0.5 * np.einsum("...i,ij,...j->...", t, cbar, t))
    return float(values) if t.ndim == 1 else values


def default_t_grid(rank: int):
    """Tensor grid in simple-root coordinates covering [-DEFAULT_T_EXTENT, DEFAULT_T_EXTENT]^rank."""
    axis = np.linspace(-DEFAULT_T_EXTENT, DEFAULT_T_EXTENT, DEFAULT_T_POINTS_PER_AXIS)
    return [tuple(v) for v in itertools.product(axis, repeat=rank)]


def _t_array(rs: RootSystemData, t_grid) -> np.ndarray:
    """The grid (default_t_grid when None) as a (points, rank) float array, or BasisMismatch."""
    if t_grid is None:
        t_grid = default_t_grid(rs.rank)
    t_arr = np.asarray(list(t_grid), dtype=float)
    if t_arr.ndim == 1:
        t_arr = t_arr[:, None]
    check_length(rs, t_arr.shape[-1], "direction")
    return t_arr


def char_fn_xi(spec: TensorSpec, N: int, t_grid=None) -> np.ndarray:
    """phi of scaled xi(N) at every t of the grid (default_t_grid when None).

    xi(N) is the law of a sum of tau_l N independent draws from each factor's
    normalized character, so phi(t) = prod_l (ch V_l(i t / s) / dim V_l)^(tau_l N)
    with s = sqrt(sigma^2 N): one product over each factor's support for the
    whole grid, at a cost independent of the support of V_N.
    """
    rs = spec.rs
    counts = factor_counts(spec, N)  # InadmissibleN naming N before N enters the scale
    t_arr = _t_array(rs, t_grid)
    dvec = np.array([float(x) for x in rs.d])
    directions = (t_arr * dvec).T / math.sqrt(float(sigma_squared(spec) * N))
    out = np.ones(len(t_arr), dtype=complex)
    for (_, n), m in zip(counts, spec.factor_characters):
        weights = np.array(list(m.entries), dtype=float)
        mults = np.array(list(m.entries.values()), dtype=float)
        out *= (np.exp(1j * weights @ directions).T @ mults / m.total_dim) ** n
    return out


def sup_char_error(spec: TensorSpec, N: int, t_grid=None) -> float:
    """Max over the grid of |phi of xi(N) - Gaussian limit|."""
    t_arr = _t_array(spec.rs, t_grid)
    return float(np.max(np.abs(char_fn_xi(spec, N, t_arr) - char_fn_limit_xi(spec.rs, t_arr))))


def _gaussian_moment(cov: np.ndarray, kappa) -> float:
    """Moment E[prod x_i^kappa_i] of N(0, cov) by summing over pair matchings."""
    coords = []
    for i, k in enumerate(kappa):
        coords.extend([i] * k)
    if len(coords) % 2 == 1:
        return 0.0

    def pairings(items):
        if not items:
            return 1.0
        first, rest = items[0], items[1:]
        total = 0.0
        for pick in range(len(rest)):
            partner = rest[pick]
            remaining = rest[:pick] + rest[pick + 1 :]
            total += cov[first][partner] * pairings(remaining)
        return total

    return float(pairings(coords))


def moment_errors_xi(spec: TensorSpec, N: int) -> dict:
    """|exact - Gaussian| for every scaled moment of xi(N) up to DEFAULT_MOMENT_ORDER."""
    cov = np.array([[float(x) for x in row] for row in spec.rs.gram_omega_inv])
    raw = mixed_moments(spec, N, DEFAULT_MOMENT_ORDER)
    out = {}
    for kappa, value in sorted(raw.items()):
        if sum(kappa) == 0:
            continue
        limit = _gaussian_moment(cov, kappa)
        out[kappa] = abs(float(value) - limit)
    return out


@dataclass(frozen=True)
class _DensityBoxes:
    """The density side of histogram_tv: box grid and limit mass per box."""

    lo: list
    width: list
    bins: int
    q: np.ndarray
    q_tail: float


def tv_grid(rank: int, bins_per_axis: int | None = None) -> tuple[int, int]:
    """Bins per axis of histogram_tv and midpoint cells per bin and axis.

    Raises RankTooLarge above rank 3 and GridCapExceeded for a grid of more
    than densities.MAX_GRID_POINTS points, before anything is evaluated.
    """
    if rank > 3:
        raise RankTooLarge(f"histogram_tv supports rank <= 3, got rank {rank}")
    if bins_per_axis is None:
        bins_per_axis = DEFAULT_BINS[rank]
    check_grid(rank, bins_per_axis, 1, "bins_per_axis")
    sub = max(2, round({1: 2400, 2: 480, 3: 96}[rank] / bins_per_axis))
    check_grid(rank, bins_per_axis, sub)
    return bins_per_axis, sub


def _density_boxes(model: DensityModel, bins_per_axis: int | None) -> _DensityBoxes:
    """The boxes of histogram_tv and the density's mass in each, by the midpoint rule on a subgrid."""
    bins_per_axis, sub = tv_grid(model.rs.rank, bins_per_axis)
    lo, hi = density_box(model, 6.0)
    q = box_masses(model, lo, hi, bins_per_axis, sub)
    q_tail = max(0.0, 1.0 - float(q.sum()))
    width = [(b - a) / bins_per_axis for a, b in zip(lo, hi)]
    return _DensityBoxes(lo, width, bins_per_axis, q, q_tail)


def _boxes_tv(measure: DiscreteMeasure, boxes: _DensityBoxes) -> float:
    """Binned total-variation distance between an atomic measure and the boxes' density."""
    rank = len(boxes.lo)
    if measure.atoms and measure.rank != rank:
        raise BasisMismatch(f"measure of rank {measure.rank}; the density has rank {rank}")
    # atomic side: exact box masses over one denominator; the box index of an atom is
    # floor((float(w_i) / scale - lo_i) / width_i), the same IEEE operations atom by atom
    den = math.lcm(*{p.denominator for _, p in measure.atoms})
    nums = np.array([p.numerator * (den // p.denominator) for _, p in measure.atoms], dtype=object)
    x = np.array([w for w, _ in measure.atoms], dtype=float).reshape(-1, rank) / measure.scale
    idx = np.floor((x - boxes.lo) / boxes.width).astype(np.int64)
    inside = ((idx >= 0) & (idx < boxes.bins)).all(axis=1)
    keys, sums = sums_by_row(idx[inside], nums[inside])
    distance = 0.0
    for key, s in zip(map(tuple, keys.tolist()), sums):
        distance += abs(s / den - float(boxes.q[key]))
    seen = np.zeros_like(boxes.q, dtype=bool)
    seen[tuple(keys.T)] = True
    return 0.5 * (distance + float(boxes.q[~seen].sum()) + (sum(nums[~inside].tolist()) / den + boxes.q_tail))


def histogram_tv(measure: DiscreteMeasure, model: DensityModel, bins_per_axis: int | None = None) -> float:
    """Binned total-variation distance between an atomic measure and a density.

    Equal-width boxes cover [-6, 6] (or [0, 6] for cone-supported kinds) times
    the limit's per-axis standard deviation; mass escaping the box is added as
    tail on both sides.  Always in [0, 1].  A measure of another rank raises BasisMismatch.
    """
    return _boxes_tv(measure, _density_boxes(model, bins_per_axis))


def check_simple(rs: RootSystemData) -> None:
    """UnsupportedType unless rs is simple, i.e. its highest root involves every simple root (D2 = A1 x A1 is not)."""
    if 0 in rs.positive_roots[-1]:
        raise UnsupportedType(f"{rs.cartan_type} is not simple, so sigma^2 and the Gaussian limit do not apply")


def convergence_report(
    spec: TensorSpec,
    N_list,
    bins_per_axis: int | None = None,
    table: dict | None = None,
) -> ConvergenceReport:
    """Full metric table for xi and eta across a list of tensor powers.

    A row holds the char-fn sup error of xi over default_t_grid, its moment
    errors up to DEFAULT_MOMENT_ORDER and the binned TV distance of eta.  The
    char-fn and the moments of xi come from the factor characters alone, so
    the character table, computed once by Miller's power recurrence, is read
    only for eta.  The density side of the TV boxes is evaluated once for
    all N.  A precomputed table mapping N to its multiplicity map (e.g. from
    a cache) can be passed to skip the table step.  A type that is not simple
    raises UnsupportedType (check_simple).
    """
    rs = spec.rs
    check_simple(rs)
    for n in N_list:
        factor_counts(spec, n)  # InadmissibleN naming N and the taus
    n_values = sorted({operator.index(n) for n in N_list})
    eta_boxes = _density_boxes(make_density_model(rs, "eta"), bins_per_axis)
    if table is None or any(n not in table for n in n_values):
        table = tensor_power_table(rs, spec.factors, n_values)
    rows = []
    for n in n_values:
        eta = eta_measure(spec, n, multiplicities=table[n])
        rows.append(
            ReportRow(
                N=n,
                char_fn_sup_error=sup_char_error(spec, n),
                moment_errors=moment_errors_xi(spec, n),
                histogram_tv=_boxes_tv(eta, eta_boxes),
            )
        )
    char_seq = [row.char_fn_sup_error for row in rows]
    tv_seq = [row.histogram_tv for row in rows]

    def nonincreasing(seq):
        return all(b <= a + 1e-15 for a, b in zip(seq, seq[1:]))

    return ConvergenceReport(
        spec_descriptor=spec.describe(),
        N_values=tuple(n_values),
        rows=tuple(rows),
        monotone_char_fn=nonincreasing(char_seq),
        monotone_histogram_tv=nonincreasing(tv_seq),
    )


def report_to_csv(report: ConvergenceReport) -> str:
    moment_keys = sorted(report.rows[0].moment_errors) if report.rows else []
    header = ["N", "char_fn_sup_error", "char_fn_sup_error_times_sqrt_N", "histogram_tv"]
    header += ["moment_err_" + "_".join(str(k) for k in kappa) for kappa in moment_keys]
    lines = [",".join(header)]
    for row in report.rows:
        cells = [
            str(row.N),
            repr(row.char_fn_sup_error),
            repr(row.char_fn_sup_error * math.sqrt(row.N)),
            repr(row.histogram_tv),
        ]
        cells += [repr(row.moment_errors[kappa]) for kappa in moment_keys]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_to_json(report: ConvergenceReport) -> dict:
    return {
        "spec": report.spec_descriptor,
        "N_values": list(report.N_values),
        "rows": [
            {
                "N": row.N,
                "char_fn_sup_error": row.char_fn_sup_error,
                "char_fn_sup_error_times_sqrt_N": row.char_fn_sup_error * math.sqrt(row.N),
                "histogram_tv": row.histogram_tv,
                "moment_errors": {
                    "_".join(str(k) for k in kappa): err for kappa, err in sorted(row.moment_errors.items())
                },
            }
            for row in report.rows
        ],
        "monotone_char_fn": report.monotone_char_fn,
        "monotone_histogram_tv": report.monotone_histogram_tv,
    }
