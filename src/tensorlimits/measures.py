"""Exact discrete probability measures induced by large tensor powers.

Three measures are built from the decomposition data of V_N, the N-th
tensor power bundle of a TensorSpec:

* xi: mass dim V_N(mu) / dim V_N at the scaled weight mu / (sigma sqrt(N)),
* eta: mass [V_N : V_mu] dim V_mu / dim V_N at scaled dominant mu,
* eta extended: the eta mass spread uniformly over shifted Weyl orbits,
  with zero mass on shifted walls.

eta extended spreads each atom mu over the W-orbit of mu + rho, shifted back by
rho, for all atoms at once by rootsys.orbit_rows; its wall test and its
pushforward back to eta run rootsys.to_dominant_rows on whole arrays of weights,
never a Weyl element.  eta is the signed pushforward of the character of V_N
under the same action (racah_decompose, which gives its Weyl dimensions too and
reads the character at its dominant weights alone); only xi reads its full
entries, which expands their W-orbits.

Atoms keep their integer weight vector and exact rational probability; the
scale sigma*sqrt(N) is carried symbolically as the rational sigma^2*N, so
every identity at this layer is exact.  Floats appear only downstream.
The moments of xi (mixed_moments) come from the factor characters alone,
without the atoms of xi.
There is one variance scale, sigma^2 = sum_l tau_l (lam_l, lam_l + 2 rho) /
dim g: the one under which xi(N) tends to exp(-(t, t)/2).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DegenerateSpec, InadmissibleN
from .repchar import (
    MultiplicityMap,
    check_character,
    freudenthal_multiplicities,
    racah_decompose,
    tensor_power_multiplicities,
    weyl_dim,
)
from .rootsys import (
    RootSystemData,
    casimir_eigenvalue,
    check_length,
    highest_weight,
    orbit_rows,
    sums_by_row,
    to_dominant_rows,
    weyl_group_order,
)

# above this bounding-box volume, explicit zero-mass wall atoms are omitted
# from the extended measure (probabilities at walls are still zero, they are
# just not materialized)
WALL_ATOM_BOX_LIMIT = 100_000


@dataclass(frozen=True)
class TensorSpec:
    """A weighted family of highest weights: factors (lam_l, tau_l)."""

    rs: RootSystemData
    factors: tuple

    def __post_init__(self):
        norm = []
        for lam, tau in self.factors:
            lam = highest_weight(self.rs, lam)
            tau = Fraction(tau)
            if tau <= 0:
                raise ValueError(f"tau must be positive, got {tau}")
            norm.append((lam, tau))
        object.__setattr__(self, "factors", tuple(norm))

    @cached_property
    def factor_characters(self) -> tuple:
        """The Freudenthal character of each V_lam_l, built once per spec."""
        return tuple(freudenthal_multiplicities(self.rs, lam) for lam, _ in self.factors)

    def describe(self) -> str:
        parts = ",".join(f"{list(lam)}:{tau}" for lam, tau in self.factors)
        return f"{self.rs.cartan_type}[{parts}]"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (weight vector, exact probability) at scale sqrt(sigma_sq * N).

    The physical atom position is weight / sqrt(sigma_sq * N); weight vectors
    are exact rationals (integers for all measures built here) in
    fundamental-weight coordinates.
    """

    atoms: tuple
    sigma_sq: Fraction
    N: int

    @property
    def rank(self) -> int:
        return len(self.atoms[0][0]) if self.atoms else 0

    @property
    def scale_sq(self) -> Fraction:
        return self.sigma_sq * self.N

    @property
    def scale(self) -> float:
        return math.sqrt(float(self.sigma_sq * self.N))

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.atoms)

    def prob_at(self, weight) -> Fraction:
        return self._lookup.get(tuple(weight), Fraction(0))

    def total_mass(self) -> Fraction:
        return sum((p for _, p in self.atoms), Fraction(0))


def sigma_squared(spec: TensorSpec) -> Fraction:
    """Variance scale sigma^2 = sum_l tau_l (lam_l, lam_l + 2 rho) / dim g.

    This is the scale under which the exact second-moment identity and the
    closed-form limits hold.
    """
    total = Fraction(0)
    for lam, tau in spec.factors:
        total += tau * casimir_eigenvalue(spec.rs, lam)
    total /= spec.rs.dim_g
    if total == 0:
        raise DegenerateSpec("all highest weights are zero, sigma^2 = 0")
    return total


def admissible_N(spec: TensorSpec, N: int) -> bool:
    """True iff N is an integer (operator.index takes it) of at least 1 and
    tau_l * N is a nonnegative integer for every factor."""
    try:
        N = operator.index(N)
    except TypeError:
        return False
    if N < 1:
        return False
    return all((tau * N).denominator == 1 for _, tau in spec.factors)


def factor_counts(spec: TensorSpec, N: int) -> list:
    """Integer tensor powers (lam_l, tau_l * N) for an admissible N."""
    if not admissible_N(spec, N):
        raise InadmissibleN(f"N = {N} is not admissible for taus {[str(t) for _, t in spec.factors]}")
    return [(lam, int(tau * N)) for lam, tau in spec.factors]


def _resolve_map(spec: TensorSpec, N: int, multiplicities) -> MultiplicityMap:
    """multiplicities, or the character of V_N when None.  A map whose total_dim is not
    prod_l weyl_dim(lam_l)^(n_l), e.g. that of another N, raises ValueError, one of another
    rank or Cartan type BasisMismatch; one of another spec of the same type with the same
    total (A2 omega1 for omega2) passes."""
    counts = factor_counts(spec, N)
    if multiplicities is None:
        return tensor_power_multiplicities(spec.rs, counts)
    expected = math.prod(weyl_dim(spec.rs, lam) ** n for lam, n in counts)
    if multiplicities.total_dim != expected:
        raise ValueError(f"multiplicities have total_dim {multiplicities.total_dim}; V_N at N = {N} has dim {expected}")
    check_character(spec.rs, multiplicities)
    return multiplicities


def xi_measure(
    spec: TensorSpec,
    N: int,
    multiplicities: MultiplicityMap | None = None,
) -> DiscreteMeasure:
    """Weight measure of V_N: mass dim V_N(mu) / dim V_N at scaled mu.

    multiplicities, when given, must be the precomputed character of V_N
    (cache hook used by the convergence module and the CLI).
    """
    sig = sigma_squared(spec)
    m = _resolve_map(spec, N, multiplicities)
    total = m.total_dim
    atoms = tuple((w, Fraction(c, total)) for w, c in sorted(m.entries.items()))
    return DiscreteMeasure(atoms, sig, N)


def eta_measure(
    spec: TensorSpec,
    N: int,
    multiplicities: MultiplicityMap | None = None,
) -> DiscreteMeasure:
    """Component measure of V_N: mass [V_N : V_mu] dim V_mu / dim V_N."""
    sig = sigma_squared(spec)
    m = _resolve_map(spec, N, multiplicities)
    dec = racah_decompose(spec.rs, m)
    total = m.total_dim
    atoms = tuple(
        (mu, Fraction(c * dec.dims[mu], total))
        for mu, c in sorted(dec.components.items())
    )
    return DiscreteMeasure(atoms, sig, N)


def eta_extended_measure(
    spec: TensorSpec,
    N: int,
    multiplicities: MultiplicityMap | None = None,
) -> DiscreteMeasure:
    """Extension of eta to the whole weight lattice by shifted Weyl orbits.

    Each dominant atom mu of eta donates mass P(mu)/|W| to every orbit point
    w * mu = w(mu + rho) - rho, from one rootsys.orbit_rows call on all
    the mu + rho.  Weights whose shifted orbit meets a wall get zero mass;
    those inside the bounding box of the support are materialized as explicit
    zero atoms while the box stays below WALL_ATOM_BOX_LIMIT, found by one
    rootsys.to_dominant_rows call on the whole box.
    """
    rs = spec.rs
    eta = eta_measure(spec, N, multiplicities)
    order = weyl_group_order(rs.cartan_type)
    # |W| distinct points per orbit, and distinct orbits are disjoint
    weights = orbit_rows(rs, np.asarray([mu for mu, _ in eta.atoms]) + 1).reshape(-1, rs.rank) - 1
    probs = [p / order for _, p in eta.atoms] * order
    lo, hi = weights.min(axis=0), weights.max(axis=0)
    if math.prod((hi - lo + 1).tolist()) <= WALL_ATOM_BOX_LIMIT:
        box = np.indices(hi - lo + 1).reshape(rs.rank, -1).T + lo
        walls = box[(to_dominant_rows(rs, box + 1) == 0).any(axis=1)]
        weights = np.concatenate([weights, walls])
        probs += [Fraction(0)] * len(walls)
    ranked = np.lexsort(weights.T[::-1]).tolist()
    atoms = tuple(zip(map(tuple, weights[ranked].tolist()), [probs[k] for k in ranked]))
    return DiscreteMeasure(atoms, eta.sigma_sq, N)


def pushforward_dominant_shifted(rs: RootSystemData, measure: DiscreteMeasure) -> DiscreteMeasure:
    """Push every atom to its shifted-dominant representative (walls carry no mass).

    One rootsys.to_dominant_rows call finds every w(mu + rho); one
    rootsys.sums_by_row call sums the atoms of each, as integer numerators
    over the lcm of all denominators.  An atom with nonzero mass on a shifted
    wall raises ValueError naming it.
    """
    probs = [p for _, p in measure.atoms]
    dominant = to_dominant_rows(rs, np.asarray([w for w, _ in measure.atoms]) + 1)
    on_wall = (dominant == 0).any(axis=1)
    for k in np.flatnonzero(on_wall).tolist():
        if probs[k] != 0:
            raise ValueError(f"nonzero mass {probs[k]} on wall point {tuple(measure.atoms[k][0])}")
    den = math.lcm(*{p.denominator for p in probs})  # 1 at the walls, which carry no mass
    nums = np.array([p.numerator * (den // p.denominator) for p in probs], dtype=object)
    lams, nums = sums_by_row(dominant[~on_wall] - 1, nums[~on_wall])
    atoms = tuple((tuple(lam), Fraction(num, den)) for lam, num in zip(lams.tolist(), nums))
    return DiscreteMeasure(atoms, measure.sigma_sq, measure.N)


def _power_sums(m: MultiplicityMap, kappas) -> dict:
    """p_kappa = sum_mu m(mu) mu^kappa for each multi-index kappa.

    sum_kappa p_kappa s^kappa / kappa! is the character evaluated at exp(s),
    the moment series of the weight measure times its dimension.
    """
    return {
        kappa: sum(c * math.prod(x**k for x, k in zip(w, kappa)) for w, c in m.entries.items())
        for kappa in kappas
    }


def _binomial_terms(kappas) -> dict:
    """For each kappa, the (binomial(kappa, alpha), alpha, kappa - alpha) over alpha <= kappa."""
    terms = {}
    for kappa in kappas:
        terms[kappa] = []
        for alpha in itertools.product(*(range(k + 1) for k in kappa)):
            binom = math.prod(math.comb(k, a) for k, a in zip(kappa, alpha))
            terms[kappa].append((binom, alpha, tuple(k - a for k, a in zip(kappa, alpha))))
    return terms


def _times_power(acc: dict, p: dict, n: int, terms: dict) -> dict:
    """Power sums of acc * p^n, by repeated squaring.

    Power sums of a product of characters are the binomial convolution of
    the factors' power sums (their moment series multiply); truncating at
    the largest order in terms is exact, since no order feeds a lower one.
    """

    def times(a, b):
        return {kappa: sum(c * a[x] * b[y] for c, x, y in pairs) for kappa, pairs in terms.items()}

    while n:
        if n & 1:
            acc = times(acc, p)
        n >>= 1
        if n:
            p = times(p, p)
    return acc


def mixed_moments(spec: TensorSpec, N: int, max_order: int) -> dict:
    """Raw moments of scaled xi(N) for all multi-indices up to max_order.

    xi(N) is the law of a sum of tau_l N independent draws from each factor's
    normalized character, so its moments come from the factor characters
    alone: their power sums, raised to tau_l N by repeated squaring, give
    the exact integer power sums of V_N.  The cost grows with log N and the
    factor supports, not with the support of V_N.

    Even total orders divide exactly by (sigma^2 N)^(|kappa|/2) and stay
    rational; odd total orders involve sqrt(sigma^2 N) and are returned as
    floats.
    """
    if max_order > 6:
        raise ValueError("moments above order 6 are not supported")
    rs = spec.rs
    kappas = [kappa for kappa in itertools.product(range(max_order + 1), repeat=rs.rank) if sum(kappa) <= max_order]
    terms = _binomial_terms(kappas)
    sums = {kappa: int(not any(kappa)) for kappa in kappas}  # the trivial character
    total = 1
    for (_, n), m in zip(factor_counts(spec, N), spec.factor_characters):
        sums = _times_power(sums, _power_sums(m, kappas), n, terms)
        total *= m.total_dim**n
    scale_sq = sigma_squared(spec) * N
    out: dict = {}
    for kappa in kappas:
        order = sum(kappa)
        raw = Fraction(sums[kappa], total)
        if order % 2 == 0:
            out[kappa] = raw / scale_sq ** (order // 2)
        else:
            out[kappa] = float(raw) / float(scale_sq) ** (order / 2)
    return out


def directional_second_moment(rs: RootSystemData, measure: DiscreteMeasure, t) -> Fraction:
    """Exact sum of prob * (t, point)^2 along a direction t in simple-root coords.

    Equals (t, t) for every xi measure and admissible N.  A direction or a
    measure of another rank raises BasisMismatch naming both lengths.
    """
    t = tuple(Fraction(x) for x in t)
    check_length(rs, len(t), "direction")
    if measure.atoms:
        check_length(rs, measure.rank, "weight")
    acc = Fraction(0)
    for w, p in measure.atoms:
        if p == 0:
            continue
        pairing = sum(ti * di * xi for ti, di, xi in zip(t, rs.d, w))
        acc += p * pairing * pairing
    return acc / measure.scale_sq


def measure_to_csv(measure: DiscreteMeasure) -> str:
    """One atom per row: weight coordinates, then numerator and denominator."""
    rank = measure.rank
    header = ",".join(f"weight_{i+1}" for i in range(rank)) + ",numerator,denominator"
    lines = [header]
    for w, p in measure.atoms:
        lines.append(",".join(str(x) for x in w) + f",{p.numerator},{p.denominator}")
    return "\n".join(lines) + "\n"


def measure_to_json(measure: DiscreteMeasure) -> dict:
    return {
        "N": measure.N,
        "sigma_squared": f"{measure.sigma_sq.numerator}/{measure.sigma_sq.denominator}",
        "atoms": [
            {"weight": [int(x) for x in w], "prob": f"{p.numerator}/{p.denominator}"}
            for w, p in measure.atoms
        ],
    }
