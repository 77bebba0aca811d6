"""Exact discrete probability measures induced by large tensor powers.

Three measures are built from the decomposition data of V_N, the N-th
tensor power bundle of a TensorSpec:

* xi: mass dim V_N(mu) / dim V_N at the scaled weight mu / (sigma sqrt(N)),
* eta: mass [V_N : V_mu] dim V_mu / dim V_N at scaled dominant mu,
* eta extended: the eta mass spread uniformly over shifted Weyl orbits,
  with zero mass on shifted walls.

eta extended spreads each atom mu over the W-orbit of mu + rho, shifted back by
rho, for all atoms at once by rootsys.orbit_rows; its wall atoms are the
points mu of a box with (mu + rho, beta) = 0 for some positive root beta, one
product with rs.pairing_rows, and its pushforward back to eta is one
rootsys.to_dominant_rows call on the whole array of weights, which finds the
Weyl element folding each row by its inversion set (one table lookup, no
reflection passes).  eta is the signed pushforward of the character of V_N
under the same action (racah_decompose: int64 rows, their counts and Weyl
dimensions, read off the character at its dominant weights alone); xi tiles each
dominant multiplicity over its W-orbit (MultiplicityMap.support).

A measure keeps integer weights and numerators over one denominator (dim V_N,
times |W| for eta extended); Fractions appear only at its edges, where CSV and
JSON output reduce each distinct numerator once.  The scale sigma*sqrt(N) is
carried as the rational sigma^2*N, so every identity at this layer is exact.
Floats appear only downstream.
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
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateSpec, InadmissibleN
from .linalg import bilinear
from .repchar import (
    MultiplicityMap,
    _factor_support,
    check_character,
    racah_decompose,
    tensor_power_multiplicities,
    weyl_dim,
)
from .rootsys import (
    RootSystemData,
    _int_rows,
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
# rows of a CSV table formatted and written a block at a time (_csv_blocks)
_CSV_BLOCK_ROWS = 2**14


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
    def factor_supports(self) -> tuple:
        """Each factor character's support() (weights, counts), from repchar._factor_support,
        shared with tensor_power_table: read by char_fn_xi and mixed_moments at every N."""
        return tuple(_factor_support(self.rs, lam) for lam, _ in self.factors)

    @cached_property
    def factor_dims(self) -> tuple:
        """weyl_dim of each lam_l, computed once per spec: read by _resolve_map and the CLI's cache loader."""
        return tuple(weyl_dim(self.rs, lam) for lam, _ in self.factors)

    def describe(self) -> str:
        parts = ",".join(f"{list(lam)}:{tau}" for lam, tau in self.factors)
        return f"{self.rs.cartan_type}[{parts}]"


class DiscreteMeasure:
    """Atoms at scale sqrt(sigma_sq * N): the rows of weights, an (n, rank) int64 array
    in fundamental-weight coordinates, with masses nums[k] / den in Python ints.

    DiscreteMeasure(atoms, sigma_sq, N) brings (weight, probability) pairs over the lcm
    of their denominators (ValueError for a weight that is not integral or has a
    coordinate of |x| >= 2^31); the builders pass their own den to _exact.  atoms and
    prob_at are reduced views; == and hash compare the reduced atoms, sigma_sq and N."""

    def __init__(self, atoms, sigma_sq: Fraction, N: int):
        pairs = [(w, Fraction(p)) for w, p in atoms]
        den = math.lcm(*{p.denominator for _, p in pairs})
        nums = [p.numerator * (den // p.denominator) for _, p in pairs]
        self.weights, self.nums, self.den, self.sigma_sq, self.N = _int_rows(None, [w for w, _ in pairs]), nums, den, sigma_sq, N

    @classmethod
    def _exact(cls, weights: np.ndarray, nums: list, den: int, sigma_sq: Fraction, N: int) -> DiscreteMeasure:
        m = cls.__new__(cls)
        m.weights, m.nums, m.den, m.sigma_sq, m.N = weights, nums, den, sigma_sq, N
        return m

    @cached_property
    def atoms(self) -> tuple:
        return tuple(zip(map(tuple, self.weights.tolist()), [Fraction(n, self.den) for n in self.nums]))

    def __eq__(self, other):
        key = self.atoms, self.sigma_sq, self.N
        return isinstance(other, DiscreteMeasure) and key == (other.atoms, other.sigma_sq, other.N)

    def __hash__(self):
        return hash((self.atoms, self.sigma_sq, self.N))

    @property
    def rank(self) -> int:
        return self.weights.shape[1]

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
        return Fraction(sum(self.nums), self.den)


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
    expected = math.prod(d**n for d, (_, n) in zip(spec.factor_dims, counts))
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
    (cache hook used by the convergence module and the CLI).  Its support
    (MultiplicityMap.support: each count tiled over its orbit), sorted by one np.lexsort.
    """
    sig = sigma_squared(spec)
    m = _resolve_map(spec, N, multiplicities)
    weights, nums = m.support()
    ranked = np.lexsort(weights.T[::-1])
    return DiscreteMeasure._exact(weights[ranked], nums[ranked].tolist(), m.total_dim, sig, N)


def eta_measure(
    spec: TensorSpec,
    N: int,
    multiplicities: MultiplicityMap | None = None,
) -> DiscreteMeasure:
    """Component measure of V_N: mass [V_N : V_mu] dim V_mu / dim V_N."""
    sig = sigma_squared(spec)
    m = _resolve_map(spec, N, multiplicities)
    dec = racah_decompose(spec.rs, m)
    return DiscreteMeasure._exact(dec.rows, [c * d for c, d in zip(dec.counts, dec.dims)], m.total_dim, sig, N)


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
    zero atoms while the box stays below WALL_ATOM_BOX_LIMIT: the box points mu
    with (mu + rho, beta) = 0 for some positive root beta, from one product of
    the box with rs.pairing_rows.
    """
    rs = spec.rs
    eta = eta_measure(spec, N, multiplicities)
    order = weyl_group_order(rs.cartan_type)
    # |W| distinct points per orbit, and distinct orbits are disjoint
    weights = orbit_rows(rs, eta.weights + 1).reshape(-1, rs.rank) - 1
    nums = eta.nums * order  # over eta.den * order
    lo, hi = weights.min(axis=0), weights.max(axis=0)
    if math.prod((hi - lo + 1).tolist()) <= WALL_ATOM_BOX_LIMIT:
        box = np.indices(hi - lo + 1).reshape(rs.rank, -1).T + lo
        walls = box[((box + 1) @ np.array(rs.pairing_rows, dtype=np.int64).T == 0).any(axis=1)]
        weights = np.concatenate([weights, walls])
        nums += [0] * len(walls)
    ranked = np.lexsort(weights.T[::-1])
    return DiscreteMeasure._exact(weights[ranked], [nums[k] for k in ranked.tolist()], eta.den * order, eta.sigma_sq, N)


def pushforward_dominant_shifted(rs: RootSystemData, measure: DiscreteMeasure) -> DiscreteMeasure:
    """Push every atom to its shifted-dominant representative (walls carry no mass).

    One rootsys.to_dominant_rows call finds every w(mu + rho); one
    rootsys.sums_by_row call sums the numerators of each, over the measure's
    own denominator.  An atom with nonzero mass on a shifted wall raises
    ValueError naming it.
    """
    dominant = to_dominant_rows(rs, measure.weights + 1)
    on_wall = (dominant == 0).any(axis=1)
    nums = np.array(measure.nums, dtype=object)
    bad = np.flatnonzero(on_wall & (nums != 0))
    if bad.size:
        k = bad[0]
        raise ValueError(f"nonzero mass {Fraction(nums[k], measure.den)} on wall point {tuple(measure.weights[k].tolist())}")
    lams, sums = sums_by_row(dominant[~on_wall] - 1, nums[~on_wall])
    return DiscreteMeasure._exact(lams, sums, measure.den, measure.sigma_sq, measure.N)


def _power_sums(support, kappas) -> dict:
    """p_kappa = sum_mu m(mu) mu^kappa for each multi-index kappa, over a character's
    support() (weights, counts).

    sum_kappa p_kappa s^kappa / kappa! is the character evaluated at exp(s),
    the moment series of the weight measure times its dimension.
    """
    weights, counts = support
    items = list(zip(weights.tolist(), counts))
    return {kappa: sum(c * math.prod(x**k for x, k in zip(w, kappa)) for w, c in items) for kappa in kappas}


@cache
def _binomial_terms(kappas: tuple) -> dict:
    """For each kappa, the (binomial(kappa, alpha), alpha, kappa - alpha) over alpha <= kappa, built
    once per tuple of kappas and shared by every mixed_moments call: treat it as immutable."""
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
    try:
        max_order = operator.index(max_order)
    except TypeError:
        raise ValueError(f"max_order must be an integer, got {max_order!r}") from None
    if not 0 <= max_order <= 6:
        raise ValueError(f"max_order must be in 0..6 (moments above order 6 are not supported), got {max_order}")
    rs = spec.rs
    kappas = [kappa for kappa in itertools.product(range(max_order + 1), repeat=rs.rank) if sum(kappa) <= max_order]
    terms = _binomial_terms(tuple(kappas))
    sums = {kappa: int(not any(kappa)) for kappa in kappas}  # the trivial character
    total = 1
    for (_, n), support, dim in zip(factor_counts(spec, N), spec.factor_supports, spec.factor_dims):
        sums = _times_power(sums, _power_sums(support, kappas), n, terms)
        total *= dim**n
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
    if measure.nums:
        check_length(rs, measure.rank, "weight")
    td = [x * di for x, di in zip(t, rs.d)]
    w = measure.weights.reshape(-1, rs.rank).astype(object)
    # the Gram matrix sum_k nums[k] w_k w_k^T in exact integers, then one division
    return bilinear(td, (w.T * np.array(measure.nums, dtype=object)) @ w, td) / (measure.den * measure.scale_sq)


def _reduced(measure: DiscreteMeasure) -> list:
    """(numerator, denominator) per atom, reduced by one gcd per distinct numerator: an
    orbit of xi, the |W| atoms of one eta^e component and eta^e's wall atoms share one."""
    den, memo = measure.den, {}
    for n in measure.nums:
        if n not in memo:
            g = math.gcd(n, den)
            memo[n] = n // g, den // g
    return [memo[n] for n in measure.nums]


def _csv_blocks(header: str, rows: np.ndarray, tails):
    """The CSV lines of header and of each int64 row followed by its tail, a tuple of ints from
    tails, one %d per field of header, _CSV_BLOCK_ROWS rows a block, so no list of every line
    or text of the whole table is held: the one CSV formatter, of ltl decompose and of measures."""
    line = ",".join(["%d"] * len(header.split(","))) + "\n"
    tails = iter(tails)
    yield header + "\n"
    for a in range(0, len(rows), _CSV_BLOCK_ROWS):
        yield "".join(line % (*w, *t) for w, t in zip(rows[a : a + _CSV_BLOCK_ROWS].tolist(), tails))


def _measure_csv_blocks(measure: DiscreteMeasure):
    """The blocks of measure_to_csv, by _csv_blocks: ltl measure writes them one at a time."""
    header = ",".join(f"weight_{i+1}" for i in range(measure.rank)) + ",numerator,denominator"
    return _csv_blocks(header, measure.weights, _reduced(measure))


def measure_to_csv(measure: DiscreteMeasure) -> str:
    """One atom per row: weight coordinates, then numerator and denominator.  A library caller keeps
    CPython's limit on int-to-str digits (ValueError past 4,300 by default); ltl lifts it."""
    return "".join(_measure_csv_blocks(measure))


def measure_to_json(measure: DiscreteMeasure) -> dict:
    return {
        "N": measure.N,
        "sigma_squared": f"{measure.sigma_sq.numerator}/{measure.sigma_sq.denominator}",
        "atoms": [{"weight": w, "prob": "%d/%d" % nd} for w, nd in zip(measure.weights.tolist(), _reduced(measure))],
    }
