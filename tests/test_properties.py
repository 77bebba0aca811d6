"""Property tests: exact identities over random types, weights, taus and N.

Each example is a TensorSpec on one of A1, A2, A3, B2, C3, G2 with one or
two factors of small dominant highest weight (a trivial factor included, as
long as one is not) and tau in {1, 1/2}, and an admissible N kept small
enough that dim V_N stays below DIM_LIMIT.
"""

from fractions import Fraction
from functools import cache
from math import gcd, prod

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tensorlimits.convergence import _density_boxes, char_fn_xi, default_t_grid, histogram_tv
from tensorlimits.densities import make_density_model
from tensorlimits.linalg import bilinear
from tensorlimits.measures import (
    DiscreteMeasure,
    TensorSpec,
    admissible_N,
    directional_second_moment,
    eta_extended_measure,
    eta_measure,
    factor_counts,
    measure_to_csv,
    measure_to_json,
    mixed_moments,
    pushforward_dominant_shifted,
    xi_measure,
)
from tensorlimits.repchar import (
    load_multiplicity_map,
    racah_decompose,
    save_multiplicity_map,
    tensor_power_table,
    weyl_dim,
)
from tensorlimits.rootsys import build_root_system, weyl_group_order

import oracles
from oracles import fields, peel_off_decompose

# largest coordinate of a drawn highest weight, by type
MAX_COORD = {"A1": 4, "A2": 2, "A3": 1, "B2": 2, "C3": 1, "G2": 1}
SYSTEMS = {label: build_root_system(label) for label in MAX_COORD}
DIM_LIMIT = 2000


@st.composite
def specs(draw):
    """(TensorSpec, N) with N admissible and dim V_N <= DIM_LIMIT."""
    label = draw(st.sampled_from(sorted(SYSTEMS)))
    rs = SYSTEMS[label]
    weight = st.tuples(*[st.integers(0, MAX_COORD[label])] * rs.rank)
    factors = draw(
        st.lists(st.tuples(weight, st.sampled_from([Fraction(1), Fraction(1, 2)])), min_size=1, max_size=2)
    )
    assume(any(any(lam) for lam, _ in factors))  # sigma^2 > 0
    spec = TensorSpec(rs, tuple(factors))
    n_values = [n for n in range(1, 17) if admissible_N(spec, n) and _dim(spec, n) <= DIM_LIMIT]
    assume(n_values)
    return spec, draw(st.sampled_from(n_values))


def _dim(spec, n):
    """prod_l dim(V_lam_l)^(tau_l n), the dimension of V_n."""
    return prod(weyl_dim(spec.rs, lam) ** k for lam, k in factor_counts(spec, n))


def _table(spec, n):
    return tensor_power_table(spec.rs, spec.factors, [n])[n]


@settings(max_examples=50)
@given(specs())
def test_tensor_power_table_is_w_invariant_with_product_dimension(case):
    spec, n = case
    m = _table(spec, n)
    assert m.total_dim == sum(m.entries.values()) == _dim(spec, n)
    for mu, c in m.entries.items():
        for w in spec.rs.weyl:
            assert m[w.apply(mu)] == c


@settings(max_examples=50)
@given(specs())
def test_racah_matches_peel_off(case):
    spec, n = case
    m = _table(spec, n)
    dec = racah_decompose(spec.rs, m)
    push, scan = oracles.racah_pushforward(spec.rs, m), oracles.racah_full_scan(spec.rs, m)
    peel = peel_off_decompose(spec.rs, m.entries)
    assert oracles.fields(dec) == oracles.fields(push) == oracles.fields(scan) == oracles.fields(peel)


@settings(max_examples=25)
@given(specs())
def test_eta_extended_pushes_forward_to_eta(case):
    spec, n = case
    m = _table(spec, n)
    eta = eta_measure(spec, n, multiplicities=m)
    ext = eta_extended_measure(spec, n, multiplicities=m)
    pushed = pushforward_dominant_shifted(spec.rs, ext)
    assert pushed.den == ext.den != eta.den
    assert pushed == eta and hash(pushed) == hash(eta) and pushed.atoms == eta.atoms


@settings(max_examples=25)
@given(specs())
def test_measures_have_one_denominator_and_print_reduced(case):
    """xi and eta are over dim V_N, eta^e over dim V_N |W|; the atoms constructor
    rebuilds each measure; every CSV row is a reduced fraction, and they sum to 1."""
    spec, n = case
    m = _table(spec, n)
    order = weyl_group_order(spec.rs.cartan_type)
    for build, den in ((xi_measure, m.total_dim), (eta_measure, m.total_dim), (eta_extended_measure, m.total_dim * order)):
        measure = build(spec, n, multiplicities=m)
        assert measure.den == den and sum(measure.nums) == den, build.__name__
        assert DiscreteMeasure(measure.atoms, measure.sigma_sq, measure.N) == measure
        rows = [[int(x) for x in line.split(",")] for line in measure_to_csv(measure).splitlines()[1:]]
        assert all(gcd(row[-2], row[-1]) == 1 and row[-1] > 0 for row in rows), build.__name__
        assert [(tuple(row[:-2]), Fraction(row[-2], row[-1])) for row in rows] == list(measure.atoms)
        assert sum(Fraction(row[-2], row[-1]) for row in rows) == 1


# a two-factor G2 spec (pairing scale s = 3) beside the drawn ones
G2_CASE = (TensorSpec(SYSTEMS["G2"], (((1, 0), 1), ((0, 1), Fraction(1, 2)))), 4)


@settings(max_examples=50)
@example(G2_CASE)
@given(specs())
def test_xi_orbits_match_sorted_entries(case):
    """xi_measure, built by orbit_rows per zero pattern and one lexsort, gives the atoms,
    numerators and denominator of the sorted full entries of its character."""
    spec, n = case
    m = _table(spec, n)
    got, want = xi_measure(spec, n, multiplicities=m), oracles.xi_from_entries(spec, n, m)
    assert np.array_equal(got.weights, want.weights) and got.weights.dtype == want.weights.dtype
    assert (got.nums, got.den, got.sigma_sq, got.N) == (want.nums, want.den, want.sigma_sq, want.N)
    assert all(type(x) is int for x in got.nums)


@settings(max_examples=25)
@example(G2_CASE)
@given(specs())
def test_formatters_match_one_gcd_per_atom(case):
    """measure_to_csv and measure_to_json, one gcd per distinct numerator, print what
    one gcd per atom prints, on xi, eta and eta^e with its zero-mass wall atoms."""
    spec, n = case
    m = _table(spec, n)
    for build in (xi_measure, eta_measure, eta_extended_measure):
        measure = build(spec, n, multiplicities=m)
        assert measure_to_csv(measure) == oracles.measure_csv(measure), build.__name__
        assert measure_to_json(measure) == oracles.measure_json(measure), build.__name__
    assert 0 in measure.nums  # eta^e holds wall atoms


@settings(max_examples=50)
@given(specs(), st.data())
def test_xi_directional_second_moment_is_t_squared(case, data):
    spec, n = case
    rs = spec.rs
    coord = st.fractions(min_value=-8, max_value=8, max_denominator=4)
    t = data.draw(st.tuples(*[coord] * rs.rank))
    xi = xi_measure(spec, n, multiplicities=_table(spec, n))
    assert directional_second_moment(rs, xi, t) == bilinear(t, rs.Cbar, t)


@settings(max_examples=25)
@given(specs(), st.integers(0, 6))
def test_mixed_moments_match_atom_sums(case, k):
    spec, n = case
    got = mixed_moments(spec, n, k)
    want = oracles.mixed_moments(xi_measure(spec, n, multiplicities=_table(spec, n)), k)
    assert list(got) == list(want)
    for kappa, value in want.items():
        assert got[kappa] == value and type(got[kappa]) is type(value), kappa


@settings(max_examples=25)
@given(specs())
def test_char_fn_xi_matches_atom_sums(case):
    spec, n = case
    xi = xi_measure(spec, n, multiplicities=_table(spec, n))
    want = oracles.char_fn_atoms(spec.rs, xi, default_t_grid(spec.rs.rank))
    assert np.max(np.abs(char_fn_xi(spec, n) - want)) <= 1e-12


@cache
def _model(label, kind):
    return make_density_model(SYSTEMS[label], kind)


@settings(max_examples=10)
@given(specs())
def test_histogram_tv_matches_atom_sums(case):
    """histogram_tv bins all atoms at once and sums each box over one denominator;
    the per-atom Fraction sums of the oracle give the same float, bit for bit."""
    spec, n = case
    m = _table(spec, n)
    label = str(spec.rs.cartan_type)
    for kind, build in (("xi", xi_measure), ("eta", eta_measure), ("eta_extended", eta_extended_measure)):
        measure = build(spec, n, multiplicities=m)
        model = _model(label, kind)
        assert histogram_tv(measure, model) == oracles.boxes_tv(measure, _density_boxes(model)), kind


@settings(max_examples=25)
@given(specs())
def test_stored_decomposition_is_the_w_sum(tmp_path_factory, case):
    """A saved map loads with its decomposition attached, and it is, row for row, count for count
    and dimension for dimension, what the W-sum gives on a freshly built table."""
    spec, n = case
    path = tmp_path_factory.mktemp("cache") / "map.bin"
    save_multiplicity_map(_table(spec, n), path)
    back = load_multiplicity_map(path)
    assert "_decomposition" in vars(back)
    fresh = tensor_power_table(spec.rs, spec.factors, [n])[n]
    assert fields(racah_decompose(spec.rs, back)) == fields(racah_decompose(spec.rs, fresh))
