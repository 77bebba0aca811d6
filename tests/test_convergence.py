import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tensorlimits.convergence import (
    ConvergenceReport,
    char_fn_limit_xi,
    char_fn_xi,
    convergence_report,
    default_t_grid,
    histogram_tv,
    moment_errors_xi,
    report_to_csv,
    report_to_json,
    sup_char_error,
    tv_grid,
)
from tensorlimits.densities import MAX_GRID_POINTS, make_density_model
from tensorlimits.errors import BasisMismatch, InadmissibleN, RankTooLarge, UnsupportedType
from tensorlimits.measures import (
    DiscreteMeasure,
    TensorSpec,
    admissible_N,
    directional_second_moment,
    eta_measure,
    xi_measure,
)
from tensorlimits.repchar import trace_identity_check, weyl_dim
from tensorlimits.rootsys import CartanType, build_root_system

import oracles


def make_spec(family, rank, lam=None, tau=1):
    rs = build_root_system(CartanType(family, rank))
    if lam is None:
        lam = tuple(1 if i == 0 else 0 for i in range(rank))
    return TensorSpec(rs, ((tuple(lam), Fraction(tau)),))


A1 = make_spec("A", 1)
A2 = make_spec("A", 2)


def test_char_fn_at_zero_is_one():
    val = char_fn_xi(A1, 8, [(0.0,)])[0]
    assert abs(val - 1.0) < 1e-14


def test_char_fn_single_factor_closed_form():
    # one copy of the 2-dimensional representation: atoms +-1 with mass 1/2,
    # scale sqrt(1/2), so phi(t) = cos(t * sqrt(2))
    ts = (0.3, 1.0, -2.2)
    for t, val in zip(ts, char_fn_xi(A1, 1, [(t,) for t in ts])):
        assert abs(val - math.cos(t * math.sqrt(2))) < 1e-12


def test_char_fn_conjugate_symmetry():
    t = (0.7, -1.3)
    neg = tuple(-x for x in t)
    a, b = char_fn_xi(A2, 4, [t, neg])
    assert abs(a - b.conjugate()) < 1e-13


def test_char_fn_matches_direct_sum():
    m = xi_measure(A2, 4)
    t = (0.9, 0.4)
    d = A2.rs.d
    expect = 0j
    for w, p in m.atoms:
        theta = sum(t[j] * float(d[j]) * w[j] for j in range(2)) / m.scale
        expect += float(p) * complex(math.cos(theta), math.sin(theta))
    got = char_fn_xi(A2, 4, [t])[0]
    assert abs(got - expect) < 1e-12


def test_limit_char_fn_values():
    assert char_fn_limit_xi(A1.rs, (0.0,)) == 1.0
    # (t, t) = 2 t^2 for the rank-1 system
    assert abs(char_fn_limit_xi(A1.rs, (0.5,)) - math.exp(-0.25)) < 1e-15
    cbar = A2.rs.Cbar
    t = (0.4, -0.8)
    qf = sum(t[i] * float(cbar[i][j]) * t[j] for i in range(2) for j in range(2))
    assert abs(char_fn_limit_xi(A2.rs, t) - math.exp(-qf / 2)) < 1e-15


def test_sup_error_zero_grid():
    assert sup_char_error(A1, 16, t_grid=[(0.0,)]) == 0.0


def test_sup_error_decreases_with_n():
    e4 = sup_char_error(A1, 4)
    e64 = sup_char_error(A1, 64)
    assert 0 < e64 < e4


def test_sup_error_bounded_by_two():
    for n in (1, 4, 16):
        assert sup_char_error(A2, n) <= 2.0


def test_char_fn_xi_matches_atom_sums_randomized():
    # the factor-character product against the sum over the atoms of xi(N)
    rng = random.Random(6160)
    taus = [Fraction(1), Fraction(1, 2)]
    seen_taus, seen_trivial, seen_sizes = set(), False, set()
    for label in ["A1", "A2", "A3", "B2", "C3", "G2"]:
        rs = build_root_system(label)
        grid = default_t_grid(rs.rank)
        for _ in range(4):
            factors = []
            while not any(any(lam) for lam, _ in factors):
                factors = []
                for _ in range(rng.randint(1, 2)):
                    lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
                    while weyl_dim(rs, lam) > 16:
                        lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
                    factors.append((lam, rng.choice(taus)))
            seen_taus.update(tau for _, tau in factors)
            seen_trivial |= any(not any(lam) for lam, _ in factors)
            seen_sizes.add(len(factors))
            spec = TensorSpec(rs, tuple(factors))
            n = rng.choice([n for n in range(1, 17) if admissible_N(spec, n)])
            got = char_fn_xi(spec, n)
            want = oracles.char_fn_atoms(rs, xi_measure(spec, n), grid)
            assert got.shape == want.shape == (len(grid),)
            assert np.max(np.abs(got - want)) <= 1e-12, (label, factors, n)
    assert seen_taus == set(taus)
    assert seen_trivial and seen_sizes == {1, 2}


def test_default_t_grid_shape():
    grid = default_t_grid(2)
    assert len(grid) == 25
    assert all(len(t) == 2 for t in grid)
    assert (0.0, 0.0) in grid
    assert max(max(t) for t in grid) == 2.0


def test_moment_errors_low_orders_exact():
    # first and second scaled moments match the Gaussian limit exactly at
    # every N, so those entries must be identically zero
    errs = moment_errors_xi(A2, 4)
    for kappa, err in errs.items():
        if sum(kappa) <= 2:
            assert err == 0.0
    assert any(sum(k) == 4 for k in errs)


def test_fourth_moment_error_shrinks():
    e_small = moment_errors_xi(A1, 4)[(4,)]
    e_big = moment_errors_xi(A1, 64)[(4,)]
    assert e_big < e_small


def test_histogram_tv_in_unit_interval():
    model = make_density_model(A1.rs, "eta")
    tv = histogram_tv(eta_measure(A1, 16), model)
    assert 0.0 <= tv <= 1.0


def test_histogram_tv_disjoint_support():
    # all atom mass far outside the box counts as tail on one side while the
    # density integrates to ~1 inside, so the distance approaches 1
    model = make_density_model(A1.rs, "eta")
    far = DiscreteMeasure(atoms=(((10_000,), Fraction(1)),), sigma_sq=Fraction(1, 2), N=16)
    tv = histogram_tv(far, model)
    assert tv > 0.999
    assert tv <= 1.0


def test_histogram_tv_decreases_on_reference_suite():
    model = make_density_model(A1.rs, "eta")
    tvs = [histogram_tv(eta_measure(A1, n), model) for n in (4, 16, 64)]
    assert tvs[0] > tvs[1] > tvs[2]


def test_histogram_tv_rank_cap():
    rs = build_root_system(CartanType("B", 4))
    model = make_density_model(rs, "eta")
    spec = TensorSpec(rs, (((1, 0, 0, 0), Fraction(1)),))
    with pytest.raises(RankTooLarge):
        histogram_tv(eta_measure(spec, 2), model)


def test_tv_grid_is_pinned_per_rank():
    # bins per axis and midpoint cells per bin and axis: one grid per rank, no caller's choice
    grids = [tv_grid(r) for r in (1, 2, 3)]
    assert grids == [(10, 240), (8, 60), (8, 12)]
    assert all((bins * sub) ** r <= MAX_GRID_POINTS for r, (bins, sub) in enumerate(grids, 1))
    with pytest.raises(RankTooLarge, match="histogram_tv supports rank <= 3, got rank 4"):
        tv_grid(4)


def test_histogram_tv_rejects_measure_of_another_rank():
    a2, a3 = make_spec("A", 2), make_spec("A", 3)
    with pytest.raises(BasisMismatch, match="rank 3.*rank 2"):
        histogram_tv(eta_measure(a3, 8), make_density_model(a2.rs, "eta"))
    with pytest.raises(BasisMismatch, match="rank 2.*rank 3"):
        histogram_tv(eta_measure(a2, 8), make_density_model(a3.rs, "eta"))


B2 = make_spec("B", 2)
DIRECTION_FUNCTIONS = {
    "directional_second_moment": lambda t: directional_second_moment(B2.rs, xi_measure(B2, 4), t),
    "trace_identity_check": lambda t: trace_identity_check(B2.rs, (1, 0), t),
    "char_fn_xi": lambda t: char_fn_xi(B2, 4, [t]),
    "sup_char_error": lambda t: sup_char_error(B2, 4, [t]),
    "char_fn_limit_xi": lambda t: char_fn_limit_xi(B2.rs, t),
}


@pytest.mark.parametrize("t", [(1,), (1, 0, 5)], ids=["short", "long"])
@pytest.mark.parametrize("name", sorted(DIRECTION_FUNCTIONS))
def test_direction_of_wrong_length_is_rejected(name, t):
    # neither truncated by zip nor broadcast by numpy
    with pytest.raises(BasisMismatch, match=f"length {len(t)}; B2 directions have length 2"):
        DIRECTION_FUNCTIONS[name](t)


def test_report_structure_and_flags():
    rep = convergence_report(A1, [4, 16, 64])
    assert isinstance(rep, ConvergenceReport)
    assert rep.N_values == (4, 16, 64)
    assert len(rep.rows) == 3
    assert rep.monotone_char_fn
    assert rep.monotone_histogram_tv
    assert rep.spec_descriptor == A1.describe()


def test_report_rejects_inadmissible_n():
    spec = make_spec("A", 1, tau=Fraction(1, 2))
    with pytest.raises(InadmissibleN, match=r"N = 3 is not admissible for taus \['1/2'\]"):
        convergence_report(spec, [2, 3])
    # not truncated to N = 4
    with pytest.raises(InadmissibleN, match="N = 4.5 is not admissible"):
        convergence_report(spec, [4.5])
    assert convergence_report(spec, [np.int64(4), 2]).N_values == (2, 4)
    # the char-fn names N before N enters the scale sqrt(sigma^2 N): no math
    # domain error, no division by zero, no str times Fraction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (-4, 0, "4"):
            for fn in (char_fn_xi, sup_char_error):
                with pytest.raises(InadmissibleN, match=f"N = {n} is not admissible"):
                    fn(A1, n)


def test_report_refuses_a_type_that_is_not_simple(monkeypatch):
    """D2 = A1 x A1 has no single scale sigma^2 and no Gaussian limit of the
    simple theory: the report refuses it by name before any table is built."""
    from tensorlimits import convergence

    def refuse(*args):
        raise AssertionError("a tensor-power table was computed")

    monkeypatch.setattr(convergence, "tensor_power_table", refuse)
    spec = make_spec("D", 2)
    with pytest.raises(UnsupportedType, match="D2 is not simple"):
        convergence_report(spec, [4, 16, 64])
    for label in ["A1", "A3", "B2", "C3", "D3", "D4", "G2", "F4"]:
        convergence.check_simple(build_root_system(label))


def test_report_csv_deterministic():
    a = report_to_csv(convergence_report(A1, [4, 16]))
    b = report_to_csv(convergence_report(A1, [4, 16]))
    assert a == b
    lines = a.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("N,char_fn_sup_error,")


def test_report_json_round_trip_fields():
    rep = convergence_report(A1, [4, 16])
    doc = report_to_json(rep)
    assert doc["N_values"] == [4, 16]
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    assert {"N", "char_fn_sup_error", "histogram_tv", "moment_errors"} <= set(row)
    assert isinstance(doc["monotone_histogram_tv"], bool)


def test_report_csv_is_the_json_rows_flattened():
    # one definition of the columns: the CSV carries the JSON rows' scalar columns, then
    # moment_err_<key> per moment error, with the same floats; a report with no rows
    # prints the four-column header alone
    b2 = build_root_system("B2")
    rep = convergence_report(TensorSpec(b2, (((0, 1), 1), ((1, 0), Fraction(1, 2)))), [4, 8])
    lines = report_to_csv(rep).splitlines()
    rows = report_to_json(rep)["rows"]
    scalars = ["N", "char_fn_sup_error", "char_fn_sup_error_times_sqrt_N", "histogram_tv"]
    keys = list(rows[0]["moment_errors"])
    assert len(keys) == 14 and lines[0].split(",") == scalars + ["moment_err_" + key for key in keys]
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert int(cells[0]) == row["N"]
        assert [float(x) for x in cells[1:]] == [row[k] for k in scalars[1:]] + [row["moment_errors"][k] for k in keys]
    empty = ConvergenceReport(rep.spec_descriptor, (), (), True, True)
    assert report_to_csv(empty) == ",".join(scalars) + "\n"


def test_report_builds_only_the_n_its_table_lacks(monkeypatch):
    # a table holding N = 4 of [4, 8]: the report builds N = 8 alone, reads the given
    # map for N = 4 as it is, leaves the caller's table as it was, and equals the
    # report built with no table
    from tensorlimits import convergence
    from tensorlimits.repchar import tensor_power_table

    table = tensor_power_table(A2.rs, A2.factors, [4])
    given = table[4]
    calls, read = [], []
    build, eta = convergence.tensor_power_table, convergence.eta_measure

    def counted(rs, factors, n_values):
        calls.append(list(n_values))
        return build(rs, factors, n_values)

    def reading(spec, n, multiplicities):
        read.append(multiplicities)
        return eta(spec, n, multiplicities=multiplicities)

    monkeypatch.setattr(convergence, "tensor_power_table", counted)
    monkeypatch.setattr(convergence, "eta_measure", reading)
    report = convergence_report(A2, [4, 8], table=table)
    assert calls == [[8]] and read[0] is given and list(table) == [4]
    assert report == convergence_report(A2, [4, 8])


def test_factor_characters_built_once_per_spec(monkeypatch):
    # one convergence_report over four N builds each factor's character once:
    # the table and the spec's char-fn and moments share it
    from tensorlimits import repchar

    built = []
    build = repchar.irreducible_character

    def counted(rs, lam):
        built.append(tuple(lam))
        return build(rs, lam)

    monkeypatch.setattr(repchar, "irreducible_character", counted)
    b2 = build_root_system("B2")
    for spec in (make_spec("A", 2), TensorSpec(b2, (((0, 1), 1), ((1, 0), Fraction(1, 2))))):
        repchar._factor_support.cache_clear()
        built.clear()
        convergence_report(spec, [4, 8, 16, 32])
        assert sorted(built) == sorted(lam for lam, _ in spec.factors)


def test_factor_supports_and_dims_built_once_per_spec(monkeypatch):
    # a cold three-N convergence_report expands each factor's support once, for
    # Miller's steps, the char-fn and the moments at every N, and takes each
    # factor's Weyl dimension once per spec, for the check of the table's totals;
    # a second spec of the same factors reuses the process's supports
    from tensorlimits import measures, repchar

    expanded, dims = [], []
    support, weyl_dim_ = repchar.MultiplicityMap.support, measures.weyl_dim

    def counted_support(m):
        expanded.append(m.total_dim)
        return support(m)

    def counted_dim(rs, lam):
        dims.append(tuple(lam))
        return weyl_dim_(rs, lam)

    monkeypatch.setattr(repchar.MultiplicityMap, "support", counted_support)
    monkeypatch.setattr(measures, "weyl_dim", counted_dim)
    b2 = build_root_system("B2")
    for spec in (make_spec("A", 2), TensorSpec(b2, (((0, 1), 1), ((1, 0), Fraction(1, 2))))):
        repchar._factor_support.cache_clear()
        expanded.clear()
        dims.clear()
        first = convergence_report(spec, [4, 8, 16])
        assert sorted(expanded) == sorted(weyl_dim(spec.rs, lam) for lam, _ in spec.factors)
        assert sorted(dims) == sorted(lam for lam, _ in spec.factors)
        expanded.clear()
        dims.clear()
        again = TensorSpec(spec.rs, spec.factors)
        assert convergence_report(again, [4, 8, 16]) == first
        assert expanded == [] and sorted(dims) == sorted(lam for lam, _ in spec.factors)
