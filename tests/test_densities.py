"""Limit densities: hand-expanded closed forms, GUE identity, quadrature."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tensorlimits import densities
from tensorlimits.convergence import histogram_tv, tv_grid
from tensorlimits.densities import (
    KINDS,
    MAX_GRID_POINTS,
    DensityModel,
    box_masses,
    density_box,
    gue_identity_check,
    make_density_model,
    normalization_quadrature,
    p_eta,
    p_eta_extended,
    p_xi,
)
from tensorlimits.errors import (
    BasisMismatch,
    GridCapExceeded,
    OutsideDomain,
    RankTooLarge,
    TraceNotZero,
    UnsupportedType,
)
from tensorlimits.measures import TensorSpec, eta_measure
from tensorlimits.rootsys import build_root_system

from oracles import mat_vec

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")
G2 = build_root_system("G2")
A3 = build_root_system("A3")
B3 = build_root_system("B3")
C3 = build_root_system("C3")


def kinds_of(rs):
    """Every density kind defined on rs: gue only on type A."""
    return [k for k in KINDS if k != "gue" or rs.cartan_type.family == "A"]

SQ = math.sqrt


def closed_form_a1_xi(x):
    return SQ(1 / 2) / SQ(2 * math.pi) * math.exp(-x * x / 4)


def closed_form_a1_eta(x):
    return SQ(1 / 2) / SQ(2 * math.pi) * x * x * math.exp(-x * x / 4)


def closed_form_a2_xi(x, y):
    return SQ(1 / 3) / (2 * math.pi) * math.exp(-(x * x + x * y + y * y) / 3)


def closed_form_a2_eta(x, y):
    poly = x * x * y * y * (x + y) ** 2 / 2
    return poly * closed_form_a2_xi(x, y)


def closed_form_b2_xi(x, y):
    return SQ(1 / 4) / (2 * math.pi) * math.exp(-(x * x + x * y + y * y / 2) / 2)


def closed_form_b2_eta(x, y):
    poly = x * x * (y / 2) ** 2 * (x + y) ** 2 * (x + y / 2) ** 2 / (3 / 2)
    return poly * closed_form_b2_xi(x, y)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def test_closed_form_density_reproduction():
    rng = random.Random(51)
    for _ in range(40):
        x = rng.uniform(-4, 4)
        assert rel_close(p_xi(A1, (x,)), closed_form_a1_xi(x), 1e-12)
        assert rel_close(p_eta(A1, (abs(x),)), closed_form_a1_eta(abs(x)), 1e-12)
        y = rng.uniform(-4, 4)
        assert rel_close(p_xi(A2, (x, y)), closed_form_a2_xi(x, y), 1e-12)
        assert rel_close(p_eta(A2, (abs(x), abs(y))), closed_form_a2_eta(abs(x), abs(y)), 1e-12)
        assert rel_close(p_xi(B2, (x, y)), closed_form_b2_xi(x, y), 1e-12)
        assert rel_close(p_eta(B2, (abs(x), abs(y))), closed_form_b2_eta(abs(x), abs(y)), 1e-12)


def _exact_oracle(rs, kind, points, roots):
    """Density values at rational points, exact up to one float exp and the constant.

    (x,x) and each (x,a) in the product over roots are Fractions from
    gram_omega and the roots in omega coordinates; the constant comes from a
    float determinant, the positive roots and |W| = len(rs.weyl)."""
    gram = rs.gram_omega
    r = rs.rank
    const = math.sqrt(np.linalg.det(np.array(gram, dtype=float))) / (2 * math.pi) ** (r / 2)
    if kind != "xi":
        roots_omega = [mat_vec(rs.C, root) for root in rs.positive_roots]
        rho_pairings = (sum(gram[i][j] * a[j] for i in range(r) for j in range(r)) for a in roots_omega)
        const /= float(math.prod(rho_pairings))
    if kind == "eta_extended":
        const /= len(rs.weyl)
    out = []
    for x in points:
        xx = sum(x[i] * gram[i][j] * x[j] for i in range(r) for j in range(r))
        poly = Fraction(1)
        if kind != "xi":
            poly = math.prod(sum(x[i] * gram[i][j] * a[j] for i in range(r) for j in range(r)) ** 2 for a in roots)
        inside = kind not in ("eta", "gue") or min(x) >= 0
        out.append(const * float(poly) * math.exp(-float(xx) / 2) if inside else 0.0)
    return np.array(out)


@pytest.mark.parametrize("rs", [A3, B3, C3], ids=lambda rs: str(rs.cartan_type))
def test_rank3_kernel_matches_exact_oracle(rs):
    # dyadic points are exact as floats, so only the kernel's own rounding is compared
    rng = random.Random(20261020)
    dyadic = lambda: Fraction(rng.randint(-192, 192), 64)
    points = [tuple(dyadic() for _ in range(3)) for _ in range(40)]
    points += [tuple(abs(c) for c in pt) for pt in points[:20]]
    axes = [sorted({dyadic() for _ in range(4)}) for _ in range(3)]
    mesh = list(itertools.product(*axes))
    for kind in kinds_of(rs):
        model = make_density_model(rs, kind)
        roots = [mat_vec(rs.C, root) for root in rs.positive_roots]
        expected = _exact_oracle(rs, kind, points, roots)
        got = model.evaluate(np.array(points, dtype=float))
        assert np.allclose(got, expected, rtol=1e-12, atol=0), (rs, kind)
        assert np.count_nonzero(expected) >= 20
        grid = model.values(np.ix_(*(np.array(a, dtype=float) for a in axes)))
        assert np.allclose(grid.ravel(), _exact_oracle(rs, kind, mesh, roots), rtol=1e-12, atol=0), (rs, kind)
        if kind != "xi":
            # mutation: with one root dropped from the product the oracle no longer matches
            k = rng.randrange(len(roots))
            dropped = _exact_oracle(rs, kind, points, roots[:k] + roots[k + 1 :])
            assert not np.allclose(got, dropped, rtol=1e-12, atol=0), (rs, kind, k)


def test_eta_domain_and_walls():
    assert p_eta(A2, (0.0, 1.3)) == 0.0
    assert p_eta(A2, (2.0, 0.0)) == 0.0
    with pytest.raises(OutsideDomain):
        p_eta(A2, (-0.5, 1.0))


def test_eta_extended_formulas():
    rng = random.Random(53)
    for _ in range(30):
        x = rng.uniform(-5, 5)
        assert rel_close(p_eta_extended(A1, (x,)), 0.5 * closed_form_a1_eta(abs(x)), 1e-12)
    # strictly dominant points: p_eta = |W| * p_eta_extended
    for rs in (A2, B2, G2):
        for _ in range(20):
            x = (rng.uniform(0.1, 3), rng.uniform(0.1, 3))
            assert rel_close(p_eta(rs, x), len(rs.weyl) * p_eta_extended(rs, x), 1e-12)


def test_eta_extended_w_invariance():
    rng = random.Random(57)
    for rs in (A2, B2):
        for _ in range(300):
            x = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4)])
            base = p_eta_extended(rs, x)
            for w in rs.weyl:
                wm = np.array(w.matrix, dtype=float)
                val = p_eta_extended(rs, wm @ x)
                assert rel_close(val, base, 1e-12)


def test_gue_identity_examples():
    lhs, rhs = gue_identity_check((1.0, -1.0))
    assert rel_close(lhs, 4 * math.exp(-1), 1e-14) and rel_close(rhs, lhs, 1e-14)
    lhs, rhs = gue_identity_check((0.0, 0.0))
    assert lhs == rhs == 0.0
    with pytest.raises(TraceNotZero):
        gue_identity_check((1.0, -0.5))
    with pytest.raises(ValueError):
        gue_identity_check((0.0,))


def test_gue_identity_random():
    rng = random.Random(61)
    for n in (3, 4, 5):
        for _ in range(25):
            ints = rng.sample(range(-20, 21), n)
            mean = sum(ints) / n
            a = [v - mean for v in ints]
            lhs, rhs = gue_identity_check(a)
            assert rel_close(lhs, rhs, 1e-10)


def test_model_kinds_and_constants():
    m = make_density_model(A2, "xi")
    assert rel_close(m.norm_const, SQ(1 / 3) / (2 * math.pi), 1e-14)
    eta = make_density_model(B2, "eta")
    assert rel_close(eta.norm_const, SQ(1 / 4) / (2 * math.pi) / 1.5, 1e-14)
    ext = make_density_model(B2, "eta_extended")
    assert rel_close(ext.norm_const, eta.norm_const / 8, 1e-14)
    with pytest.raises(ValueError):
        make_density_model(A2, "normal")
    with pytest.raises(UnsupportedType):
        make_density_model(B2, "gue")
    # gue on type A is the eta density
    gue = make_density_model(A2, "gue")
    pts = np.array([[0.5, 1.5], [2.0, 0.25]])
    assert np.allclose(gue.evaluate(pts), eta_vals := make_density_model(A2, "eta").evaluate(pts), rtol=1e-15)
    assert eta_vals.shape == (2,)


def test_evaluate_masks_cone_kinds():
    eta = make_density_model(A2, "eta")
    vals = eta.evaluate(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    assert vals[0] > 0 and vals[1] == 0.0


def test_normalization_quadrature():
    assert abs(normalization_quadrature(make_density_model(A1, "eta")) - 1) < 1e-6
    assert abs(normalization_quadrature(make_density_model(A1, "xi")) - 1) < 1e-6
    assert abs(normalization_quadrature(make_density_model(A2, "xi")) - 1) < 1e-6
    assert abs(normalization_quadrature(make_density_model(B2, "eta")) - 1) < 1e-4
    ext = normalization_quadrature(make_density_model(A2, "eta_extended"))
    assert abs(ext - 1) < 1e-4


def test_quadrature_rank_cap():
    f4 = build_root_system("F4")
    model = make_density_model(f4, "xi")
    with pytest.raises(RankTooLarge):
        normalization_quadrature(model)
    # an explicit resolution overrides the cap
    val = normalization_quadrature(model, resolution=40)
    assert 0.5 < val < 1.5


@pytest.mark.parametrize("resolution", [17, 40, 64])
def test_streamed_quadrature_is_the_sum_of_the_box_masses(resolution):
    # the quadrature adds slab sums and multiplies once by the cell volume; box_masses
    # multiplies each cell and keeps the whole grid: the same total up to rounding
    for rs in (A1, A2, B2, G2, A3, B3, C3):
        for kind in kinds_of(rs):
            model = make_density_model(rs, kind)
            lo, hi = density_box(model, 10.0)
            expected = box_masses(model, lo, hi, resolution, 1).sum()
            got = normalization_quadrature(model, resolution)
            assert math.isclose(got, expected, rel_tol=1e-14, abs_tol=0), (rs, kind, resolution)


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of run() (numpy's buffers are traced)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_holds_one_slab_not_the_grid():
    # a default-resolution grid has up to 120^3 cells, 13.8 MB as float64; 256^3 (the
    # grid cap) 134 MB: the quadrature holds one slab and the hoisted arrays
    for rs in (A1, A2, B2, G2, A3, B3, C3):
        for kind in kinds_of(rs):
            model = make_density_model(rs, kind)
            peak = _traced_peak(lambda: normalization_quadrature(model))
            assert peak <= 4 * 2**20, (rs, kind, peak)
    model = make_density_model(A3, "eta_extended")
    peak = _traced_peak(lambda: normalization_quadrature(model, resolution=256))
    assert peak <= 16 * 2**20, peak


def _full_mesh_box_masses(model, lo, hi, bins, sub):
    """Direct midpoint sum: evaluate the whole (bins * sub)^rank mesh at once, sum each box.

    The mesh has box_masses's midpoints to the last bit: a step of (b - a) / n
    instead of (b - a) / bins / sub moves far-tail values by up to 2e-13."""
    rank = len(lo)
    n = bins * sub
    axes = [a + (np.arange(n) + 0.5) * ((b - a) / bins / sub) for a, b in zip(lo, hi)]
    vals = model.evaluate(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    boxes = vals.reshape((bins, sub) * rank).sum(axis=tuple(range(1, 2 * rank, 2)))
    return boxes * math.prod((b - a) / n for a, b in zip(lo, hi))


def test_box_masses_match_full_mesh_sum_randomized():
    rng = random.Random(20261018)
    for rs in (A1, A2, B2, G2, A3, B3, C3):
        for kind in kinds_of(rs):
            model = make_density_model(rs, kind)
            for _ in range(3):
                bins, sub = rng.randint(1, 6), rng.randint(1, 6)
                lo, hi = density_box(model, rng.choice([3.0, 6.0, 10.0]))
                got = box_masses(model, lo, hi, bins, sub)
                expected = _full_mesh_box_masses(model, lo, hi, bins, sub)
                assert got.shape == (bins,) * rs.rank
                assert np.allclose(got, expected, rtol=1e-14, atol=0), (rs, kind, bins, sub)


def test_density_grids_evaluate_one_slab_per_call(monkeypatch):
    # normalization_quadrature and the TV boxes build the x_0-free half of the
    # kernel once per grid, then call the per-slab half once per box along the
    # first axis, each time on an equal share of the points; the quadrature's
    # boxes are not subdivided, so SLAB_POINTS is set to one box-thick slab here.
    # eta_extended's quadrature walks the slabs at x_0 >= 0 only: 15 of 30, and
    # 16 of 31 with the centre slab at x_0 = 0
    monkeypatch.setattr(densities, "SLAB_POINTS", 30**2)
    hoists, sizes = [], []
    hoist, slab = DensityModel.hoist, DensityModel.slab

    def recording_hoist(self, rest):
        hoists.append(len(rest))
        return hoist(self, rest)

    def recording_slab(self, x0, hoisted):
        vals = slab(self, x0, hoisted)
        sizes.append(vals.size)
        return vals

    monkeypatch.setattr(DensityModel, "hoist", recording_hoist)
    monkeypatch.setattr(DensityModel, "slab", recording_slab)
    eta = eta_measure(TensorSpec(A3, (((1, 0, 0), 1),)), 4)
    bins, sub = tv_grid(3)
    for slabs, points, run in (
        (15, 15 * 30**2, lambda: normalization_quadrature(make_density_model(A3, "eta_extended"), resolution=30)),
        (16, 16 * 31**2, lambda: normalization_quadrature(make_density_model(A3, "eta_extended"), resolution=31)),
        (bins, (bins * sub) ** 3, lambda: histogram_tv(eta, make_density_model(A3, "eta"))),
    ):
        hoists.clear()
        sizes.clear()
        run()
        assert hoists == [2]
        assert len(sizes) == slabs
        assert all(size * slabs == sum(sizes) == points for size in sizes)


def test_quadrature_of_the_even_kinds_walks_half_the_grid(monkeypatch):
    # xi and eta_extended are even on a symmetric box: the slabs at x_0 >= 0,
    # ceil(n / 2) n^(r - 1) points; the cone kinds walk all n^r
    points = []
    slab = DensityModel.slab

    def recording_slab(self, x0, hoisted):
        vals = slab(self, x0, hoisted)
        points.append(vals.size)
        return vals

    monkeypatch.setattr(DensityModel, "slab", recording_slab)
    for rs in (A1, A2, B2, G2, A3, B3, C3):
        for n in (17, 40):
            for kind in kinds_of(rs):
                points.clear()
                normalization_quadrature(make_density_model(rs, kind), n)
                rows = -(-n // 2) if kind in ("xi", "eta_extended") else n
                assert sum(points) == rows * n ** (rs.rank - 1), (rs, n, kind)


def test_unsubdivided_grids_take_several_slabs_per_call(monkeypatch):
    # at sub = 1 box_masses hands slab about SLAB_POINTS points per call, as
    # whole one-box slabs, and the masses are those of one slab per call to the bit
    sizes = []
    slab = DensityModel.slab

    def recording_slab(self, x0, hoisted):
        vals = slab(self, x0, hoisted)
        sizes.append(vals.shape)
        return vals

    for rs, kind, bins in ((A1, "xi", 4000), (A2, "eta", 800), (G2, "eta_extended", 300), (A3, "eta_extended", 120)):
        model = make_density_model(rs, kind)
        lo, hi = density_box(model, 10.0)
        monkeypatch.setattr(densities, "SLAB_POINTS", 1)
        one = box_masses(model, lo, hi, bins, 1)
        monkeypatch.undo()
        monkeypatch.setattr(DensityModel, "slab", recording_slab)
        sizes.clear()
        got = box_masses(model, lo, hi, bins, 1)
        monkeypatch.undo()
        assert np.array_equal(got, one), (rs, kind)
        step = max(1, densities.SLAB_POINTS // bins ** (rs.rank - 1))
        assert [shape[0] for shape in sizes] == [min(step, bins - k) for k in range(0, bins, step)]
        assert all(math.prod(shape[1:]) == bins ** (rs.rank - 1) for shape in sizes)


def test_grid_kernel_equals_point_evaluation_bitwise():
    # the kernel on np.ix_ axes and evaluate on the stacked mesh do the same
    # float operations per point, so every value agrees to the last bit
    rng = np.random.default_rng(20261019)
    for rs in (A1, A2, B2, G2, A3, B3, C3):
        n = {1: 97, 2: 41, 3: 13}[rs.rank]
        for kind in kinds_of(rs):
            model = make_density_model(rs, kind)
            axes = [np.sort(rng.uniform(-4.0, 4.0, n)) for _ in range(rs.rank)]
            grid = model.values(np.ix_(*axes))
            points = model.evaluate(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
            assert grid.shape == points.shape == (n,) * rs.rank
            assert grid.tobytes() == points.tobytes(), (rs, kind)
            assert np.count_nonzero(grid) > 0


def test_oversized_grid_is_refused_before_evaluation(monkeypatch):
    def refuse(*args):
        raise AssertionError("the kernel ran on an oversized grid")

    for half in ("hoist", "slab", "values"):
        monkeypatch.setattr(DensityModel, half, refuse)
    model = make_density_model(A3, "eta_extended")
    side = round(MAX_GRID_POINTS ** (1 / 3)) + 1
    with pytest.raises(GridCapExceeded):
        normalization_quadrature(model, resolution=side)
    lo, hi = density_box(model, 6.0)
    with pytest.raises(GridCapExceeded):
        box_masses(model, lo, hi, 10**6, 2)
    # grid sizes below 1: a ValueError naming the argument, not a ZeroDivisionError
    # or numpy's negative dimensions
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"resolution must be at least 1, got {bad}"):
            normalization_quadrature(model, resolution=bad)
        with pytest.raises(ValueError, match=f"bins must be at least 1, got {bad}"):
            box_masses(model, lo, hi, bad, 2)


def test_xi_covariance_matches_gram_inverse():
    for rs in (A1, A2):
        model = make_density_model(rs, "xi")
        lo, hi = density_box(model, 10.0)
        res = 400
        axes = [np.linspace(a + (b - a) / (2 * res), b - (b - a) / (2 * res), res) for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        vals = model.evaluate(pts)
        cell = 1.0
        for a, b in zip(lo, hi):
            cell *= (b - a) / res
        for i in range(rs.rank):
            for j in range(rs.rank):
                moment = float(np.sum(vals * pts[..., i] * pts[..., j])) * cell
                assert abs(moment - float(rs.gram_omega_inv[i][j])) < 1e-5


def test_density_model_shape_handling():
    model = make_density_model(A1, "xi")
    single = model.evaluate(np.array([0.0]))
    assert rel_close(float(single), closed_form_a1_xi(0.0), 1e-14)
    grid = model.evaluate(np.zeros((5, 3, 1)))
    assert grid.shape == (5, 3)
    # a point of another length is neither truncated nor an IndexError
    a2 = make_density_model(A2, "xi")
    for call, n in [
        (lambda: p_xi(A2, [1.0, 2.0, 3.0]), 3),
        (lambda: p_xi(A2, [1.0]), 1),
        (lambda: p_xi(A2, 1.0), 0),
        (lambda: a2.evaluate(np.zeros((4, 3))), 3),
        (lambda: a2.evaluate(np.zeros((4, 1))), 1),
        (lambda: a2.values([np.zeros(4)] * 3), 3),
        (lambda: a2.values([np.zeros(4)]), 1),
    ]:
        with pytest.raises(BasisMismatch, match=f"point of length {n}; A2 points have length 2"):
            call()
