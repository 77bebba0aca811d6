"""Acceptance suite: nine end-to-end criteria, one test (and one line) each.

Run with `pytest -v tests/test_acceptance.py` to see each criterion's
pass/fail line.  Thresholds and runtimes are part of the criteria and are
asserted, not just reported.
"""

import math
import random
import time
from fractions import Fraction

from tensorlimits.convergence import convergence_report
from tensorlimits.densities import (
    gue_identity_check,
    make_density_model,
    normalization_quadrature,
    p_eta,
    p_xi,
)
from tensorlimits.linalg import bilinear, mat
from tensorlimits.measures import (
    TensorSpec,
    directional_second_moment,
    eta_extended_measure,
    eta_measure,
    pushforward_dominant_shifted,
    xi_measure,
)
from tensorlimits.repchar import (
    racah_decompose,
    tensor_power_table,
    weyl_dim,
)
from tensorlimits.rootsys import CartanType, build_root_system

import numpy as np

from oracles import character_map, convolve, freudenthal_multiplicities, peel_off_decompose


def system(name):
    return build_root_system(CartanType.parse(name))


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_closed_form_density_reproduction():
    start = time.monotonic()
    rng = random.Random(101)
    a1, a2, b2 = system("A1"), system("A2"), system("B2")

    c1 = math.sqrt(0.5) / math.sqrt(2 * math.pi)
    c2 = math.sqrt(1.0 / 3.0) / (2 * math.pi)
    c3 = math.sqrt(0.25) / (2 * math.pi)
    for _ in range(100):
        x = rng.uniform(-6, 6)
        y = rng.uniform(-6, 6)
        assert rel_err(p_xi(a1, (x,)), c1 * math.exp(-x * x / 4)) < 1e-12
        assert rel_err(
            p_xi(a2, (x, y)), c2 * math.exp(-(x * x + x * y + y * y) / 3)
        ) < 1e-12
        assert rel_err(
            p_xi(b2, (x, y)), c3 * math.exp(-(x * x + x * y + y * y / 2) / 2)
        ) < 1e-12
        xp, yp = abs(x) + 1e-3, abs(y) + 1e-3
        assert rel_err(
            p_eta(a1, (xp,)), c1 * xp * xp * math.exp(-xp * xp / 4)
        ) < 1e-12
        poly_a2 = xp * xp * yp * yp * (xp + yp) ** 2 / 2
        assert rel_err(
            p_eta(a2, (xp, yp)),
            c2 * poly_a2 * math.exp(-(xp * xp + xp * yp + yp * yp) / 3),
        ) < 1e-12
        poly_b2 = xp * xp * (yp / 2) ** 2 * (xp + yp) ** 2 * (xp + yp / 2) ** 2 / Fraction(3, 2)
        assert rel_err(
            p_eta(b2, (xp, yp)),
            c3 * poly_b2 * math.exp(-(xp * xp + xp * yp + yp * yp / 2) / 2),
        ) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: closed-form densities reproduced ({elapsed:.2f}s)")


def test_criterion_2_density_normalization():
    start = time.monotonic()
    for name, tol in (("A1", 1e-6), ("A2", 1e-6), ("B2", 1e-4), ("G2", 1e-4)):
        rs = system(name)
        for kind in ("xi", "eta"):
            mass = normalization_quadrature(make_density_model(rs, kind))
            assert abs(mass - 1.0) < tol, (name, kind, mass)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: quadrature masses are 1 ({elapsed:.2f}s)")


def test_criterion_3_exact_second_moment():
    rng = random.Random(303)
    for name, lam in (("A1", (2,)), ("A2", (1, 0)), ("B2", (0, 1)), ("G2", (1, 0))):
        rs = system(name)
        spec = TensorSpec(rs, ((lam, Fraction(1, 2)), (lam, Fraction(1, 2))))
        for n in (4, 10):
            measure = xi_measure(spec, n)
            for _ in range(20):
                t = tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(rs.rank)
                )
                if all(x == 0 for x in t):
                    t = tuple(Fraction(1) for _ in range(rs.rank))
                got = directional_second_moment(rs, measure, t)
                want = bilinear(t, mat(rs.Cbar), t)
                assert got == want
    print("criterion 3 PASS: second moments exact for A1,A2,B2,G2 at N=4,10")


def test_criterion_4_decomposition_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(404)
    pool = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
    systems = {name: system(name) for name in pool}
    done = 0
    while done < 50:
        rs = systems[rng.choice(pool)]
        k = rng.randint(1, 3)
        lams = []
        for _ in range(k):
            lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            if any(lam):
                lams.append(lam)
        if not lams:
            continue
        total = 1
        for lam in lams:
            total *= weyl_dim(rs, lam)
        if total > 100_000:
            continue
        product = freudenthal_multiplicities(rs, lams[0]).entries
        for lam in lams[1:]:
            product = convolve(product, freudenthal_multiplicities(rs, lam).entries)
        racah = racah_decompose(rs, character_map(rs, product))
        peel = peel_off_decompose(rs, product)
        assert racah.components == peel.components
        recon = sum(c * weyl_dim(rs, w) for w, c in racah.components.items())
        assert recon == total
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 4 PASS: racah == peel on 50 random products ({elapsed:.2f}s)")


def test_criterion_5_denominator_identity():
    types = [
        "A1", "A2", "A3", "A4",
        "B1", "B2", "B3", "B4",
        "C1", "C2", "C3", "C4",
        "D2", "D3", "D4",
        "G2", "F4",
    ]
    rng = random.Random(505)
    for name in types:
        rs = system(name)
        r = rs.rank
        dvec = [float(x) for x in rs.d]
        roots = [[float(x) for x in root] for root in rs.positive_roots]
        rho = rs.rho
        # alpha-coordinates of w(rho) - rho for each group element; pairing a
        # point with positive fundamental-weight coordinates u against any
        # positive root stays positive, so every term is below 1 and the
        # alternating sum is well conditioned
        shifts = []
        for w in rs.weyl:
            v = [
                sum(w.matrix[j][k] * rho[k] for k in range(r)) - rho[j]
                for j in range(r)
            ]
            m = [
                float(sum(rs.C_inv[i][k] * v[k] for k in range(r)))
                for i in range(r)
            ]
            shifts.append((w.sign, m))
        for _ in range(100):
            u = [rng.uniform(3.0, 6.0) for _ in range(r)]
            ud = [ui * di for ui, di in zip(u, dvec)]
            lhs = math.fsum(
                sign * math.exp(sum(mi * udi for mi, udi in zip(m, ud)))
                for sign, m in shifts
            )
            rhs = 1.0
            for root in roots:
                rhs *= -math.expm1(-sum(li * udi for li, udi in zip(root, ud)))
            assert rel_err(lhs, rhs) < 1e-10, (name, u)
    print("criterion 5 PASS: denominator identity on all 17 types of rank <= 4")


def test_criterion_6_gue_identity():
    rng = random.Random(606)
    for n in (2, 3, 4, 5):
        for _ in range(100):
            vals = rng.sample(range(-6, 7), n)
            mean = sum(vals) / n
            a = [v - mean for v in vals]
            lhs, rhs = gue_identity_check(a)
            assert rel_err(lhs, rhs) < 1e-10, (n, a)
    print("criterion 6 PASS: GUE identity for n=2..5, 100 spectra each")


def test_criterion_7_convergence_suite():
    start = time.monotonic()
    finals = {}
    for name, bound in (("A1", 0.05), ("A2", 0.08)):
        rs = system(name)
        lam = tuple(1 if i == 0 else 0 for i in range(rs.rank))
        spec = TensorSpec(rs, ((lam, Fraction(1)),))
        report = convergence_report(spec, [4, 16, 64, 256])
        assert report.monotone_char_fn, name
        assert report.monotone_histogram_tv, name
        final_tv = report.rows[-1].histogram_tv
        assert final_tv < bound, (name, final_tv)
        finals[name] = final_tv
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        "criterion 7 PASS: metrics nonincreasing, final TV "
        f"A1={finals['A1']:.4f} A2={finals['A2']:.4f} ({elapsed:.2f}s)"
    )


def test_criterion_8_extended_measure_consistency():
    # pushforward equals the dominant measure exactly
    for name, lam, n in (("A1", (1,), 6), ("A2", (1, 0), 5), ("B2", (0, 1), 4)):
        rs = system(name)
        spec = TensorSpec(rs, ((lam, Fraction(1)),))
        eta = eta_measure(spec, n)
        ext = eta_extended_measure(spec, n)
        assert pushforward_dominant_shifted(rs, ext).atoms == eta.atoms
        for w, p in ext.atoms:
            shifted = tuple(x + r for x, r in zip(w, rs.rho))
            if any(x == 0 for x in shifted):
                assert p == 0

    # invariance of the full-space density under every group element
    rng = np.random.default_rng(808)
    for name in ("A2", "B2"):
        rs = system(name)
        model = make_density_model(rs, "eta_extended")
        pts = rng.uniform(-5.0, 5.0, size=(10_000, rs.rank))
        base = model.evaluate(pts)
        for w in rs.weyl:
            mapped = pts @ np.array(w.matrix, dtype=float).T
            moved = model.evaluate(mapped)
            err = np.abs(moved - base) / np.maximum(np.abs(base), 1e-300)
            assert float(err.max()) < 1e-12, name

    # the smallest nontrivial example, all atoms verbatim
    a1 = system("A1")
    ext = eta_extended_measure(TensorSpec(a1, (((1,), Fraction(1)),)), 2)
    expected = {
        (-4,): Fraction(3, 8),
        (-2,): Fraction(1, 8),
        (-1,): Fraction(0),
        (0,): Fraction(1, 8),
        (2,): Fraction(3, 8),
    }
    assert dict(ext.atoms) == expected
    print("criterion 8 PASS: pushforward exact, invariance 1e4 pts, wall atoms zero")


def test_criterion_9_performance_floor():
    start = time.monotonic()
    rs = system("A2")
    spec = TensorSpec(rs, (((1, 0), Fraction(1)),))
    table = tensor_power_table(rs, spec.factors, [256])
    decomp = racah_decompose(rs, table[256])
    assert sum(c * weyl_dim(rs, w) for w, c in decomp.components.items()) == 3**256
    report = convergence_report(spec, [256], table=table)
    row = report.rows[0]
    assert row.char_fn_sup_error < 0.01
    assert row.histogram_tv < 0.08
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 9 PASS: full A2 pipeline at N=256 in {elapsed:.2f}s")
