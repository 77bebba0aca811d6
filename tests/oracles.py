"""Independent slow oracles used by the test suite.

These deliberately avoid the algorithms under test: characters come from
exact division of Weyl alternants, products of characters from the plain
convolution sum, and rank-1 tensor powers from the ballot closed form.
"""

from fractions import Fraction
from math import comb

from tensorlimits.linalg import bilinear
from tensorlimits.repchar import MultiplicityMap


def character_by_weyl_formula(rs, lam) -> dict:
    """Weight multiplicities of V_lam by dividing alternants A_{lam+rho}/A_rho.

    Works in the group algebra of the weight lattice with dict terms; division
    proceeds by repeatedly cancelling the maximal term in the (mu, rho) order,
    which strictly decreases, so it terminates.  Exact integers throughout.
    """

    def alternant(v):
        out = {}
        for w in rs.weyl:
            key = w.apply(v)
            out[key] = out.get(key, 0) + w.sign
        return out

    def order_key(mu):
        return (bilinear(mu, rs.gram_omega, rs.rho), mu)

    num = alternant(tuple(x + 1 for x in lam))
    den = alternant(rs.rho)
    assert den.get(rs.rho) == 1
    quotient: dict = {}
    rem = dict(num)
    while rem:
        top = max(rem, key=order_key)
        coeff = rem[top]
        q = tuple(t - r for t, r in zip(top, rs.rho))
        quotient[q] = quotient.get(q, 0) + coeff
        for k, c in den.items():
            key = tuple(qi + ki for qi, ki in zip(q, k))
            left = rem.get(key, 0) - coeff * c
            if left:
                rem[key] = left
            else:
                rem.pop(key, None)
    assert all(c > 0 for c in quotient.values())
    return quotient


def convolve(a: MultiplicityMap, b: MultiplicityMap) -> MultiplicityMap:
    """Product of characters: entries[nu] = sum_mu a[mu] * b[nu - mu]."""
    out: dict = {}
    for wa, ca in a.entries.items():
        for wb, cb in b.entries.items():
            key = tuple(x + y for x, y in zip(wa, wb))
            out[key] = out.get(key, 0) + ca * cb
    return MultiplicityMap(out, a.total_dim * b.total_dim)


def sl2_power_components(n: int) -> dict:
    """[V^(tensor n) : V_k] for the 2-dim irreducible of A1, by ballot counts."""
    out = {}
    for k in range(n % 2, n + 1, 2):
        down = (n - k) // 2
        c = comb(n, down) - (comb(n, down - 1) if down >= 1 else 0)
        if c:
            out[(k,)] = c
    return out


def second_moment_direct(entries: dict, pair_vec) -> Fraction:
    """Sum of mult * (t, mu)^2 with a precomputed pairing vector for t."""
    acc = Fraction(0)
    for mu, c in entries.items():
        p = sum(v * x for v, x in zip(pair_vec, mu))
        acc += c * p * p
    return acc
