import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cqsdef.lattice import (
    Cone2,
    cf_expand,
    cone_normal_form,
    det2,
    dual_cone,
    hilbert_basis_2d,
    primitive,
    ratio_text,
)
from conftest import brute_hilbert_basis_2d, cf_eval, pair_normal_form


@example(0, 5, 1)
@example(0, -3, 2)
@example(-4, 6, 1)
@example(4, -6, 1)
@example(6, 3, 1)
@example(-6, -3, 1)
@given(st.integers(-1000, 1000), st.integers(-1000, 1000).filter(bool), st.integers(1, 12))
def test_ratio_text_is_the_fraction_text(num, den, k):
    """Zero, either sign, and pairs not in lowest terms (times k)."""
    assert ratio_text(k * num, k * den) == str(Fraction(k * num, k * den))


def test_ratio_text_of_a_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        ratio_text(1, 0)


def test_cf_expand_examples():
    assert list(cf_expand(8, 5)) == [2, 3, 2]
    assert list(cf_expand(2, 1)) == [2]
    cf = cf_expand(19, 7)
    assert all(c >= 2 for c in cf)
    assert cf_eval(cf) == Fraction(19, 7)


def test_cf_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        cf_expand(5, 5)
    with pytest.raises(ValueError):
        cf_expand(3, 7)
    with pytest.raises(ValueError):
        cf_expand(6, 4)


def test_cf_eval_examples():
    assert cf_eval([1, 2, 2, 1]) == 0
    assert cf_eval([5]) == 5
    assert cf_eval([2, 1, 2]) == 0
    assert cf_eval([1, 1]) == 0
    # division by zero mid-way
    assert cf_eval([3, 1, 1]) is None


@given(st.integers(2, 400), st.integers(1, 399))
def test_cf_roundtrip(num, den):
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if num <= den:
        num, den = den + num, den  # force num > den, still coprime
    assert cf_eval(cf_expand(num, den)) == Fraction(num, den)


def test_hilbert_basis_golden(y83):
    basis = hilbert_basis_2d(dual_cone(y83.sigma))
    assert basis == [(0, 1), (1, 1), (2, 1), (5, 2), (8, 3)]


def test_hilbert_basis_smooth_cone():
    basis = hilbert_basis_2d(Cone2((1, 0), (0, 1)))
    assert set(basis) == {(1, 0), (0, 1)}
    assert len(basis) == 2


def test_hilbert_basis_triple_relation(y83):
    basis = hilbert_basis_2d(dual_cone(y83.sigma))
    for i in range(1, len(basis) - 1):
        prev, cur, nxt = basis[i - 1], basis[i], basis[i + 1]
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        c = Fraction(s[0], cur[0]) if cur[0] else Fraction(s[1], cur[1])
        assert c.denominator == 1 and c >= 2
        assert s == (int(c) * cur[0], int(c) * cur[1])


@pytest.mark.parametrize(
    "rays",
    [
        ((1, 0), (-3, 8)),
        ((1, 0), (-7, 11)),
        ((2, 1), (-1, 3)),
        ((5, 2), (-3, 7)),
        ((1, -1), (1, 1)),
        ((0, 1), (60, 49)),
    ],
)
def test_hilbert_basis_vs_bruteforce(rays):
    cone = Cone2(*rays)
    basis = hilbert_basis_2d(cone)
    assert set(basis) == brute_hilbert_basis_2d(cone)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 39))
def test_hilbert_basis_vs_bruteforce_random(n, q):
    if math.gcd(n, q) != 1 or q >= n:
        return
    cone = Cone2((1, 0), (-q, n))
    basis = hilbert_basis_2d(cone)
    assert set(basis) == brute_hilbert_basis_2d(cone)


def test_hilbert_count_matches_chain_length():
    for n in range(3, 61):
        for q in range(1, n - 1):
            if math.gcd(n, q) != 1:
                continue
            cone = Cone2((1, 0), (-q, n))
            assert len(hilbert_basis_2d(dual_cone(cone))) == len(cf_expand(n, n - q)) + 2


def test_primitive():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, 8)) == (0, 1)
    assert primitive((3, 1)) == (3, 1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_cone2_takes_lattice_rays():
    with pytest.raises(ValueError, match="not a lattice point"):
        Cone2((Fraction(1, 2), 1), (0, 1))
    with pytest.raises(ValueError, match="not a lattice point"):
        Cone2((1, 0), (-3, Fraction(8, 3)))
    with pytest.raises(ValueError, match="collinear"):
        Cone2((2, 4), (-1, -2))
    cone = Cone2((0, 6), (4, 0))
    assert (cone.ray1, cone.ray2) == ((1, 0), (0, 1))
    cone = Cone2((Fraction(4), Fraction(-6)), (0, 5))
    assert (cone.ray1, cone.ray2) == ((2, -3), (0, 1))
    assert all(type(c) is int for r in (cone.ray1, cone.ray2) for c in r)


@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
def test_cone2_reduces_and_orders_integer_rays(u, v):
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0:
        with pytest.raises(ValueError):
            Cone2(u, v)
        return
    gu, gv = math.gcd(*u), math.gcd(*v)
    r1, r2 = (u[0] // gu, u[1] // gu), (v[0] // gv, v[1] // gv)
    if det < 0:
        r1, r2 = r2, r1
    cone = Cone2(u, v)
    assert (cone.ray1, cone.ray2) == (r1, r2)
    assert det2(cone.ray1, cone.ray2) * gu * gv == abs(det)


def test_cone_normal_form():
    assert cone_normal_form(Cone2((1, 0), (-3, 8))) == (8, 3)
    assert cone_normal_form(Cone2((1, 0), (0, 1))) == (1, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_pair_normal_form_is_the_cone_normal_form(u, v, ku, kv):
    """On two non-collinear vectors, in either order and scaled by any
    positive factors, pair_normal_form is cone_normal_form of their
    Cone2; a vector and a positive multiple of it span a smooth ray."""
    assume(u != (0, 0) and v != (0, 0))
    big_u, big_v = (ku * u[0], ku * u[1]), (kv * v[0], kv * v[1])
    if u[0] * v[1] - u[1] * v[0]:
        nf = cone_normal_form(Cone2(u, v))
        assert pair_normal_form(big_u, big_v) == pair_normal_form(big_v, big_u) == nf
    else:
        assert pair_normal_form(big_u, (kv * u[0], kv * u[1])) == (1, 0)


def test_pair_normal_form_rejects_opposite_vectors():
    with pytest.raises(ValueError, match="do not span a strictly convex cone"):
        pair_normal_form((2, -4), (-1, 2))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(0, 10**6),
    st.lists(st.tuples(st.booleans(), st.integers(-4, 4)), max_size=8),
)
def test_normal_form_is_invariant_under_sl2z(n, q, moves):
    """Map cone((1,0), (-q,n)) by a product g of elementary matrices: the
    image has normal form (n, q), and its Hilbert basis is the image under
    g of the normal form's basis, in the same order."""
    q %= n
    assume(math.gcd(n, q) == 1)
    (a, b), (c, d) = (1, 0), (0, 1)
    for upper, k in moves:
        if upper:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b

    def g(v):
        x, y = v
        return (a * x + b * y, c * x + d * y)

    normal = Cone2((1, 0), (-q, n))
    cone = Cone2(g(normal.ray1), g(normal.ray2))
    assert cone_normal_form(cone) == (n, q)
    assert hilbert_basis_2d(cone) == [g(v) for v in hilbert_basis_2d(normal)]
