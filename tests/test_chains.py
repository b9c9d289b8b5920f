import math

from hypothesis import given, settings, strategies as st

from cqsdef.chains import enumerate_K, zero_chains_bounded
from cqsdef.cqs import cqs_new
from cqsdef.minkowski import segment_length
from conftest import (
    alpha_seq,
    blow_down_step,
    brute_zero_chains,
    iter_models,
    quadratic_blow_down_trace,
    rdp_chain,
    triangulation_zero_chains,
)


def blow_down(chain):
    """The normal form of the quadratic blow-down oracle: () for a chain
    that blows down smooth, None when an entry drops below 1."""
    return quadratic_blow_down_trace(chain)[0]


def test_alpha_examples():
    assert alpha_seq((1, 2, 1))[1:-1] == (1, 1, 1)
    assert alpha_seq((2, 1, 2))[1:-1] == (1, 2, 1)
    assert alpha_seq((2,)) == (0, 1, 2)


def test_enumerate_K_golden(y83):
    ks = enumerate_K(y83)
    assert [zc.k for zc in ks] == [(1, 2, 1), (2, 1, 2)]
    assert [zc.alpha[1:-1] for zc in ks] == [(1, 1, 1), (1, 2, 1)]


def test_enumerate_K_contains_rdp_chain():
    for m in iter_models(25):
        assert rdp_chain(m.e) in [zc.k for zc in enumerate_K(m)]


def test_enumerate_K_vs_bruteforce():
    for m in iter_models(16):
        if math.prod(m.a_chain) > 10**6:
            continue
        assert [zc.k for zc in enumerate_K(m)] == brute_zero_chains(m.a_chain)


def test_enumerate_K_19_7():
    m = cqs_new(19, 7)
    assert [zc.k for zc in enumerate_K(m)] == brute_zero_chains(m.a_chain)


def test_all_twos_bounds():
    # Bounds (2,...,2) admit only the RDP chain, except at length 3 where
    # (2,1,2) also fits (it is the second chain of Y_(4,1)).
    for m_len in range(2, 9):
        chains = [zc.k for zc in zero_chains_bounded((2,) * m_len)]
        assert chains == brute_zero_chains((2,) * m_len)
        if m_len == 3:
            assert chains == [(1, 2, 1), (2, 1, 2)]
        else:
            assert chains == [rdp_chain(m_len + 2)]


def test_triangulation_zero_chains_are_all_zero_chains():
    """The triangulations of an (r+1)-gon give the Catalan number C(r-1)
    of chains, exactly the zero chains of length r with entries at most
    r - 1."""
    for r in range(2, 9):
        chains = triangulation_zero_chains(r)
        assert len(chains) == math.comb(2 * r - 2, r - 1) // r
        assert list(chains) == [zc.k for zc in zero_chains_bounded((r - 1,) * r)]


def test_zero_chains_blow_down_smooth():
    for m in iter_models(20):
        for zc in enumerate_K(m):
            assert blow_down(zc.k) == ()


def test_blow_down_examples():
    assert blow_down((2, 1, 2)) == ()
    assert blow_down((1, 3, 2)) == (2, 2)
    assert blow_down((2, 2, 2)) == (2, 2, 2)
    assert blow_down((1, 2)) == ()
    assert blow_down((2,)) == (2,)
    assert blow_down((1,)) == ()
    assert blow_down(()) == ()
    assert blow_down((1, 1, 1)) is None
    assert blow_down([0, 2]) is None
    assert type(blow_down([1, 3, 2])) is tuple


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.randoms())
def test_blow_down_order_independent(chain, rng):
    """Eliminating entries equal to 1 in any order reaches the same normal
    form as the leftmost-first rule."""
    reference = blow_down(tuple(chain))
    cur = tuple(chain)
    while True:
        if any(c < 1 for c in cur):
            result = None
            break
        if cur in ((1,), (1, 1)) or not cur:
            result = ()
            break
        ones = [i for i, c in enumerate(cur) if c == 1]
        if not ones:
            result = cur
            break
        cur = blow_down_step(cur, rng.choice(ones))
    # an invalid chain may surface at different stages; both routes must
    # then agree that the chain is bad (None)
    assert reference == result


def test_k_h_one_attains_the_floor_of_the_slice_length():
    """At an interior h where some zero chain has k_h = 1, that chain
    attains max_K (a_h - k_h), and the maximum is the floor of the slice
    length; one such chain agrees with the model's chain at every other
    index where its height is not 1."""
    checked = 0
    for m in iter_models(30):
        ks = enumerate_K(m)
        for h in range(3, m.e - 1):
            ones = [zc for zc in ks if zc.k_at(h) == 1]
            if not ones:
                continue
            best = max(m.a(h) - zc.k_at(h) for zc in ks)
            assert best == m.a(h) - 1 == math.floor(segment_length(m, h)), (m.n, m.q, h)
            assert any(
                all(zc.alpha_at(j) == 1 or zc.k_at(j) == m.a(j) for j in range(2, m.e) if j != h)
                for zc in ones
            ), (m.n, m.q, h)
            checked += 1
    assert checked == 136


def test_zero_chains_bounded_empty_cases():
    assert zero_chains_bounded(()) == []
    assert zero_chains_bounded((5,)) == []
