import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cqsdef.chains import (
    NormalForm,
    Smooth,
    alpha_seq,
    blow_down,
    blow_down_trace,
    chain_to_nq,
    enumerate_K,
    make_zero_chain,
    rdp_chain,
    special_k,
    zero_chains_bounded,
)
from cqsdef.cqs import cqs_new
from cqsdef.lattice import cf_eval
from cqsdef.minkowski import segment_length
from conftest import blow_down_step, brute_zero_chains, iter_models, quadratic_blow_down_trace


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


def test_rdp_chain():
    assert rdp_chain(5) == (1, 2, 1)
    assert rdp_chain(4) == (1, 1)
    assert rdp_chain(3) == (0,)
    assert rdp_chain(7) == (1, 2, 2, 2, 1)
    with pytest.raises(ValueError):
        rdp_chain(2)


def test_zero_chains_blow_down_smooth():
    for m in iter_models(20):
        for zc in enumerate_K(m):
            assert blow_down(zc.k).is_smooth


def test_blow_down_examples():
    assert blow_down((2, 1, 2)) == Smooth
    assert blow_down((1, 3, 2)) == NormalForm(NormalForm.SINGULAR, (2, 2))
    assert blow_down((2, 2, 2)) == NormalForm(NormalForm.SINGULAR, (2, 2, 2))
    assert blow_down((1, 2)) == Smooth
    assert blow_down((2,)) == NormalForm(NormalForm.SINGULAR, (2,))
    assert blow_down((1,)) == Smooth
    assert blow_down(()) == Smooth
    assert blow_down((1, 1, 1)).kind == NormalForm.INVALID


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.randoms())
def test_blow_down_order_independent(chain, rng):
    """Eliminating entries equal to 1 in any order reaches the same normal
    form as the leftmost-first rule."""
    reference = blow_down(tuple(chain))
    cur = tuple(chain)
    while True:
        if any(c < 1 for c in cur):
            result = NormalForm(NormalForm.INVALID)
            break
        if cur in ((1,), (1, 1)) or not cur:
            result = Smooth
            break
        ones = [i for i, c in enumerate(cur) if c == 1]
        if not ones:
            result = NormalForm(NormalForm.SINGULAR, cur)
            break
        cur = blow_down_step(cur, rng.choice(ones))
    if reference.kind == NormalForm.INVALID or result.kind == NormalForm.INVALID:
        # invalid chains may surface at different stages; both routes must
        # then agree that the chain is bad
        assert reference.kind == result.kind
    else:
        assert reference == result


def test_blow_down_trace_matches_quadratic_oracle():
    """The one-pass blow-down gives the normal form, the trace (as lengths
    before each step) and the terminal chain of the process that rescans
    the chain before every step, on every chain of length <= 8 with
    entries 0..3."""
    checked = 0
    for length in range(9):
        for chain in product(range(4), repeat=length):
            nf, trace, final = quadratic_blow_down_trace(chain)
            expected = (nf, [(len(c), pos) for c, pos in trace], final)
            assert blow_down_trace(chain) == expected, chain
            checked += 1
    assert checked == 87381


def test_chain_to_nq():
    assert chain_to_nq((2, 3, 2)) == (8, 3)
    assert chain_to_nq((5,)) == (5, 4)
    # cf_eval((2, 2)) = 3/2 = n/(n-q), so (n, q) = (3, 1)
    assert chain_to_nq((2, 2)) == (3, 1)
    assert cf_eval((2, 2)) == chain_to_nq((2, 2))[0] / (
        chain_to_nq((2, 2))[0] - chain_to_nq((2, 2))[1]
    )
    with pytest.raises(ValueError):
        chain_to_nq((1, 2))


def test_special_k_golden(y83):
    assert special_k(y83, 3).k == (2, 1, 2)


def test_special_k_membership_and_floor():
    for m in iter_models(30):
        ks = enumerate_K(m)
        for h in range(3, m.e - 1):
            if not any(zc.k_at(h) == 1 for zc in ks):
                with pytest.raises(ValueError):
                    special_k(m, h)
                continue
            sk = special_k(m, h)
            assert sk in ks
            assert sk.k_at(h) == 1
            assert m.a(h) - sk.k_at(h) == math.floor(segment_length(m, h))
            assert m.a(h) - sk.k_at(h) == max(m.a(h) - zc.k_at(h) for zc in ks)
            for j in range(2, m.e):
                if j != h:
                    assert sk.alpha_at(j) == 1 or sk.k_at(j) == m.a(j)


def test_make_zero_chain_rejects():
    with pytest.raises(ValueError):
        make_zero_chain((2, 2))
    with pytest.raises(ValueError):
        make_zero_chain((1, 2, 2))


def test_zero_chains_bounded_empty_cases():
    assert zero_chains_bounded(()) == []
    assert zero_chains_bounded((5,)) == []
