import pytest

from cqsdef.cqs import (
    HypersurfaceError,
    InvalidSingularityError,
    cqs_new,
    from_display_coords,
    to_display_coords,
)
from cqsdef.chains import enumerate_K, is_t_singularity, ksb_t_singularity
from cqsdef.lattice import dual_cone, hilbert_basis_2d
from cqsdef.minkowski import segment, segment_length
from cqsdef.report import build_report
from cqsdef.resolutions import p_resolution_fan
from conftest import iter_models, run_optimized


def test_golden_model(y83):
    assert (y83.n, y83.q, y83.e) == (8, 3, 5)
    assert y83.a_chain == (2, 3, 2)
    assert list(y83.w) == [(0, 1), (1, 1), (2, 1), (5, 2), (8, 3)]
    assert [to_display_coords(w, y83) for w in y83.w] == [
        (0, 8),
        (1, 5),
        (2, 2),
        (5, 1),
        (8, 0),
    ]


def test_model_41():
    m = cqs_new(4, 1)
    assert m.a_chain == (2, 2, 2)
    assert m.e == 5


def test_rejections():
    with pytest.raises(HypersurfaceError):
        cqs_new(4, 3)
    with pytest.raises(HypersurfaceError):
        cqs_new(2, 1)
    with pytest.raises(InvalidSingularityError):
        cqs_new(6, 3)
    with pytest.raises(InvalidSingularityError):
        cqs_new(5, 0)
    with pytest.raises(InvalidSingularityError):
        cqs_new(1, 1)


def test_paper_coords_examples(y83):
    assert to_display_coords((2, 1), y83) == (2, 2)
    assert to_display_coords((0, 1), y83) == (0, 8)
    assert to_display_coords((1, 1), y83) == (1, 5)


def test_paper_coords_roundtrip():
    for m in iter_models(20):
        for w in m.w:
            u = to_display_coords(w, m)
            assert from_display_coords(u, m) == w
            # the image lattice congruence
            assert (m.q * u[0] + u[1]) % m.n == 0


def test_paper_coords_rejects_non_lattice(y83):
    from fractions import Fraction

    with pytest.raises(ValueError):
        to_display_coords((Fraction(1, 2), 1), y83)
    with pytest.raises(ValueError):
        from_display_coords((1, 1), y83)


def test_paper_coords_is_semigroup_iso():
    """Images of the dual generators satisfy the same three-term relations."""
    for m in iter_models(25):
        us = [to_display_coords(w, m) for w in m.w]
        for i in range(1, m.e - 1):
            a = m.a_chain[i - 1]
            assert us[i - 1][0] + us[i + 1][0] == a * us[i][0]
            assert us[i - 1][1] + us[i + 1][1] == a * us[i][1]


def test_three_term_relations_hold():
    for m in iter_models(40):
        for i in range(2, m.e):
            (ux, uy), (vx, vy), (wx, wy) = m.wgen(i - 1), m.wgen(i + 1), m.wgen(i)
            assert (ux + vx, uy + vy) == (m.a(i) * wx, m.a(i) * wy)


def test_length_formula_cross_check():
    """The geometric slice length always agrees with the closed formula
    (the segment constructor raises otherwise)."""
    for m in iter_models(35):
        for h in m.interior_indices():
            w1, w2 = m.wgen(h)
            length = segment_length(m, h)
            assert length.numerator * (w1 * (w2 * m.n - w1 * m.q)) == m.n * length.denominator


def test_is_t_singularity(y83):
    assert is_t_singularity(y83) is True
    assert is_t_singularity(cqs_new(4, 1)) is True
    # brute-force reading for a non-T case
    m = cqs_new(7, 3)
    expected = any(
        sum(1 for i in range(len(m.a_chain)) if zc.k[i] != m.a_chain[i]) <= 1
        for zc in enumerate_K(m)
    )
    assert is_t_singularity(m) is expected


def test_t_singularities_by_both_routes():
    """The T-singularities with n <= 25, 1/(d m^2)(1, d m a - 1), by the
    KSB arithmetic; is_t_singularity, which checks its zero-chain answer
    against it on every call, agrees for every pair with n <= 120."""
    assert [(m.n, m.q) for m in iter_models(25) if ksb_t_singularity(m.n, m.q)] == [
        (4, 1), (8, 3), (9, 2), (9, 5), (12, 5), (16, 3), (16, 7), (16, 11),
        (18, 5), (18, 11), (20, 9), (24, 11), (25, 4), (25, 9), (25, 14), (25, 19),
    ]
    found = [(m.n, m.q) for m in iter_models(120) if is_t_singularity(m)]
    assert found == [(m.n, m.q) for m in iter_models(120) if ksb_t_singularity(m.n, m.q)]


def test_t_singularity_mismatch_survives_optimize():
    """With the zero-chain list patched, is_t_singularity disagrees with
    the KSB criterion, under python -O too, and a scan records the row as
    failed: Y(4,1) loses its zero chains, and Y(7,3) gets its own chain,
    without heights, which is_t_singularity does not read."""
    code = (
        "import sys\n"
        "import cqsdef.chains\n"
        "from cqsdef.chains import ZeroChain\n"
        "from cqsdef.report import scan_row\n"
        "cqsdef.chains.enumerate_K = lambda model: [] if model.n == 4 else [\n"
        "    ZeroChain(model.a_chain, ())]\n"
        "for n, q in [(4, 1), (7, 3)]:\n"
        "    print(sys.flags.optimize, scan_row(n, q))\n"
    )
    assert run_optimized("-c", code).stdout.decode().splitlines() == [
        f"1 {{'n': {n}, 'q': {q}, 'error': 'InvariantError: Y_({n},{q}): the zero chains "
        "and the KSB criterion disagree on whether it is a T-singularity'}"
        for n, q in [(4, 1), (7, 3)]
    ]


def test_model_json(y83):
    js = build_report(y83)["model"]
    assert js["n"] == 8 and js["q"] == 3
    assert js["dual_generators_display"][0] == [0, 8]


def test_results_are_memoised_per_model():
    """Derived data lives on the model that computed it: one model hands
    back the same objects, a second model of the same (n, q) its own."""
    from cqsdef.minkowski import segment
    from cqsdef.resolutions import p_resolution_fan

    m1, m2 = cqs_new(29, 8), cqs_new(29, 8)
    assert m1 == m2 and hash(m1) == hash(m2) and repr(m1) == repr(m2)
    k = enumerate_K(m1)[0]
    for derive in (lambda m: segment(m, 3), lambda m: p_resolution_fan(m, k)):
        assert derive(m1) is derive(m1)
        assert derive(m1) == derive(m2) and derive(m1) is not derive(m2)
    assert enumerate_K(m1) == enumerate_K(m2)


def test_a_failed_build_stores_nothing():
    """A build that raises stores nothing under its key, so the next call
    builds again; a build that returns None is stored like any value."""
    model = cqs_new(8, 3)
    calls = []

    def build(fail):
        calls.append(fail)
        if fail:
            raise ValueError("build failed")
        return None

    with pytest.raises(ValueError, match="build failed"):
        model.cached("probe", build, True)
    assert model.cached("probe", build, False) is None
    assert model.cached("probe", build, True) is None
    assert calls == [True, False]


def test_display_coords_lie_on_the_display_lattice():
    """Every dual generator of every pair with n <= 30 displays as a point
    [u1, u2] with q*u1 + u2 = 0 mod n, which from_display_coords maps
    back to the generator."""
    for m in iter_models(30):
        for w in m.w:
            u1, u2 = to_display_coords(w, m)
            assert (m.q * u1 + u2) % m.n == 0, (m.n, m.q, w)
            assert from_display_coords((u1, u2), m) == w, (m.n, m.q, w)


def _is_int_pair(v) -> bool:
    return type(v) is tuple and len(v) == 2 and all(type(c) is int for c in v)


def test_2d_values_are_int_pairs():
    """A 2D lattice vector is a tuple of two ints wherever the library
    hands one out, for every pair with n <= 30 (Y(8,3) among them)."""
    for m in iter_models(30):
        pairs = [*m.w, *hilbert_basis_2d(dual_cone(m.sigma)), m.sigma.ray1, m.sigma.ray2]
        pairs += [from_display_coords(to_display_coords(w, m), m) for w in m.w]
        for zc in enumerate_K(m):
            pairs += p_resolution_fan(m, zc).rays
        for h in m.interior_indices():
            seg = segment(m, h)
            pairs += [seg.origin, (seg.w[1], -seg.w[0])]
        bad = [v for v in pairs if not _is_int_pair(v)]
        assert not bad, (m.n, m.q, bad[:3])
