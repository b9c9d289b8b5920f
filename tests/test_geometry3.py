"""3D lattice geometry against the brute-force oracles in conftest."""

import math
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from cqsdef.chains import enumerate_K
from cqsdef.cqs import cqs_new
from cqsdef.geometry3 import (
    Cone3,
    _low_box_points,
    _simplices,
    _solve3_int,
    box_points,
    cross3,
    dot3,
    dual_rays3,
    hilbert_basis_3d,
    is_canonical_cone3,
    prim3,
    roof_facets,
)
from cqsdef.resolutions import assemble_fan3, fan_decomposition
from cqsdef.totalspace import all_deformations, components_of
from conftest import (
    assert_hull_vertices_are_candidates,
    brute_hilbert_basis_3d,
    brute_is_canonical,
    brute_roof_facets,
    cramer_solve3,
    fraction_gorenstein_functional,
    iter_models,
    run_optimized,
)


def _box_points_below(cone):
    """The x of every point (x, level) that box_points gives on a simplex
    of the triangulation with 0 < level < d, simplex by simplex."""
    out = []
    for simplex in _simplices(cone):
        d, points = box_points(simplex)
        out += [x for x, level in points if 0 < level < d]
    return out


def _agrees_with_oracles(gens):
    cone = Cone3.from_rays(gens)
    assert _low_box_points(cone) == _box_points_below(cone)
    assert hilbert_basis_3d(cone) == brute_hilbert_basis_3d(gens)
    brute = brute_roof_facets(gens)
    assert roof_facets(cone) == brute
    assert_hull_vertices_are_candidates(cone, brute)
    assert is_canonical_cone3(cone) == brute_is_canonical(gens)


def test_box_points_of_a_thin_cone():
    d, points = box_points([(7, 192, 0), (0, 1, 0), (0, 0, 1)])
    assert d == 7
    assert sorted(x for x, _ in points) == [(i, (192 * i + 6) // 7, 0) for i in range(7)]
    # level / d is the coefficient sum: x = (i/7) g1 + frac(-192 i / 7) g2
    assert sorted(level for _, level in points) == [0, 3, 5, 6, 8, 9, 11]


def test_thin_cone():
    gens = [(7, 192, 0), (0, 1, 0), (0, 0, 1)]
    cone = Cone3.from_rays(gens)
    assert hilbert_basis_3d(cone) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 28, 0),
        (2, 55, 0),
        (7, 192, 0),
    ]
    assert [(n, b) for n, b, _ in roof_facets(cone)] == [((-137, 5, 1), 1), ((-27, 1, 1), 1)]
    assert not is_canonical_cone3(cone)
    _agrees_with_oracles(gens)


def test_unimodular_cone():
    gens = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert box_points(gens) == (1, [((0, 0, 0), 0)])
    cone = Cone3.from_rays(gens)
    assert hilbert_basis_3d(cone) == sorted(gens)
    assert roof_facets(cone) == [((1, 0, 0), 1, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])]
    assert is_canonical_cone3(cone)
    _agrees_with_oracles(gens)


def _y83_deformation(label):
    return next(df for df in all_deformations(cqs_new(8, 3)) if df.label == label)


def _zero_chain(df, k):
    return next(zc for zc in enumerate_K(df.model) if zc.k == k)


def test_four_ray_sigma_prime():
    cone = _y83_deformation("pi_{2,1}^1").sigma_prime
    gens = cone.generators
    assert len(gens) == 4
    assert hilbert_basis_3d(cone) == brute_hilbert_basis_3d(gens)
    assert roof_facets(cone) == brute_roof_facets(gens)


def test_start_edge_takes_the_shortest_point_at_one_angle():
    # On the start face the neighbour b1 = (0, 0, 1) of a = (-1, 0, 7) and
    # its multiple 2*b1 are both below the generator plane.
    gens = [(-1, 0, 7), (1, 0, -1), (0, 1, 3)]
    cone = Cone3.from_rays(gens)
    r, a, b = cone.facets[0]
    assert a == (-1, 0, 7) and dot3(r, (0, 0, 2)) == 0
    (simplex,) = _simplices(cone)
    d, points = box_points(simplex)
    low = {x for x, level in points if 0 < level < d}
    assert {(0, 0, 1), (0, 0, 2)} <= low
    _agrees_with_oracles(gens)


def test_non_extremal_generator_is_not_a_start_point():
    # The generator (0, -1, 2) = a + b lies inside the start face, at a
    # smaller angle from a = (-1, -1, 0) than b = (1, 0, 2).
    gens = [(0, -1, 2), (-1, -1, 0), (1, 0, 2), (-2, -1, 0)]
    cone = Cone3.from_rays(gens)
    r, a, b = cone.facets[0]
    assert (a, b) == ((-1, -1, 0), (1, 0, 2)) and dot3(r, (0, -1, 2)) == 0
    brute = brute_roof_facets(gens)
    assert roof_facets(cone) == brute
    assert_hull_vertices_are_candidates(cone, brute)


def test_y83_fan_cones_canonical_and_not():
    df = _y83_deformation("pi_{3,1}^1")
    canonical, exception = (
        assemble_fan3(fan_decomposition(df.model, _zero_chain(df, k), df.decomp), df)
        for k in ((1, 2, 1), (2, 1, 2))
    )
    assert canonical.all_canonical
    (bad,) = exception.cones
    assert not is_canonical_cone3(bad.cone)
    for c in canonical.cones + exception.cones:
        assert is_canonical_cone3(c.cone) == brute_is_canonical(c.cone.generators)


def _summand_cones(models):
    """Every sigma' of the models and the cone over every nondegenerate
    piece of every fan decomposition of theirs, as built by
    Cone3.over_summands."""
    for m in models:
        for df in all_deformations(m):
            yield df.sigma_prime
            for k in components_of(df):
                for pc in fan_decomposition(m, k, df.decomp).pieces:
                    if not pc.degenerate:
                        yield Cone3.over_summands(pc.ends0, pc.ends1, df.p, df.m0)


def test_gorenstein_functional_matches_fractions():
    """On every sigma' and every fan cone with n <= 22; the integer form
    is in lowest terms over a positive denominator."""
    seen = set(_summand_cones(iter_models(22)))
    assert len(seen) > 1000
    for cone in seen:
        gens = cone.generators
        expected = fraction_gorenstein_functional(gens)
        if expected is None:
            assert cone.gorenstein_ratio is None, gens
            continue
        *num, den = cone.gorenstein_ratio
        assert tuple(Fraction(x, den) for x in num) == expected, gens
        assert den > 0 and math.gcd(*num, den) == 1, gens
    assert any(cone.gorenstein_ratio is None for cone in seen)


def test_closed_form_dual_rays_match_dual_rays3():
    """The dual rays and facet spans over_summands fills in closed form
    are those from_rays derives from the generators (dual_rays3, then the
    generic derivation of the spans), and so are the facets read off them,
    on every sigma' and every fan cone of the pairs with n <= 30 and four
    larger pairs."""
    large = [cqs_new(n, q) for n, q in ((101, 29), (121, 39), (151, 75), (199, 57))]
    checked = 0
    for cone in _summand_cones(chain(iter_models(30), large)):
        generic = Cone3.from_rays(cone.generators)
        assert cone.dual_rays == tuple(dual_rays3(cone.generators)), cone.generators
        assert (cone.spans, cone.facets) == (generic.spans, generic.facets), cone.generators
        checked += 1
    assert checked == 14503


def test_level_filtered_kernels_match_box_points():
    """On every sigma' and every fan cone of the pairs with n <= 30, the
    points roof_facets takes from _low_box_points are those of box_points
    with 0 < level < d, in the same order, and is_canonical_cone3, which
    reads only the group numerators, gives the verdict those points give:
    canonical exactly when there are none."""
    checked = non_canonical = 0
    for cone in _summand_cones(iter_models(30)):
        below = _box_points_below(cone)
        assert _low_box_points(cone) == below, cone.generators
        if cone.gorenstein_ratio is not None:
            assert is_canonical_cone3(cone) == (not below), cone.generators
            non_canonical += bool(below)
        checked += 1
    assert checked == 12790
    assert 0 < non_canonical


def test_not_q_gorenstein_raises():
    with pytest.raises(ValueError):
        is_canonical_cone3(Cone3.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)]))


coord = st.integers(-3, 3)
vec3 = st.tuples(coord, coord, coord)
# Entries for prim3: zero drawn often, signs mixed.
entry = st.one_of(st.just(0), st.integers(-50, 50))


@settings(max_examples=60, deadline=None)
@given(st.tuples(vec3, vec3, vec3))
def test_random_simplicial_cones(gens):
    assume(dot3(gens[0], cross3(gens[1], gens[2])) != 0)
    d, points = box_points(gens)
    assert len({x for x, _ in points}) == d
    _agrees_with_oracles(gens)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=4, max_size=4, unique=True),
    st.integers(1, 3),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
)
def test_random_four_ray_cones(xys, height, shear):
    # four primitive rays on the plane z = height, sheared by a unimodular map
    pts = [(x, y, height) for x, y in xys]
    # collinear points on the plane span no full-dimensional cone
    assume(any(dot3(a, cross3(b, c)) != 0 for a, b, c in combinations(pts, 3)))
    rays = dual_rays3(dual_rays3(pts))
    assume(len(rays) == 4 and all(r in pts for r in rays))
    gens = [(x, y, shear[0] * x + shear[1] * y + z) for x, y, z in rays]
    _agrees_with_oracles(gens)


@settings(max_examples=300)
@given(st.tuples(vec3, vec3, vec3), st.tuples(entry, entry, entry))
def test_solve3_int_matches_cramer(rows, rhs):
    """The adjugate numerators and determinant are those of Cramer's rule,
    and both give None exactly when the rows are singular."""
    assert _solve3_int(rows, rhs) == cramer_solve3(rows, rhs)


@given(st.tuples(entry, entry, entry))
def test_prim3_matches_the_abs_gcd_formula(v):
    g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    assume(g != 0)
    assert prim3(v) == (v[0] // g, v[1] // g, v[2] // g)
    assert prim3(list(v)) == prim3(v)


def test_prim3_of_zero_raises():
    with pytest.raises(ValueError, match="zero vector"):
        prim3((0, 0, 0))


def test_support_check_survives_optimize():
    code = (
        "import sys\n"
        "from cqsdef import geometry3\n"
        "wrap = geometry3._wrap\n"
        "geometry3._wrap = lambda *args: geometry3.neg3(wrap(*args))\n"
        "try:\n"
        "    geometry3.roof_facets(geometry3.Cone3.from_rays([(7, 192, 0), (0, 1, 0), (0, 0, 1)]))\n"
        "except RuntimeError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    out = run_optimized("-c", code).stdout.decode()
    assert out.startswith("1 gift wrapping found a non-supporting plane")
