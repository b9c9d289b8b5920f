"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.
"""

import math
import random
from math import gcd

from cqsdef.chains import enumerate_K
from cqsdef.cqs import cqs_new, is_t_singularity, to_display_coords
from cqsdef.fibers import general_fiber, is_smoothing
from cqsdef.geometry3 import Cone3, hilbert_basis_3d, roof_facets
from cqsdef.lattice import Cone2, Vec2, dual_cone, hilbert_basis_2d
from cqsdef.minkowski import lattice_point_count, segment, segment_length
from cqsdef.report import scan_row
from cqsdef.resolutions import (
    assemble_fan3,
    canonical_model,
    fan_decomposition,
)
from cqsdef.totalspace import (
    all_deformations,
    components_of,
    components_of_symbolic,
    deformation_equations,
    generator_relations,
    nu_count,
)
from conftest import (
    assert_hull_vertices_are_candidates,
    brute_hilbert_basis_2d,
    brute_hilbert_basis_3d,
    brute_is_canonical,
    brute_roof_facets,
    brute_zero_chains,
    hull_cone_ray_sets,
    iter_models,
)


def _ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def all_pairs(n_max, n_min=3):
    return [
        (n, q)
        for n in range(n_min, n_max + 1)
        for q in range(1, n - 1)
        if gcd(n, q) == 1
    ]


def test_criterion_1_golden_y83():
    """Exact golden data for Y_(8,3); zero tolerance."""
    m = cqs_new(8, 3)
    assert (m.e, m.a_chain) == (5, (2, 3, 2))
    assert {to_display_coords(w, m) for w in m.w} == {
        (0, 8),
        (1, 5),
        (2, 2),
        (5, 1),
        (8, 0),
    }
    ks = enumerate_K(m)
    assert [zc.k for zc in ks] == [(1, 2, 1), (2, 1, 2)]
    assert [zc.alpha[1:-1] for zc in ks] == [(1, 1, 1), (1, 2, 1)]

    defos = all_deformations(m)
    assert len(defos) == 7
    degree_counts = {}
    for df in defos:
        degree_counts[df.degree_display()] = degree_counts.get(df.degree_display(), 0) + 1
    assert degree_counts == {(1, 5): 1, (2, 2): 4, (4, 4): 1, (5, 1): 1}

    comp = {df.label: [k.k for k in components_of(df)] for df in defos}
    assert comp["pi_{3,1}^2"] == [(2, 1, 2)]
    assert comp["pi_{3,2}^1"] == [(2, 1, 2)]
    assert comp["pi_{3,1}^1"] == [(1, 2, 1), (2, 1, 2)]
    for label in ("pi_{2,1}^1", "pi_{4,1}^1", "pibar_{3}^1", "pibar_{3}^2"):
        assert comp[label] == [(1, 2, 1)]

    fibers = {}
    for df in defos:
        fib = general_fiber(df)
        origin = fib.at_origin()
        fibers[df.label] = (
            origin.chain if origin else None,
            sorted((nf.chain, mult) for nf, mult in fib.off_origin()),
        )
    assert fibers == {
        "pi_{2,1}^1": ((2, 2), []),
        "pi_{3,1}^1": ((2, 2, 2), []),
        "pi_{3,1}^2": (None, [((2,), 1)]),
        "pi_{3,2}^1": (None, []),
        "pibar_{3}^1": ((2, 2), []),
        "pibar_{3}^2": (None, [((2, 2), 1)]),
        "pi_{4,1}^1": ((2, 2), []),
    }
    assert [df.label for df in defos if is_smoothing(df)] == ["pi_{3,2}^1"]

    panel_flags = {}
    for df in defos:
        for k in components_of(df):
            fd = fan_decomposition(df.model, k, df.decomp)
            panel_flags[fd.label] = assemble_fan3(fd, df).all_canonical
    assert len(panel_flags) == 8
    assert panel_flags == {
        "S_{2,1}^1[1,2,1]": True,
        "S_{3,1}^1[1,2,1]": True,
        "S_{3,1}^1[2,1,2]": False,
        "S_{3,1}^2[2,1,2]": True,
        "S_{3,2}^1[2,1,2]": True,
        "Sbar_{3}^1[1,2,1]": True,
        "Sbar_{3}^2[1,2,1]": True,
        "S_{4,1}^1[1,2,1]": True,
    }
    _ok("1 (golden Y_(8,3) suite)")


def test_criterion_2_propositions():
    """Slice point counts and floor lengths for random n with 3 <= n <= 60
    and all valid q; exact."""
    rng = random.Random(83)
    ns = rng.sample(range(3, 61), 20)
    sample = [(n, q) for n in ns for q in range(1, n - 1) if gcd(n, q) == 1]
    for n, q in sample:
        m = cqs_new(n, q)
        ks = enumerate_K(m)
        for h in m.interior_indices():
            if 3 <= h <= m.e - 2:
                assert lattice_point_count(m, h) == m.a(h) - 1, (n, q, h)
            assert math.floor(segment_length(m, h)) == max(
                m.a(h) - zc.k_at(h) for zc in ks
            ), (n, q, h)
    _ok(f"2 (proposition suite, {len(sample)} models over 20 random n <= 60)")


def test_criterion_3_theorem_vs_symbolic():
    """Closed-form component membership equals the versal-map route for
    every deformation and every chain; all models with n <= 40; exact."""
    for n, q in all_pairs(40):
        m = cqs_new(n, q)
        for df in all_deformations(m):
            closed = [k.k for k in components_of(df)]
            symbolic = [k.k for k in components_of_symbolic(df)]
            assert closed == symbolic, (n, q, df.label)
    _ok("3 (component theorem vs symbolic oracle, n <= 40)")


def test_criterion_4_nu_counts():
    """nu equals the direct count of deformations mapping to each chain,
    for all (k, h, p); all models with n <= 40; exact."""
    for n, q in all_pairs(40):
        m = cqs_new(n, q)
        defos = all_deformations(m)
        member = {df.label: {k.k for k in components_of(df)} for df in defos}
        for zc in enumerate_K(m):
            for h in m.interior_indices():
                for p in range(1, m.a(h)):
                    direct = sum(
                        1
                        for df in defos
                        if df.h == h and df.p == p and zc.k in member[df.label]
                    )
                    assert direct == nu_count(m, zc, h, p), (n, q, zc.k, h, p)
    _ok("4 (degreewise component counts, n <= 40)")


def test_criterion_5_canonical_equivalence():
    """Combinatorial canonical model equals the bounded-face hull route
    for every deformation of every model with n <= 30, the hull facets
    equal the brute-force triple search, and the canonicity of every fan
    cone of every component equals the brute-force scan; exact."""
    for n, q in all_pairs(30):
        m = cqs_new(n, q)
        for df in all_deformations(m):
            k, fan = canonical_model(df)  # raises if the routes disagree
            fan_rays = {frozenset(c.cone.generators) for c in fan.cones}
            assert fan_rays == hull_cone_ray_sets(df.sigma_prime)
            gens = df.sigma_prime.generators
            brute = brute_roof_facets(gens)
            assert roof_facets(df.sigma_prime) == brute, (n, q, df.label)
            assert_hull_vertices_are_candidates(df.sigma_prime, brute)
            for comp in components_of(df):
                fd = fan_decomposition(df.model, comp, df.decomp)
                for c in assemble_fan3(fd, df).cones:
                    assert c.canonical == brute_is_canonical(c.cone.generators)
    _ok("5 (canonical model: predicate route = hull route = brute force, n <= 30)")


def test_criterion_5_large_n_sample():
    """The two canonical-model routes agree on a seeded sample of models
    with 31 <= n <= 200, always including Y_(151,75) and Y_(199,57)."""
    rng = random.Random(200)
    pairs = [(151, 75), (199, 57)] + rng.sample(all_pairs(200, n_min=31), 8)
    for n, q in pairs:
        for df in all_deformations(cqs_new(n, q)):
            k, fan = canonical_model(df)  # raises if the routes disagree
            fan_rays = {frozenset(c.cone.generators) for c in fan.cones}
            assert fan_rays == hull_cone_ray_sets(df.sigma_prime)
    _ok("5 (canonical model: predicate route = hull route, sample to n = 200)")


def test_criterion_6_oracles():
    """Brute-force oracles: chain enumeration, 2D Hilbert bases, and the
    3D dual-cone Hilbert bases against the explicit generator sets."""
    # chains vs product filter (entire product space kept under 10^6)
    for m in iter_models(18):
        if math.prod(m.a_chain) > 10**6:
            continue
        assert [zc.k for zc in enumerate_K(m)] == brute_zero_chains(m.a_chain)

    # 2D Hilbert bases: all models to n = 25, sampled models to n = 60
    rng = random.Random(60)
    pairs = all_pairs(25) + rng.sample(all_pairs(60, n_min=26), 40)
    for n, q in pairs:
        cone = Cone2(Vec2(1, 0), Vec2(-q, n))
        for c in (cone, dual_cone(cone)):
            assert {
                v.as_int_pair() for v in hilbert_basis_2d(c)
            } == brute_hilbert_basis_2d(c), (n, q)

    # 3D: the lifted generators are exactly the dual Hilbert basis, and
    # the library's Hilbert bases of the cone and its dual match the
    # bounding-box scan, n <= 15
    for m in iter_models(15):
        for df in all_deformations(m):
            gr = generator_relations(df)
            lemma_set = set(gr.v) | {gr.v_tilde}
            dual = list(df.sigma_prime.dual_rays)
            brute = brute_hilbert_basis_3d(dual)
            assert set(brute) == lemma_set, (m.n, m.q, df.label)
            assert hilbert_basis_3d(Cone3.from_rays(dual)) == brute, (m.n, m.q, df.label)
            gens = df.sigma_prime.generators
            assert hilbert_basis_3d(df.sigma_prime) == brute_hilbert_basis_3d(gens)
    _ok("6 (enumeration oracles: chains, 2D and 3D Hilbert bases)")


def test_criterion_7_structural():
    """Every simultaneous-resolution fan is Q-Gorenstein per cone with
    support the deformation cone, and the equations specialize to the
    undeformed binomials; all models with n <= 18."""
    for n, q in all_pairs(18):
        m = cqs_new(n, q)
        for df in all_deformations(m):
            # at lam = 0 the main equation's exponents add up to a_h
            eqs = deformation_equations(df)
            assert [(e.i, e.m + e.p * e.d if e.form == "main" else e.a) for e in eqs] == [
                (i, m.a(i)) for i in m.interior_indices()
            ]
            for k in components_of(df):
                fan3 = assemble_fan3(fan_decomposition(df.model, k, df.decomp), df)
                assert all(c.qgorenstein for c in fan3.cones)
                assert set(fan3.support.generators) == set(
                    df.sigma_prime.generators
                )
    _ok("7 (structural suite: Q-Gorenstein certificates, supports, specialization)")


def test_criterion_8_smoothing_consistency():
    """is_smoothing implies the necessary parameter pattern, and every
    T-singularity with n <= 60 has a toric smoothing with a 3-ray cone."""
    for n, q in all_pairs(60):
        m = cqs_new(n, q)
        for df in all_deformations(m):
            if is_smoothing(df):  # raises when the pattern is violated
                if df.kind == "D":
                    assert df.d == 1 and df.p == m.a(df.h) - 1
                else:
                    assert m.a(df.h) == 2 and df.d == 1

    from cqsdef.totalspace import build_deformation
    from cqsdef.minkowski import decomposition_D

    for n, q in all_pairs(60):
        m = cqs_new(n, q)
        if not is_t_singularity(m):
            continue
        found = False
        for zc in enumerate_K(m):
            diff = [i for i in range(len(m.a_chain)) if zc.k[i] != m.a_chain[i]]
            if len(diff) != 1:
                continue
            h = diff[0] + 2
            p = m.a(h) - zc.k_at(h)
            df = build_deformation(m, decomposition_D(segment(m, h), p, 1))
            if len(df.sigma_prime.generators) == 3 and is_smoothing(df):
                found = True
                break
        assert found, (n, q)
    _ok("8 (smoothing consistency and T-singularity smoothings, n <= 60)")


def test_criterion_9_inverse_pair_isomorphism():
    """Y(n,q) and Y(n,q') with q q' = 1 (mod n) are isomorphic by swapping
    the coordinates (Riemenschneider 1974), so their scan rows agree once
    q is dropped: every pair q < q' with n <= 80."""
    checked = 0
    for n, q in all_pairs(80):
        q_inv = pow(q, -1, n)
        if q < q_inv:
            row, row_inv = scan_row(n, q), scan_row(n, q_inv)
            assert "error" not in row, row
            del row["q"], row_inv["q"]
            assert row == row_inv, (n, q, q_inv)
            checked += 1
    assert checked == 852  # the 182 pairs with q = q' would compare a row with itself
    _ok("9 (Y(n,q) and Y(n,q^-1) have the same scan row, n <= 80)")
