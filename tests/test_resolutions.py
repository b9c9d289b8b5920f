from fractions import Fraction

import pytest

import cqsdef.resolutions as res
from cqsdef.chains import enumerate_K
from cqsdef.cqs import cqs_new
from cqsdef.geometry3 import Cone3, is_canonical_cone3
from cqsdef.lattice import InvariantError, cf_expand, cone_normal_form, dot2
from cqsdef.minkowski import segment
from cqsdef.report import build_report
from cqsdef.resolutions import (
    FanDecomposition,
    MaxCone3,
    PieceDecomposition,
    _build_fan_decomposition,
    _check_fan_interfaces,
    _convex_across_walls,
    assemble_fan3,
    canonical_model,
    fan_decomposition,
    p_resolution_fan,
    slice_intervals,
)
from cqsdef.totalspace import all_deformations, build_deformation, components_of
from conftest import (
    decomposition_D,
    decomposition_Dbar,
    division_slice_frame,
    hull_cone_ray_sets,
    iter_models,
    lattice_points_right,
    quadratic_blow_down_trace,
    rdp_chain,
    run_optimized,
)


def k_of(model, chain):
    for zc in enumerate_K(model):
        if zc.k == chain:
            return zc
    raise KeyError(chain)


def defo_by_label(model, label):
    for df in all_deformations(model):
        if df.decomp.label == label:
            return df
    raise KeyError(label)


def test_p_resolution_golden_artin(y83):
    fan = p_resolution_fan(y83, k_of(y83, (1, 2, 1)))
    assert list(fan.rays) == [(1, 0), (0, 1), (-1, 3), (-3, 8)]
    # displayed rays match (1,0), (1/8)(3,1), (1/8)(1,3), (0,1)
    (comp,) = [c for c in build_report(y83)["components"] if c["k"] == [1, 2, 1]]
    disp = comp["p_resolution"]["rays_display"]
    assert disp == [["1", "0"], ["3/8", "1/8"], ["1/8", "3/8"], ["0", "1"]]
    assert all(not t.degenerate for t in fan.cones)
    assert all(t.at_most_rdp for t in fan.cones)


def test_p_resolution_golden_trivial(y83):
    fan = p_resolution_fan(y83, k_of(y83, (2, 1, 2)))
    assert list(fan.rays) == [(1, 0), (-3, 8)]
    assert fan.cone_at(2).degenerate and fan.cone_at(4).degenerate
    tau3 = fan.cone_at(3)
    assert tau3.alpha == 2 and tau3.roof_len == 4


def test_roof_lengths():
    for m in iter_models(25):
        for zc in enumerate_K(m):
            fan = p_resolution_fan(m, zc)
            for tau in fan.cones:
                assert tau.roof_len == (m.a(tau.i) - zc.k_at(tau.i)) * tau.alpha


def test_p_resolution_cones_are_t_or_smooth():
    """Every non-degenerate fan cone is smooth or admits the one-slot
    zero-chain pattern."""
    from cqsdef.chains import zero_chains_bounded

    for m in iter_models(20):
        for zc in enumerate_K(m):
            for tau in p_resolution_fan(m, zc).cones:
                if tau.degenerate:
                    continue
                n, q = cone_normal_form(tau.cone2())
                if n == 1:
                    continue
                chain = tuple(cf_expand(n, n - q)) if q != n - 1 else (n,)
                if q == n - 1:
                    # chain (n): the A-series cone, always fine
                    continue
                found = any(
                    sum(1 for i, c in enumerate(chain) if zc2.k[i] != c) <= 1
                    for zc2 in zero_chains_bounded(chain)
                )
                assert found, (m.n, m.q, zc.k, tau.i, chain)


def test_at_most_rdp_matches_the_chain_route():
    """A fan cone is at most an RDP, read off its normal form, exactly
    when the Hirzebruch-Jung chain of its normal form blows down to a
    smooth point or to all 2's."""
    verdicts = []
    for m in iter_models(30):
        for zc in enumerate_K(m):
            for tau in p_resolution_fan(m, zc).cones:
                if tau.degenerate:
                    continue
                n, q = cone_normal_form(tau.cone2())
                nf = quadratic_blow_down_trace(cf_expand(n, q) if n > 1 else ())[0]
                expected = all(c == 2 for c in nf)
                assert tau.at_most_rdp is expected, (m.n, m.q, zc.k, tau.i, n, q)
                verdicts.append(expected)
    assert (len(verdicts), sum(verdicts)) == (895, 745)


def _fractions(ends):
    return tuple(Fraction(*r) for r in ends)


def test_fan_decomposition_golden_sbar(y83):
    k = k_of(y83, (1, 2, 1))
    fd = fan_decomposition(y83, k, decomposition_Dbar(segment(y83, 3), 1))
    by_i = {pc.i: (_fractions(pc.ends0), _fractions(pc.ends1)) for pc in fd.pieces}
    assert by_i[4] == ((Fraction(-1, 2), Fraction(0)), (0, 0))
    assert by_i[3] == ((Fraction(0), Fraction(1)), (0, 0))
    assert by_i[2] == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1, 2)))
    assert fd.label == "Sbar_{3}^1[1,2,1]"
    (js,) = [
        js
        for rec in build_report(y83)["deformations"]
        for js in rec["simultaneous_resolutions"]
        if js["label"] == fd.label
    ]
    assert js["kind"] == "Sbar" and js["d"] == 1


def test_pieces_are_degenerate_with_their_fan_cones():
    """A piece is degenerate exactly when its fan cone is, so every cone
    assemble_fan3 builds reads the RDP verdict of a nondegenerate tau."""
    for m in iter_models(30):
        for df in all_deformations(m):
            for k in components_of(df.model, df.decomp):
                fd = fan_decomposition(m, k, df.decomp)
                for pc in fd.pieces:
                    tau = p_resolution_fan(m, k).cone_at(pc.i)
                    assert pc.degenerate == tau.degenerate, (m.n, m.q, df.decomp.label, k.k, pc.i)


def test_fan_decomposition_golden_sbar2(y83):
    """The barred depth-2 panel: one top interval and two bottom intervals,
    three full-dimensional cones in all."""
    k = k_of(y83, (1, 2, 1))
    fan3 = assemble_fan3(build_deformation(y83, decomposition_Dbar(segment(y83, 3), 2)), k)
    assert len(fan3.cones) == 3
    rays = {c.tau_index: set(c.cone.generators) for c in fan3.cones}
    assert rays[4] == {(1, 2, 0), (1, 1, 0), (0, 0, 1)}
    assert rays[3] == {(1, 1, 0), (0, 0, 1), (1, 0, 1)}
    assert rays[2] == {(1, 1, 0), (1, 0, 1), (3, 0, 2)}
    assert fan3.all_canonical


def test_fan_decomposition_golden_s_triangle(y83):
    k = k_of(y83, (2, 1, 2))
    fan3 = assemble_fan3(build_deformation(y83, decomposition_D(segment(y83, 3), 2, 1)), k)
    assert len(fan3.cones) == 1
    # scaled slice: one top vertex, bottom edge of lattice length one
    assert len(fan3.cones[0].cone.generators) == 3
    assert fan3.support.generators == fan3.cones[0].cone.generators


def test_fan_decomposition_preconditions(y83):
    k1 = k_of(y83, (1, 2, 1))
    k2 = k_of(y83, (2, 1, 2))
    seg2, seg3 = segment(y83, 2), segment(y83, 3)
    # p*d = 2 exceeds a_3 - k_3 = 1; alpha_3 = 2 for k2; h = 2 is not interior
    for k, dec in (
        (k1, decomposition_D(seg3, 1, 2)),
        (k2, decomposition_Dbar(seg3, 1)),
        (k1, decomposition_Dbar(seg2, 1)),
    ):
        with pytest.raises(ValueError, match="does not map to the component"):
            fan_decomposition(y83, k, dec)
    # the slice at h = 3 has 2 lattice points
    with pytest.raises(ValueError, match=r"d = 3 out of range 1\.\.2"):
        decomposition_Dbar(seg3, 3)


def test_assemble_support_equals_sigma_prime(y83):
    for df in all_deformations(y83):
        for k in components_of(df.model, df.decomp):
            fan3 = assemble_fan3(df, k)
            assert set(fan3.support.generators) == set(df.sigma_prime.generators)
            assert all(c.cone.gorenstein_ratio is not None for c in fan3.cones)


def test_golden_panel_canonicity(y83):
    flags = {}
    for df in all_deformations(y83):
        for k in components_of(df.model, df.decomp):
            fd = fan_decomposition(df.model, k, df.decomp)
            flags[fd.label] = assemble_fan3(df, k).all_canonical
    assert len(flags) == 8
    assert flags == {
        "S_{2,1}^1[1,2,1]": True,
        "S_{4,1}^1[1,2,1]": True,
        "Sbar_{3}^1[1,2,1]": True,
        "Sbar_{3}^2[1,2,1]": True,
        "S_{3,1}^1[1,2,1]": True,
        "S_{3,1}^1[2,1,2]": False,
        "S_{3,2}^1[2,1,2]": True,
        "S_{3,1}^2[2,1,2]": True,
    }


def test_is_canonical_examples(y83):
    smooth = Cone3.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert is_canonical_cone3(smooth)
    a1 = Cone3.from_rays([(0, 1, 0), (0, 0, 1), (2, 1, 0), (2, 0, 1)])
    assert is_canonical_cone3(a1)
    # the single cone of the rejected panel is itself non-canonical
    df = defo_by_label(y83, "pi_{3,1}^1")
    fan3 = assemble_fan3(df, k_of(y83, (2, 1, 2)))
    assert len(fan3.cones) == 1
    assert not is_canonical_cone3(fan3.cones[0].cone)


def test_canonical_model_golden(y83):
    expected = {
        "pi_{2,1}^1": (1, 2, 1),
        "pi_{3,1}^1": (1, 2, 1),
        "pi_{3,1}^2": (2, 1, 2),
        "pi_{3,2}^1": (2, 1, 2),
        "pibar_{3}^1": (1, 2, 1),
        "pibar_{3}^2": (1, 2, 1),
        "pi_{4,1}^1": (1, 2, 1),
    }
    for df in all_deformations(y83):
        k, fan = canonical_model(df)
        assert k.k == expected[df.decomp.label]
        assert fan.all_canonical


def test_artin_mapping_deformations_identify_artin():
    """Below the RDP depth bound the canonical model sits over the RDP
    chain."""
    for m in iter_models(16):
        for df in all_deformations(m):
            kind, h, p, d, _, _ = df.decomp
            bound = m.a(h) - (2 if 3 <= h <= m.e - 2 else 1)
            if kind == "D" and p * d < bound or kind == "Dbar":
                k, _ = canonical_model(df)
                assert k.k == rdp_chain(m.e)


def test_hull_route_smooth_and_golden(y83):
    smooth = Cone3.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert hull_cone_ray_sets(smooth) == {frozenset(smooth.generators)}

    k = k_of(y83, (2, 1, 2))
    df = defo_by_label(y83, "pi_{3,2}^1")
    hull = hull_cone_ray_sets(df.sigma_prime)
    assert {frozenset(c.cone.generators) for c in assemble_fan3(df, k).cones} == hull

    df = defo_by_label(y83, "pi_{3,1}^2")
    hull = hull_cone_ray_sets(df.sigma_prime)
    assert {frozenset(c.cone.generators) for c in assemble_fan3(df, k).cones} == hull


def test_wall_certificate_matches_the_hull_oracle():
    """For every all-canonical fan over a component of a deformation with
    n <= 30, the wall certificate holds exactly when the fan is the
    bounded-face hull fan of sigma'.  Each deformation has exactly one
    such fan, the hull fan, so the negative side is tested on the
    synthetic fans below."""
    fans = defos = 0
    for m in iter_models(30):
        for df in all_deformations(m):
            defos += 1
            hull = None
            for comp in components_of(df.model, df.decomp):
                fan = assemble_fan3(df, comp)
                if not fan.all_canonical:
                    continue
                hull = hull or hull_cone_ray_sets(df.sigma_prime)
                fan_rays = {frozenset(c.cone.generators) for c in fan.cones}
                assert _convex_across_walls(fan.cones) == (fan_rays == hull)
                fans += 1
    assert fans == defos == 3455


def _fan_of(*rays):
    """Max cones over the given ray lists, left to right."""
    cones = []
    for i, r in enumerate(rays):
        cone = Cone3.from_rays(r)
        cones.append(MaxCone3(len(rays) - i, cone, is_canonical_cone3(cone), False))
    return cones


# Two canonical cones that tile a canonical support but are not its hull
# fan: a square roof split along a diagonal (the two roofs are coplanar,
# so each functional is exactly 1 across the wall), and the smooth octant
# split along a plane (the wall is reflex: e1 + e2 is 0 on e3).
# Each is (support rays, ray lists of the two cones).
SQUARE_SPLIT = (
    [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
    ([(1, 0, 1), (0, 1, 1), (-1, 0, 1)], [(1, 0, 1), (-1, 0, 1), (0, -1, 1)]),
)
OCTANT_SPLIT = (
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    ([(1, 0, 0), (0, 1, 0), (1, 0, 1)], [(1, 0, 1), (0, 1, 0), (0, 0, 1)]),
)


@pytest.mark.parametrize(
    "support_rays, rays", [SQUARE_SPLIT, OCTANT_SPLIT], ids=["coplanar", "reflex"]
)
def test_wall_certificate_rejects_fans_that_are_not_the_hull(support_rays, rays):
    cones = _fan_of(*rays)
    assert all(c.canonical for c in cones)
    _check_fan_interfaces(cones)  # they lie on opposite sides of their wall
    support = Cone3.from_rays(support_rays)
    assert all(support.contains(g) for c in cones for g in c.cone.generators)
    assert is_canonical_cone3(support)
    assert hull_cone_ray_sets(support) == {frozenset(support.generators)}
    assert {frozenset(c.cone.generators) for c in cones} != hull_cone_ray_sets(support)
    assert not _convex_across_walls(cones)
    assert _convex_across_walls(_fan_of(support.generators))


def test_wall_certificate_survives_optimize():
    """Under python -O, canonical_model raises when handed a canonical fan
    that is not the hull fan, and analyze exits 2."""
    code = (
        "import sys\n"
        "from cqsdef.lattice import InvariantError\n"
        "import cqsdef.cli\n"
        "import cqsdef.resolutions as res\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.geometry3 import Cone3, is_canonical_cone3\n"
        "from cqsdef.totalspace import all_deformations\n"
        f"rays = {OCTANT_SPLIT[1]!r}\n"
        "def reflex(defo, k):\n"
        "    cones = [Cone3.from_rays(r) for r in rays]\n"
        "    return res.Fan3(defo.sigma_prime, tuple(\n"
        "        res.MaxCone3(2 - i, c, is_canonical_cone3(c), False) for i, c in enumerate(cones)))\n"
        "res.assemble_fan3 = reflex\n"
        "df = all_deformations(cqs_new(8, 3))[0]\n"
        "try:\n"
        "    res.canonical_model(df)\n"
        "except InvariantError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
        "sys.exit(cqsdef.cli.main(['analyze', '8', '3', '--json']))\n"
    )
    proc = run_optimized("-c", code, check=False)
    assert proc.returncode == 2
    assert proc.stdout.decode() == "1 pi_{2,1}^1: predicate and hull canonical models disagree\n"
    assert proc.stderr.decode() == (
        "internal invariant failure: InvariantError: "
        "pi_{2,1}^1: predicate and hull canonical models disagree\n"
    )


def test_lattice_points_right_golden(y83):
    assert lattice_points_right(y83, k_of(y83, (1, 2, 1)), 3) == 0


def test_lattice_points_right_synthetic():
    # Y_(11,3) has chain (2,2,3,2) and the zero chain (2,1,3,1) with
    # alpha = (0,1,2,1,1,0): alpha_4 = 1, alpha_3 = 2.
    m = cqs_new(11, 3)
    assert m.a_chain == (2, 2, 3, 2)
    zc = k_of(m, (2, 1, 3, 1))
    assert zc.alpha == (0, 1, 2, 1, 1, 0)
    assert lattice_points_right(m, zc, 4) == 1 == zc.alpha_at(3) - 1


def test_lattice_points_right_matches_alpha():
    for m in iter_models(25):
        for zc in enumerate_K(m):
            for h in range(3, m.e - 1):
                if zc.alpha_at(h) == 1:
                    assert lattice_points_right(m, zc, h) == zc.alpha_at(h - 1) - 1


def test_lattice_points_right_preconditions(y83):
    with pytest.raises(ValueError):
        lattice_points_right(y83, k_of(y83, (1, 2, 1)), 2)
    with pytest.raises(ValueError):
        lattice_points_right(y83, k_of(y83, (2, 1, 2)), 3)


def _coord_of_ray(model, h, ray):
    """The slice coordinate of a ray through the division-based oracle."""
    t = dot2(ray, model.wgen(h))
    assert t > 0
    coord = division_slice_frame(model, h)[4]
    return coord((Fraction(ray[0], t), Fraction(ray[1], t)))


def test_slice_intervals_match_division_frame():
    for m in iter_models(30):
        for zc in enumerate_K(m):
            cones = p_resolution_fan(m, zc).cones
            for h in m.interior_indices():
                expected = {
                    tau.i: (_coord_of_ray(m, h, tau.ray_left), _coord_of_ray(m, h, tau.ray_right))
                    for tau in sorted(cones, key=lambda t: -t.i)
                }
                got = {i: _fractions(ends) for i, ends in slice_intervals(m, zc, h).items()}
                assert list(got.items()) == list(expected.items()), (m.n, m.q, zc.k, h)


def test_slice_interval_checks_survive_optimize():
    """A slice whose frame is shifted off the fan rays is rejected under
    python -O."""
    code = (
        "import sys\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.chains import enumerate_K\n"
        "from cqsdef.minkowski import Segment, segment\n"
        "from cqsdef.resolutions import _build_slice_intervals, p_resolution_fan\n"
        "m = cqs_new(8, 3)\n"
        "cones = p_resolution_fan(m, enumerate_K(m)[0]).cones\n"
        "seg = segment(m, 3)\n"
        "off = Segment(h=seg.h, ends=seg.ends, m0=seg.m0 + 1, w=seg.w, w_next=seg.w_next)\n"
        "_build_slice_intervals(seg, cones)\n"
        "try:\n"
        "    _build_slice_intervals(off, cones)\n"
        "except InvariantError as exc:\n"
        "    print(sys.flags.optimize, 'raised:', exc)\n"
    )
    out = run_optimized("-c", code).stdout.decode()
    assert out == "1 raised: slices do not cover the slice from beta to gamma\n"


def test_roof_and_lift_checks_survive_optimize():
    """Under python -O, a partial resolution fan whose roof lengths miss
    (a_i - k_i) * alpha_i, and generators lifted in the frame of a model
    whose w^{h+1} is wrong, are internal failures."""
    code = (
        "import sys\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.chains import enumerate_K\n"
        "from cqsdef.cqs import CqsModel, cqs_new\n"
        "from cqsdef.resolutions import _build_p_resolution\n"
        "from cqsdef.totalspace import Deformation, all_deformations, generator_relations\n"
        "m = cqs_new(8, 3)\n"
        "k = next(k for k in enumerate_K(m) if k.k == (1, 2, 1))\n"
        "df = next(d for d in all_deformations(m) if d.decomp.h == 2)\n"
        "generator_relations(df)\n"
        "other = CqsModel(n=m.n, q=m.q, e=m.e, a_chain=(3, 3, 2), w=m.w, sigma=m.sigma)\n"
        "w = m.w[:2] + (m.wgen(4),) + m.w[3:]\n"
        "skew = CqsModel(n=m.n, q=m.q, e=m.e, a_chain=m.a_chain, w=w, sigma=m.sigma)\n"
        "for call in (lambda: _build_p_resolution(other, k),\n"
        "             lambda: generator_relations(Deformation(skew, df.decomp))):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantError as exc:\n"
        "        print(sys.flags.optimize, exc)\n"
    )
    assert run_optimized("-c", code).stdout.decode().splitlines() == [
        "1 tau_2 has roof length 1",
        "1 pi_{2,1}^1: the lift frame does not fit w^2 and w^3",
    ]


def test_assemble_fan3_rejects_a_component_it_does_not_map_to(y83):
    """assemble_fan3 reads the fan decomposition of its deformation over k,
    so a k outside components_of raises fan_decomposition's ValueError."""
    for df in all_deformations(y83):
        comps = components_of(df.model, df.decomp)
        for k in enumerate_K(y83):
            if k in comps:
                assemble_fan3(df, k)
            else:
                with pytest.raises(ValueError, match="does not map to the component"):
                    assemble_fan3(df, k)


def test_piece_lattice_end_rule_survives_optimize():
    """Each fan piece obeys the lattice-end rule under python -O, and a
    broken piece is named by its fan decomposition and index."""
    code = (
        "import sys\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.chains import enumerate_K\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.resolutions import FanDecomposition, PieceDecomposition\n"
        "from cqsdef.resolutions import _validate_piece_admissibility, fan_decomposition\n"
        "from cqsdef.totalspace import all_deformations\n"
        "m = cqs_new(8, 3)\n"
        "for label, chain, ends0, ends1 in [\n"
        "    ('pi_{3,1}^1', (1, 2, 1), ((1, 2), (1, 1)), ((1, 3), (3, 3))),\n"
        "    ('pi_{3,1}^1', (1, 2, 1), ((0, 1), (1, 2)), ((0, 1), (1, 3))),\n"
        "    ('pi_{3,2}^1', (2, 1, 2), ((0, 1), (1, 1)), ((1, 2), (4, 2))),\n"
        "    ('pi_{3,2}^1', (2, 1, 2), ((0, 1), (1, 1)), ((0, 1), (6, 2))),\n"
        "]:\n"
        "    df = next(d for d in all_deformations(m) if d.decomp.label == label)\n"
        "    k = next(k for k in enumerate_K(m) if k.k == chain)\n"
        "    fd = fan_decomposition(m, k, df.decomp)\n"
        "    _validate_piece_admissibility(fd)\n"
        "    pc = fd.pieces[1]\n"
        "    piece = PieceDecomposition(pc.i, ends0, ends1, pc.degenerate)\n"
        "    pieces = (fd.pieces[0], piece) + fd.pieces[2:]\n"
        "    bad = FanDecomposition(fd.k, fd.decomp, pieces)\n"
        "    for _ in range(2):\n"
        "        try:\n"
        "            _validate_piece_admissibility(bad)\n"
        "        except InvariantError as exc:\n"
        "            print(sys.flags.optimize, exc)\n"
    )
    assert run_optimized("-c", code).stdout.decode().splitlines() == [
        line
        for line in (
            "1 S_{3,1}^1[1,2,1]: piece 3 has no lattice left end",
            "1 S_{3,1}^1[1,2,1]: piece 3 has no lattice right end",
            "1 S_{3,2}^1[2,1,2]: piece 3 has a non-lattice s1",
            "1 S_{3,2}^1[2,1,2]: piece 3 has s1 not divisible by p",
        )
        for _ in range(2)
    ]


def test_qgorenstein_check_survives_optimize():
    """A fan cone whose generators are not on one affine plane is an
    internal failure under python -O, raised before canonicity is read."""
    code = (
        "import sys\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.chains import enumerate_K\n"
        "from cqsdef.cqs import cqs_new\n"
        "import cqsdef.resolutions as res\n"
        "from cqsdef.resolutions import FanDecomposition, PieceDecomposition\n"
        "from cqsdef.resolutions import assemble_fan3, fan_decomposition\n"
        "from cqsdef.totalspace import all_deformations\n"
        "m = cqs_new(8, 3)\n"
        "df = next(d for d in all_deformations(m) if d.decomp.label == 'pi_{2,1}^1')\n"
        "k = next(k for k in enumerate_K(m) if k.k == (1, 2, 1))\n"
        "assemble_fan3(df, k)\n"
        "fd = fan_decomposition(m, k, df.decomp)\n"
        "ends0, ends1 = ((0, 1), (1, 2)), ((0, 1), (3, 1))\n"
        "pc = fd.pieces[0]\n"
        "piece = PieceDecomposition(i=pc.i, ends0=ends0, ends1=ends1, degenerate=pc.degenerate)\n"
        "bad = FanDecomposition(fd.k, fd.decomp, (piece,) + fd.pieces[1:])\n"
        "res.fan_decomposition = lambda model, k, decomp: bad\n"
        "try:\n"
        "    assemble_fan3(df, k)\n"
        "except InvariantError as exc:\n"
        "    print(sys.flags.optimize, 'raised:', exc)\n"
    )
    out = run_optimized("-c", code).stdout.decode()
    assert out == "1 raised: S_{2,1}^1[1,2,1]: the cone over piece 2 is not Q-Gorenstein\n"


def _shifted(intervals, i, by):
    """The slice intervals with cone i's interval moved right by the
    integer by at its ends (0 for the left end, 1 for the right end)."""
    (ln, ld), (rn, rd) = intervals[i]
    return {**intervals, i: ((ln + by[0] * ld, ld), (rn + by[1] * rd, rd))}


@pytest.mark.parametrize(
    "cone, by, message",
    [(2, (0, 1), r"slice at h has length 2, expected 1"), (4, (1, 1), "do not add up")],
    ids=["length", "joints"],
)
def test_fan_decomposition_rejects_slices_that_do_not_fit(y83, monkeypatch, cone, by, message):
    """A fan decomposition checks the slice at h against its gap, and that
    the pieces of each summand run end to end: lengthening the slice of
    tau_h, or moving the slice of tau_4 off its neighbour, raises."""
    df, k = defo_by_label(y83, "pi_{2,1}^1"), k_of(y83, (1, 2, 1))
    intervals = slice_intervals(y83, k, 2)
    _build_fan_decomposition(y83, k, df.decomp)
    monkeypatch.setattr(res, "slice_intervals", lambda *args: _shifted(intervals, cone, by))
    with pytest.raises(InvariantError, match=message):
        _build_fan_decomposition(y83, k, df.decomp)


def test_fan_decomposition_checks_the_lattice_end_rule_of_every_piece(y83, monkeypatch):
    """Building a fan decomposition puts each of its pieces through
    lattice_end_fault: the 24 pieces of Y(8,3)'s fan decompositions, which
    all pass."""
    faults = []
    rule = res.lattice_end_fault

    def recording(ends0, ends1, p):
        faults.append(rule(ends0, ends1, p))
        return faults[-1]

    monkeypatch.setattr(res, "lattice_end_fault", recording)
    pieces = 0
    for df in all_deformations(y83):
        for k in components_of(y83, df.decomp):
            pieces += len(_build_fan_decomposition(y83, k, df.decomp).pieces)
    assert pieces == 24 and faults == [""] * pieces


def test_assemble_fan3_checks_the_support(y83):
    """A fan cone outside sigma', here another deformation's, is an
    internal failure of assemble_fan3."""
    df, k = defo_by_label(y83, "pi_{2,1}^1"), k_of(y83, (1, 2, 1))
    assemble_fan3(df, k)
    misplaced = build_deformation(y83, df.decomp)
    # sigma' is kept where cached_property keeps it
    vars(misplaced)["sigma_prime"] = defo_by_label(y83, "pi_{3,2}^1").sigma_prime
    with pytest.raises(InvariantError, match=r"the cone over piece \d leaves the support"):
        assemble_fan3(misplaced, k)


def test_assemble_fan3_checks_the_interfaces(y83, monkeypatch):
    """Two fan cones over the same piece are an internal failure of
    assemble_fan3."""
    df, k = defo_by_label(y83, "pi_{2,1}^1"), k_of(y83, (1, 2, 1))
    assemble_fan3(df, k)
    pc2, _, pc4 = fan_decomposition(y83, k, df.decomp).pieces
    again = PieceDecomposition(3, pc2.ends0, pc2.ends1, pc2.degenerate)
    twice = FanDecomposition(k, df.decomp, (pc2, again, pc4))
    monkeypatch.setattr(res, "fan_decomposition", lambda model, k, decomp: twice)
    with pytest.raises(InvariantError, match="adjacent cones"):
        assemble_fan3(df, k)


@pytest.mark.parametrize(
    "chosen, message",
    [
        (lambda k: True, r"exactly one canonical component, got \[\(1, 2, 1\), \(2, 1, 2\)\]"),
        (lambda k: k.k == (2, 1, 2), r"chosen fan for \(2, 1, 2\) is not canonical"),
    ],
    ids=["two-winners", "not-canonical"],
)
def test_canonical_model_rejects_a_wrong_choice(y83, monkeypatch, chosen, message):
    """pi_{3,1}^1 maps to two components, and only the fan over (1,2,1)
    is canonical: a predicate that picks both, or the single
    non-canonical cone over (2,1,2), makes canonical_model raise."""
    df = defo_by_label(y83, "pi_{3,1}^1")
    assert canonical_model(df)[0].k == (1, 2, 1)
    monkeypatch.setattr(res, "_canonical_predicate", lambda defo, k: chosen(k))
    with pytest.raises(InvariantError, match=message):
        canonical_model(df)
