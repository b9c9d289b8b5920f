import itertools
import math
from fractions import Fraction

import pytest

from cqsdef.chains import enumerate_K
from cqsdef.cqs import to_display_coords
from cqsdef.lattice import InvariantError, dot2
from cqsdef.minkowski import enum_decompositions, segment, segment_length
from cqsdef.totalspace import nu_count
from conftest import (
    decomposition_D,
    decomposition_Dbar,
    division_slice_frame,
    iter_models,
    run_optimized,
)


def test_segment_golden(y83):
    s2 = segment(y83, 2)
    assert tuple(Fraction(*r) for r in s2.ends) == (Fraction(-3, 5), Fraction(1))
    s3 = segment(y83, 3)
    assert Fraction(*s3.length_ratio) == 2
    assert s3.lattice_count == 2  # {-1, 0} in the drawn coordinates, {0, 1} here
    s4 = segment(y83, 4)
    assert Fraction(*s4.length_ratio) == Fraction(8, 5)
    # mirror of the h=2 pattern: one endpoint on a lattice point
    assert tuple(Fraction(*r) for r in s4.ends) == (Fraction(0), Fraction(8, 5))


def test_segment_origin_certificates(y83):
    for h in (2, 3, 4):
        s = segment(y83, h)
        w = y83.wgen(h)
        (ox, oy), (wx, wy) = s.origin, w
        assert dot2(s.origin, w) == 1 and s.point_at(1) == (ox + wy, oy - wx)
        assert dot2(s.point_at(Fraction(*s.ends[0])), w) == 1


def test_segment_matches_division_frame():
    """Segment's frame from m0 and w^{h+1} agrees with the frame found by
    the extended gcd and division on every slice."""
    for m in iter_models(30):
        for h in m.interior_indices():
            seg = segment(m, h)
            beta, gamma, origin, unit, _ = division_slice_frame(m, h)
            ends = tuple(Fraction(*r) for r in seg.ends)
            (ox, oy), (dx, dy) = seg.origin, (seg.w[1], -seg.w[0])
            assert ends + (seg.origin, (ox + dx, oy + dy)) == (beta, gamma, origin, unit)


def test_segment_coord_rejects_points_off_the_slice(y83):
    seg = segment(y83, 3)
    with pytest.raises(InvariantError, match="does not meet the slice"):
        seg.coord(tuple(-c for c in seg.origin))


def test_segment_length_golden(y83):
    assert segment_length(y83, 3) == 2
    assert segment_length(y83, 2) == Fraction(8, 5)
    assert segment_length(y83, 4) == Fraction(8, 5)


def test_floor_length_is_max_gap():
    for m in iter_models(30):
        ks = enumerate_K(m)
        for h in m.interior_indices():
            assert math.floor(segment_length(m, h)) == max(
                m.a(h) - zc.k_at(h) for zc in ks
            )


def test_lattice_point_count(y83):
    assert segment(y83, 3).lattice_count == 2 == y83.a(3) - 1
    assert segment(y83, 2).lattice_count == 2
    for m in iter_models(30):
        for h in range(3, m.e - 1):
            assert segment(m, h).lattice_count == m.a(h) - 1


def test_enum_golden_count(y83):
    decs = enum_decompositions(y83)
    assert len(decs) == 7
    by_degree = {}
    for d in decs:
        u = to_display_coords(y83.wgen(d.h), y83)
        by_degree.setdefault((d.p * u[0], d.p * u[1]), []).append(d)
    assert sorted(len(v) for v in by_degree.values()) == [1, 1, 1, 4]
    assert len(by_degree[(2, 2)]) == 4
    assert set(by_degree) == {(1, 5), (2, 2), (4, 4), (5, 1)}


def test_enum_golden_h3_labels(y83):
    labels = {d.label for d in enum_decompositions(y83) if d.h == 3}
    assert labels == {
        "pi_{3,1}^1",
        "pi_{3,1}^2",
        "pi_{3,2}^1",
        "pibar_{3}^1",
        "pibar_{3}^2",
    }


def oracle_decompositions(m) -> list:
    """Each slice's decompositions one call at a time, through the
    per-decomposition oracles, in the library's order: D by p, then d,
    while decomposition_D accepts p*d, then Dbar by d at interior h, while
    decomposition_Dbar accepts d."""
    out = []
    for h in range(2, m.e):
        seg = segment(m, h)
        for p in range(1, m.a(h)):
            for d in itertools.count(1):
                try:
                    out.append(decomposition_D(seg, p, d))
                except ValueError:
                    break
        if 3 <= h <= m.e - 2:
            for d in itertools.count(1):
                try:
                    out.append(decomposition_Dbar(seg, d))
                except ValueError:
                    break
    return out


def test_enum_decompositions_equal_the_oracle():
    """The one-pass slice builder gives the oracle's list, in order, for
    every pair with n <= 60."""
    for m in iter_models(60):
        assert enum_decompositions(m) == oracle_decompositions(m), (m.n, m.q)


def test_decompositions_revalidate(y83):
    for m in iter_models(25):
        for dec in enum_decompositions(m):
            dec.validate(segment(m, dec.h))


def test_minkowski_sum_reconstructs():
    for m in iter_models(25):
        for dec in enum_decompositions(m):
            seg = segment(m, dec.h)
            (a0, b0), (a1, b1) = ([Fraction(*r) for r in e] for e in (dec.ends0, dec.ends1))
            assert (a0 + a1, b0 + b1) == tuple(Fraction(*r) for r in seg.ends)


def test_length_denominator_bound():
    for m in iter_models(40):
        for h in m.interior_indices():
            w1, w2 = m.wgen(h)
            assert (w1 * (w2 * m.n - w1 * m.q)) % segment_length(m, h).denominator == 0


def test_counts_match_nu():
    for m in iter_models(25):
        decs = enum_decompositions(m)
        for zc in enumerate_K(m):
            for h in m.interior_indices():
                for p in range(1, m.a(h)):
                    gap = m.a(h) - zc.k_at(h)
                    d_count = sum(
                        1
                        for dec in decs
                        if dec.kind == "D"
                        and dec.h == h
                        and dec.p == p
                        and p * dec.d <= gap
                    )
                    bar_count = 0
                    if p == 1 and zc.alpha_at(h) == 1:
                        a_prev = zc.alpha_at(h - 1)
                        bar_count = sum(
                            1
                            for dec in decs
                            if dec.kind == "Dbar"
                            and dec.h == h
                            and a_prev <= dec.d <= gap + a_prev
                        )
                    assert d_count + bar_count == nu_count(m, zc, h, p)


def test_segment_coordinate_roundtrip():
    for m in iter_models(20):
        for h in m.interior_indices():
            seg = segment(m, h)
            for c in range(-2, seg.lattice_count + 2):
                assert seg.coord(seg.point_at(c)) == (c, 1)
            w = m.wgen(h)
            for c in range(0, seg.lattice_count):
                assert dot2(seg.point_at(c), w) == 1


def test_point_summands_are_first_class(y83):
    s3 = segment(y83, 3)
    dec = decomposition_D(s3, 2, 1)
    assert Fraction(*dec.ends0[0]) == Fraction(*dec.ends0[1]) == Fraction(-1, 2)
    dec.validate(s3)


def test_dbar_requires_interior(y83):
    decs = enum_decompositions(y83)
    assert all(dec.h == 3 for dec in decs if dec.kind == "Dbar")


def test_decomposition_bounds(y83):
    s3 = segment(y83, 3)
    with pytest.raises(ValueError):
        decomposition_D(s3, 1, 3)
    with pytest.raises(ValueError):
        decomposition_Dbar(s3, 3)


def test_lattice_end_rule_survives_optimize():
    """lattice_end_fault, which Decomposition.validate and the fan
    decompositions share, names each way of breaking the rule under
    python -O and gives "" for admissible pairs, given as integer ratios
    that need not be in lowest terms."""
    code = (
        "import sys\n"
        "from cqsdef.minkowski import lattice_end_fault\n"
        "print(repr(lattice_end_fault(((-1, 2), (2, 2)), ((0, 1), (1, 1)), 1)))\n"
        "print(repr(lattice_end_fault(((-1, 2), (1, 3)), ((0, 5), (8, 2)), 2)))\n"
        "bad = [\n"
        "    (((-1, 2), (1, 1)), ((1, 3), (3, 3)), 1),\n"
        "    (((0, 1), (1, 2)), ((0, 1), (1, 3)), 1),\n"
        "    (((0, 1), (1, 1)), ((1, 2), (4, 2)), 2),\n"
        "    (((0, 1), (1, 1)), ((0, 1), (6, 2)), 2),\n"
        "]\n"
        "for s0, s1, p in bad:\n"
        "    print(sys.flags.optimize, 'bad' + lattice_end_fault(s0, s1, p))\n"
    )
    assert run_optimized("-c", code).stdout.decode().splitlines() == [
        "''",
        "''",
        "1 bad has no lattice left end",
        "1 bad has no lattice right end",
        "1 bad has a non-lattice s1",
        "1 bad has s1 not divisible by p",
    ]


def test_validate_checks_survive_optimize():
    """Decomposition.validate rejects each way of breaking an admissible
    decomposition of the slice of Y(8,3) at h = 3, (-1/2, 3/2), under
    python -O and on a second call as well."""
    code = (
        "import sys\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.minkowski import Decomposition, segment\n"
        "seg = segment(cqs_new(8, 3), 3)\n"
        "Decomposition('D', 3, 1, 1, ((-1, 2), (1, 2)), ((0, 1), (1, 1))).validate(seg)\n"
        "bad = [\n"
        "    Decomposition('D', 3, 1, 1, ((1, 2), (-1, 2)), ((-1, 1), (2, 1))),\n"
        "    Decomposition('D', 3, 1, 1, ((-1, 2), (1, 2)), ((0, 1), (2, 1))),\n"
        "    Decomposition('Dbar', 3, 2, 1, ((-1, 2), (1, 1)), ((0, 1), (1, 2))),\n"
        "    Decomposition('D', 3, 1, 1, ((-1, 4), (1, 2)), ((-1, 4), (1, 1))),\n"
        "    Decomposition('D', 3, 2, 1, ((-1, 2), (1, 2)), ((0, 1), (1, 1))),\n"
        "]\n"
        "for dec in bad:\n"
        "    for _ in range(2):\n"
        "        try:\n"
        "            dec.validate(seg)\n"
        "        except InvariantError as exc:\n"
        "            print(sys.flags.optimize, exc)\n"
    )
    assert run_optimized("-c", code).stdout.decode().splitlines() == [
        line
        for line in (
            "1 pi_{3,1}^1: a summand runs right to left",
            "1 pi_{3,1}^1: summands do not add up",
            "1 pibar_{3}^1: p = 2 != 1",
            "1 pi_{3,1}^1 has no lattice left end",
            "1 pi_{3,2}^1 has s1 not divisible by p",
        )
        for _ in range(2)
    ]
