import math
from fractions import Fraction

import pytest

from cqsdef.chains import enumerate_K
from cqsdef.cqs import to_display_coords
from cqsdef.minkowski import (
    decomposition_D,
    decomposition_Dbar,
    enum_decompositions,
    lattice_point_count,
    segment,
    segment_length,
)
from cqsdef.totalspace import nu_count
from conftest import division_slice_frame, iter_models, run_optimized


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
        assert s.origin.dot(w) == 1 and (s.origin + s.direction).dot(w) == 1
        assert s.point_at(Fraction(*s.ends[0])).dot(w) == 1


def test_segment_matches_division_frame():
    """Segment's frame from m0 and w^{h+1} agrees with the frame found by
    the extended gcd and division on every slice."""
    for m in iter_models(30):
        for h in m.interior_indices():
            seg = segment(m, h)
            beta, gamma, origin, unit, _ = division_slice_frame(m, h)
            ends = tuple(Fraction(*r) for r in seg.ends)
            assert ends + (seg.origin, seg.origin + seg.direction) == (beta, gamma, origin, unit)


def test_segment_coord_rejects_points_off_the_slice(y83):
    seg = segment(y83, 3)
    with pytest.raises(RuntimeError, match="does not meet the slice"):
        seg.coord(-seg.origin)


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
    assert lattice_point_count(y83, 3) == 2 == y83.a(3) - 1
    assert lattice_point_count(y83, 2) == 2
    for m in iter_models(30):
        for h in range(3, m.e - 1):
            assert lattice_point_count(m, h) == m.a(h) - 1


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
            w1, w2 = m.wgen(h).as_int_pair()
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
                assert seg.point_at(c).dot(w) == 1


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
    """check_lattice_ends, which Decomposition.validate and the fan
    decompositions share, rejects each way of breaking the rule under
    python -O and accepts admissible pairs, given as integer ratios that
    need not be in lowest terms."""
    code = (
        "import sys\n"
        "from cqsdef.minkowski import check_lattice_ends\n"
        "check_lattice_ends(((-1, 2), (2, 2)), ((0, 1), (1, 1)), 1, lambda: 'ok')\n"
        "check_lattice_ends(((-1, 2), (1, 3)), ((0, 5), (8, 2)), 2, lambda: 'ok')\n"
        "bad = [\n"
        "    (((-1, 2), (1, 1)), ((1, 3), (3, 3)), 1),\n"
        "    (((0, 1), (1, 2)), ((0, 1), (1, 3)), 1),\n"
        "    (((0, 1), (1, 1)), ((1, 2), (4, 2)), 2),\n"
        "    (((0, 1), (1, 1)), ((0, 1), (6, 2)), 2),\n"
        "]\n"
        "for s0, s1, p in bad:\n"
        "    try:\n"
        "        check_lattice_ends(s0, s1, p, lambda: 'bad')\n"
        "    except RuntimeError as exc:\n"
        "        print(sys.flags.optimize, exc)\n"
    )
    assert run_optimized("-c", code).stdout.decode().splitlines() == [
        "1 bad has no lattice left end",
        "1 bad has no lattice right end",
        "1 bad has a non-lattice s1",
        "1 bad has s1 not divisible by p",
    ]
