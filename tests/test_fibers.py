import re

import pytest

from cqsdef import fibers
from cqsdef.cqs import cqs_new
from cqsdef.fibers import face_is, general_fiber, is_smoothing
from cqsdef.lattice import Cone2, InvariantError, cone_normal_form
from cqsdef.minkowski import Decomposition, enum_decompositions
from cqsdef.report import build_report, scan_row
from cqsdef.totalspace import Deformation, all_deformations
from conftest import iter_models, pair_normal_form, quadratic_blow_down_trace, run_optimized


def fiber_table(model):
    out = {}
    for df in all_deformations(model):
        fib = general_fiber(df)
        out[df.decomp.label] = (fib.origin, sorted(fib.off_origin))
    return out


def test_golden_fibers(y83):
    table = fiber_table(y83)
    assert table["pi_{3,2}^1"] == ((), [])  # smooth fiber
    assert table["pi_{3,1}^2"] == ((), [((2,), 1)])  # one A_1 off the origin
    assert table["pibar_{3}^1"] == ((2, 2), [])  # (2,1) off-origin blows down
    assert table["pibar_{3}^2"] == ((), [((2, 2), 1)])
    assert table["pi_{2,1}^1"] == ((2, 2), [])  # (1,3,2) blown down
    assert table["pi_{4,1}^1"] == ((2, 2), [])  # (2,3,1) blown down
    assert table["pi_{3,1}^1"] == ((2, 2, 2), [])


def test_golden_raw_chains(y83):
    for df in all_deformations(y83):
        if df.decomp.label == "pi_{2,1}^1":
            raw = general_fiber(df).raw
            assert ((1, 3, 2), 1, "origin") in raw
        if df.decomp.label == "pibar_{3}^1":
            raw = general_fiber(df).raw
            assert ((2, 2), 1, "origin") in raw and ((2, 1), 1, "off-origin") in raw


def test_smoothing_golden(y83):
    flags = {df.decomp.label: is_smoothing(*df) for df in all_deformations(y83)}
    assert flags == {
        "pi_{2,1}^1": False,
        "pi_{3,1}^1": False,
        "pi_{3,1}^2": False,
        "pi_{3,2}^1": True,
        "pibar_{3}^1": False,
        "pibar_{3}^2": False,
        "pi_{4,1}^1": False,
    }


def test_smoothing_necessary_conditions():
    """A smooth general fiber forces the expected parameters (checked
    inside is_smoothing, which raises otherwise)."""
    for m in iter_models(35):
        for df in all_deformations(m):
            if is_smoothing(*df):
                kind, h, p, d, _, _ = df.decomp
                if kind == "D":
                    assert d == 1 and p == m.a(h) - 1
                else:
                    assert m.a(h) == 2 and d == 1


def test_a0_dropped():
    for m in iter_models(15):
        for df in all_deformations(m):
            if df.decomp.kind == "D" and df.decomp.d == 1:
                fib = general_fiber(df)
                assert all(ch != (1,) for ch, _ in fib.off_origin)
                assert ((1,), df.decomp.p, "off-origin") in fib.raw


def test_fiber_json(y83):
    records = build_report(y83)["deformations"]
    verbose_records = build_report(y83, verbose=True)["deformations"]
    assert len(records) == len(verbose_records) == len(all_deformations(y83))
    for rec, verbose_rec in zip(records, verbose_records):
        assert set(rec["fiber"]) == {"origin", "off_origin"}
        assert "raw_chains" in verbose_rec["fiber"]


def test_general_fiber_matches_blow_down():
    """The closed form agrees with the blow-down oracle on every
    deformation with n <= 80: each fiber's normal forms are the blow-downs
    of its raw chains, an off-origin point that blows down smooth is
    dropped, and is_smoothing reads the same fiber."""
    count = 0
    for model in iter_models(80):
        for df in all_deformations(model):
            fib = general_fiber(df)
            (origin, _, _), (off, mult, _) = fib.raw
            nf = quadratic_blow_down_trace(off)[0]
            assert fib.origin == quadratic_blow_down_trace(origin)[0], df.decomp.label
            assert fib.off_origin == (((nf, mult),) if nf else ()), df.decomp.label
            assert is_smoothing(*df) == fib.is_empty, df.decomp.label
            count += 1
    assert count == 47838


def continuants(chain) -> tuple[int, int]:
    """K(c) and K(c_2, ...) of a nonempty chain c by the recurrence
    K(c_i, ...) = c_i K(c_{i+1}, ...) - K(c_{i+2}, ...), with K() = 1."""
    num, den = 1, 0
    for c in reversed(chain):
        num, den = c * num - den, num
    return num, den


def test_fiber_types_are_the_raw_continuants():
    """fiber_types, read off the dual generators w^{h-1} and w^h, gives
    exactly the continuants (K(c), K(c_2, ...)) of general_fiber's raw
    chains at the origin and off it, for all 22,404 deformations with
    n <= 60; the continuants are not reduced mod K(c)."""
    assert continuants((2, 3, 2)) == (8, 5) and continuants((5,)) == (5, 1)
    count = 0
    for model in iter_models(60):
        for df in all_deformations(model):
            raw = general_fiber(df).raw
            expected = tuple(continuants(chain) for chain, _, _ in raw)
            assert fibers.fiber_types(model, df.decomp) == expected, df.decomp.label
            count += 1
    assert count == 22404


def _with_d_plus_one(df) -> Deformation:
    kind, h, p, d, ends0, ends1 = df.decomp
    return Deformation(df.model, Decomposition(kind, h, p, d + 1, ends0, ends1))


def test_wrong_d_raises_on_every_call():
    """A decomposition whose d is one too large for its summands makes
    the fiber chains disagree with the faces of sigma'; for every
    deformation with n <= 30 the check fires in general_fiber and in
    is_smoothing, on a second call as well."""
    count = 0
    for model in iter_models(30):
        for df in all_deformations(model):
            bad = _with_d_plus_one(df)
            for call in (general_fiber, lambda defo: is_smoothing(*defo), general_fiber):
                with pytest.raises(InvariantError, match=re.escape(bad.decomp.label)):
                    call(bad)
            count += 1
    assert count == 3455


def test_face_check_survives_optimize():
    """Under python -O, every deformation of Y(8,3) with d one too large
    fails the face check in general_fiber and in is_smoothing."""
    code = (
        "import sys\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.fibers import general_fiber, is_smoothing\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.minkowski import Decomposition\n"
        "from cqsdef.totalspace import Deformation, all_deformations\n"
        "for df in all_deformations(cqs_new(8, 3)):\n"
        "    kind, h, p, d, ends0, ends1 = df.decomp\n"
        "    bad = Deformation(df.model, Decomposition(kind, h, p, d + 1, ends0, ends1))\n"
        "    for call in (general_fiber, lambda defo: is_smoothing(*defo)):\n"
        "        try:\n"
        "            call(bad)\n"
        "        except InvariantError as exc:\n"
        "            print(sys.flags.optimize, str(exc).split(':')[0])\n"
    )
    lines = run_optimized("-c", code).stdout.decode().splitlines()
    labels = [_with_d_plus_one(df).decomp.label for df in all_deformations(cqs_new(8, 3))]
    assert len(labels) == 7
    assert lines == [f"1 {label}" for label in labels for _ in range(2)]


def sigma_prime_faces(df):
    """The rays (u, v) of the faces z = 0 and y = 0 of the Cone3 that
    sigma_prime builds, with u = v for a face that is a single ray."""
    gens = df.sigma_prime.generators
    faces = []
    for axis in (2, 1):
        rays = [(g[0], g[3 - axis]) for g in gens if g[axis] == 0]
        faces.append((rays[0], rays[-1]))
    return faces


def face_normal_form(u, v):
    return cone_normal_form(Cone2(u, v)) if u != v else (1, 0)


def test_face_types_are_the_cone_normal_forms():
    """check_faces reads the coordinate faces of sigma' off the summands,
    the first one unshifted; they are the faces z = 0 and y = 0 of the
    Cone3 that sigma_prime builds over the shifted summand, whose normal
    forms (n, q) cone_normal_form gives, so the shear between the two is
    checked too.  For every deformation with n <= 20 the fiber chains'
    continuants (N, D) give these normal forms as (N, -D mod N),
    check_faces accepts them as continuants (n, n - q), and it rejects
    (n + 1, n - q) on either face."""
    for model in iter_models(20):
        for df in all_deformations(model):
            faces = tuple(face_normal_form(u, v) for u, v in sigma_prime_faces(df))
            types = fibers.fiber_types(model, df.decomp)
            expected = tuple((N, -D % N) if N > 1 else (1, 0) for N, D in types)
            assert expected == faces, df.decomp.label
            as_types = [(n, n - q) for n, q in faces]
            fibers.check_faces(df.decomp, tuple(as_types))
            for i, (n, d) in enumerate(as_types):
                wrong = list(as_types)
                wrong[i] = (n + 1, d)
                with pytest.raises(InvariantError, match=re.escape(df.decomp.label)):
                    fibers.check_faces(df.decomp, tuple(wrong))


def test_face_congruence_matches_pair_normal_form():
    """The face congruence agrees with the normal form that the extended
    gcd gives (pair_normal_form) on all 44,808 faces of sigma' of the
    22,404 deformations with n <= 60: face_is accepts (n, q) for the rays
    in either order and scaled, rejects (n, q + 1) and (n, q - 1) when
    n > 1, rejects (n + 1, q), and rejects a smooth type (1, 0) for a
    singular face.  Coinciding rays span a smooth face, opposite ones
    none."""
    faces = 0
    for model in iter_models(60):
        for df in all_deformations(model):
            for (ux, uy), (vx, vy) in sigma_prime_faces(df):
                n, q = pair_normal_form((ux, uy), (vx, vy))
                assert face_is(ux, uy, vx, vy, n, q), df.decomp.label
                assert face_is(3 * vx, 3 * vy, 2 * ux, 2 * uy, n, q), df.decomp.label
                assert not face_is(ux, uy, vx, vy, n + 1, q), df.decomp.label
                if n > 1:
                    assert not face_is(ux, uy, vx, vy, n, q + 1), df.decomp.label
                    assert not face_is(ux, uy, vx, vy, n, q - 1), df.decomp.label
                    assert not face_is(ux, uy, vx, vy, 1, 0), df.decomp.label
                faces += 1
    assert faces == 44808
    assert face_is(2, 4, 1, 2, 1, 0) and face_is(1, 0, 0, 3, 1, 0)
    assert not face_is(2, -4, -1, 2, 1, 0) and not face_is(1, 0, 0, 3, 3, 0)


def test_is_smoothing_expands_no_chain(monkeypatch):
    """is_smoothing reads the continuants and expands no chain: with
    cf_expand patched to raise in cqsdef.fibers, the 74 scan rows with n
    in 28..31 still work and equal the unpatched rows, while
    general_fiber, which does expand, raises."""
    models = list(iter_models(31, 28))
    expected = [scan_row(model.n, model.q) for model in models]

    def refuse(num, den):
        raise AssertionError(f"expanded {num}/{den}")

    monkeypatch.setattr(fibers, "cf_expand", refuse)
    rows = [scan_row(model.n, model.q) for model in models]
    assert len(rows) == 74 and not any("error" in row for row in rows)
    assert rows == expected
    with pytest.raises(AssertionError, match="expanded"):
        fiber_table(cqs_new(8, 3))


def test_scan_rows_build_no_deformation(monkeypatch):
    """A scan row counts its smoothings over the decompositions, keyed as
    is_smoothing is: with both constructors of Deformation patched to
    raise, the 74 scan rows with n in 28..31 still work and equal the
    unpatched rows."""
    models = list(iter_models(31, 28))
    expected = [scan_row(model.n, model.q) for model in models]

    def refuse(*args):
        raise AssertionError("built a Deformation")

    monkeypatch.setattr(Deformation, "__new__", staticmethod(refuse))
    monkeypatch.setattr(Deformation, "_make", classmethod(refuse))
    y83 = cqs_new(8, 3)
    for build in (
        lambda: all_deformations(y83),
        lambda: Deformation(y83, enum_decompositions(y83)[0]),
    ):
        with pytest.raises(AssertionError, match="built a Deformation"):
            build()
    rows = [scan_row(model.n, model.q) for model in models]
    assert len(rows) == 74 and not any("error" in row for row in rows)
    assert rows == expected


def test_smoothing_pattern_check_survives_optimize():
    """With both routes forced to a smooth point, the four deformations
    of Y(8,3) at h = 3 other than pi_{3,2}^1 break the smoothing pattern,
    in general_fiber, in is_smoothing and in general_fiber again."""
    code = (
        "import sys\n"
        "from cqsdef import fibers\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.totalspace import all_deformations\n"
        "fibers.fiber_types = lambda model, dec: ((1, 0), (1, 0))\n"
        "fibers.check_faces = lambda dec, types: None\n"
        "for df in all_deformations(cqs_new(8, 3)):\n"
        "    smoothing = lambda defo: fibers.is_smoothing(*defo)\n"
        "    for call in (fibers.general_fiber, smoothing, fibers.general_fiber):\n"
        "        try:\n"
        "            call(df)\n"
        "        except InvariantError as exc:\n"
        "            print(sys.flags.optimize, exc)\n"
    )
    lines = run_optimized("-c", code).stdout.decode().splitlines()
    assert lines == [
        f"1 {label} is a smoothing outside the expected pattern"
        for label in ("pi_{3,1}^1", "pi_{3,1}^2", "pibar_{3}^1", "pibar_{3}^2")
        for _ in range(3)
    ]


def test_negative_continuant_check_survives_optimize():
    """With the fiber chains' continuants forced to N = -1 at the origin
    and the face check passed over, every deformation of Y(8,3) fails the
    check for a negative continuant, in general_fiber, in is_smoothing
    and in general_fiber again."""
    code = (
        "import sys\n"
        "from cqsdef import fibers\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.totalspace import all_deformations\n"
        "fibers.fiber_types = lambda model, dec: ((-1, 0), (3, 1))\n"
        "fibers.check_faces = lambda dec, types: None\n"
        "for df in all_deformations(cqs_new(8, 3)):\n"
        "    smoothing = lambda defo: fibers.is_smoothing(*defo)\n"
        "    for call in (fibers.general_fiber, smoothing, fibers.general_fiber):\n"
        "        try:\n"
        "            call(df)\n"
        "        except InvariantError as exc:\n"
        "            print(sys.flags.optimize, exc)\n"
    )
    lines = run_optimized("-c", code).stdout.decode().splitlines()
    labels = [df.decomp.label for df in all_deformations(cqs_new(8, 3))]
    assert len(labels) == 7
    assert lines == [
        f"1 {label}: a fiber chain has continuant -1 < 0" for label in labels for _ in range(3)
    ]
