import math

from cqsdef.chains import enumerate_K
from cqsdef.geometry3 import dot3
from cqsdef.report import build_report
from cqsdef.totalspace import (
    Poly,
    all_deformations,
    components_of,
    deformation_equations,
    generator_relations,
    nu_count,
    versal_map,
)
from conftest import (
    iter_models,
    lies_in_component,
    poly_mul,
    poly_pow,
    rdp_chain,
    run_optimized,
    theta_rewrite,
    zero_chain,
)


def defo_by_label(model, label):
    for df in all_deformations(model):
        if df.decomp.label == label:
            return df
    raise KeyError(label)


def test_sigma_prime_ray_counts(y83):
    assert len(defo_by_label(y83, "pi_{3,2}^1").sigma_prime.generators) == 3
    # pd strictly below the slice length leaves two distinct top endpoints
    assert len(defo_by_label(y83, "pi_{3,1}^1").sigma_prime.generators) == 4
    assert len(defo_by_label(y83, "pi_{2,1}^1").sigma_prime.generators) == 4


def test_phi_maps_into_sigma_prime():
    for m in iter_models(20):
        for df in all_deformations(m):
            dual = df.sigma_prime.dual_rays
            for ray in (m.sigma.ray1, m.sigma.ray2):
                img = df.phi(ray)
                assert all(
                    sum(r[i] * img[i] for i in range(3)) >= 0 for r in dual
                )


def test_slice_embedding_check_survives_optimize():
    """Under python -O, a phi that sends the ray (-q, n) of sigma to its
    negative, outside sigma', fails the check on the first read of
    sigma_prime, and analyze turns that into exit 2."""
    code = (
        "import sys\n"
        "from cqsdef.lattice import InvariantError\n"
        "import cqsdef.cli\n"
        "from cqsdef.cqs import cqs_new\n"
        "from cqsdef.totalspace import Deformation, all_deformations\n"
        "phi = Deformation.phi\n"
        "def bad_phi(self, v):\n"
        "    x, y, z = phi(self, v)\n"
        "    return (-x, -y, -z) if v == self.model.sigma.ray2 else (x, y, z)\n"
        "Deformation.phi = bad_phi\n"
        "df = all_deformations(cqs_new(8, 3))[0]\n"
        "try:\n"
        "    df.sigma_prime\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
        "sys.exit(cqsdef.cli.main(['analyze', '8', '3', '--json']))\n"
    )
    proc = run_optimized("-c", code, check=False)
    assert proc.returncode == 2
    assert proc.stdout.decode() == "pi_{2,1}^1: slice embedding left the cone\n"
    assert proc.stderr.decode() == (
        "internal invariant failure: InvariantError: pi_{2,1}^1: slice embedding left the cone\n"
    )


def test_relation_lift_and_dual_cone_checks_survive_optimize():
    """Under python -O, generator_relations rejects equations that do not
    fit the lattice: a binomial exponent one too high above h fails its
    relation, one below h lifts v^1 out of the dual cone, and a main
    equation with d one too high misses the lifts at h-1, h and h+1.
    Each message names the deformation, and analyze exits 2."""
    code = (
        "import sys\n"
        "import cqsdef.cli\n"
        "import cqsdef.totalspace as ts\n"
        "from cqsdef.lattice import InvariantError\n"
        "from cqsdef.cqs import cqs_new\n"
        "equations = ts.deformation_equations\n"
        "def patched(label, i, da, dd):\n"
        "    def eqs(defo):\n"
        "        out = list(equations(defo))\n"
        "        if defo.decomp.label == label:\n"
        "            form, i_, a, m, p, d = out[i - 2]\n"
        "            out[i - 2] = ts.Equation(form, i_, a + da, m, p, d + dd)\n"
        "        return tuple(out)\n"
        "    return eqs\n"
        "m = cqs_new(8, 3)\n"
        "defos = {df.decomp.label: df for df in ts.all_deformations(m)}\n"
        "for label, i, da, dd in [('pi_{2,1}^1', 3, 1, 0), ('pi_{3,1}^1', 2, 1, 0),\n"
        "                         ('pibar_{3}^1', 3, 0, 1)]:\n"
        "    ts.deformation_equations = patched(label, i, da, dd)\n"
        "    try:\n"
        "        ts.generator_relations(defos[label])\n"
        "    except InvariantError as exc:\n"
        "        print(sys.flags.optimize, exc)\n"
        "sys.exit(cqsdef.cli.main(['analyze', '8', '3', '--json']))\n"
    )
    proc = run_optimized("-c", code, check=False)
    assert proc.stdout.decode().splitlines() == [
        "1 pi_{2,1}^1: relation v2 + v4 = 4 v3 fails: (3, 0, 0) != (4, 0, 0)",
        "1 pi_{3,1}^1: v^1 is not in the dual cone",
        "1 pibar_{3}^1: v^2, v^3, v^4 are not the lifts",
    ]
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        "internal invariant failure: InvariantError: pibar_{3}^1: "
        "v^2, v^3, v^4 are not the lifts\n"
    )


def test_lambda_monomial_metadata(y83):
    """The parameter is the difference of the monomials of degrees
    (0, 0, 1) and (0, p, 0): both are regular on sigma', and they agree on
    the image of phi, the special fiber."""
    df = defo_by_label(y83, "pi_{3,2}^1")
    lam = ((0, 0, 1), (0, df.decomp.p, 0))
    assert lam == ((0, 0, 1), (0, 2, 0))
    for ray in (y83.sigma.ray1, y83.sigma.ray2):
        assert dot3(lam[0], df.phi(ray)) == dot3(lam[1], df.phi(ray))
    assert all(dot3(u, g) >= 0 for u in lam for g in df.sigma_prime.generators)


def test_generator_relations_anchors(y83):
    for df in all_deformations(y83):
        gr = generator_relations(df)
        _, h, p, d, _, _ = df.decomp
        assert gr.v[h - 1] == (0, 1, 0)
        assert gr.v_tilde == (0, 0, 1)
        assert gr.v[h] == (1, 0, 0)
        assert gr.v[h - 2] == (-1, y83.a(h) - p * d, d)


def test_generator_relations_all_models():
    for m in iter_models(18):
        for df in all_deformations(m):
            gr = generator_relations(df)  # relations verified internally
            assert len(gr.v) == m.e


def test_equations_golden_pi32(y83):
    df = defo_by_label(y83, "pi_{3,2}^1")
    eqs = [str(e) for e in deformation_equations(df)]
    assert eqs == [
        "x1*x3 = x2^2",
        "x2*x4 = x3^1*(x3^2 + lam)^1",
        "x3*x5 = x4^2",
    ]


def test_equations_golden_pibar1(y83):
    df = defo_by_label(y83, "pibar_{3}^1")
    eqs = [str(e) for e in deformation_equations(df)]
    assert eqs == [
        "x1*(x3 + lam) = x2^2",
        "x2*x4 = x3^2*(x3 + lam)^1",
        "x3*x5 = x4^2",
    ]


def test_lambda_zero_specialization():
    for m in iter_models(15):
        for df in all_deformations(m):
            eqs = deformation_equations(df)
            assert len(eqs) == m.e - 2
            # at lam = 0 the main equation's exponents add up to a_h
            assert [(e.i, e.m + e.p * e.d if e.form == "main" else e.a) for e in eqs] == [
                (i, m.a(i)) for i in m.interior_indices()
            ]


def test_versal_map_examples(y83):
    vm = versal_map(defo_by_label(y83, "pi_{3,1}^2"))
    assert vm.s[(3, 1)] == Poly.lam(2, 1)
    assert vm.s[(3, 2)] == Poly.lam(1, 2)
    assert not vm.t

    vm = versal_map(defo_by_label(y83, "pibar_{3}^2"))
    assert vm.t[3] == Poly.lam()
    assert vm.s[(3, 1)] == Poly.lam(1, 1)

    vm = versal_map(defo_by_label(y83, "pi_{2,1}^1"))
    assert vm.s == {(2, 1): Poly.lam()}


def test_versal_map_is_the_expanded_main_equation():
    """For every deformation with n <= 60, the s coefficients of the
    versal map are those of x^m (x^p + lam)^(d - bar) below its top
    degree, with bar = 1 for the barred kind, whose one factor x + lam
    is t_h = lam instead.  The expansion is repeated Poly multiplication
    in one variable z, with x = z^B and lam = z for a B above every
    power of lam, so that z^(B*i + l) stands for x^i lam^l."""
    count = 0
    for m in iter_models(60):
        for df in all_deformations(m):
            main = deformation_equations(df)[df.decomp.h - 2]
            bar = 1 if df.decomp.kind == "Dbar" else 0
            k = main.d - bar
            base = k + 1
            factor = poly_pow(Poly({base * main.p: 1, 1: 1}), k)
            poly = poly_mul(Poly.lam(1, base * main.m), factor)
            top = main.m + main.p * k
            terms: dict[int, dict[int, int]] = {}
            for power, c in poly.coeffs:
                i, l = divmod(power, base)
                if i < top:
                    terms.setdefault(top - i, {})[l] = c
            vm = versal_map(df)
            assert vm.s == {(main.i, j): Poly(lam) for j, lam in terms.items()}, df.decomp.label
            assert vm.t == ({main.i: Poly.lam()} if bar else {}), df.decomp.label
            count += 1
    assert count == 22404


def test_theta_identity_for_plain_kind(y83):
    for label in ("pi_{3,1}^1", "pi_{2,1}^1", "pi_{3,2}^1"):
        df = defo_by_label(y83, label)
        vm = versal_map(df)
        for k in enumerate_K(y83):
            out = theta_rewrite(k, vm, y83)
            assert out.s == vm.s and out.t == vm.t


def test_theta_rewrite_barred(y83):
    """After the coordinate change the barred map reads C(d - alpha, l)."""
    k = zero_chain((2, 1, 2))  # alpha_2 = 1 ... alpha_3 = 2
    df = defo_by_label(y83, "pibar_{3}^2")
    out = theta_rewrite(k, versal_map(df), y83)
    a_prev = k.alpha_at(2)
    d = df.decomp.d
    for l in range(1, y83.a(3)):
        assert out.s.get((3, l), Poly({})) == Poly.lam(math.comb(d - a_prev, l), l)


def test_theta_rewrite_below_alpha_threshold():
    """With d < alpha_{h-1} the solved coordinates keep nonzero tails in
    every degree, so the chain is correctly excluded."""
    from cqsdef.cqs import cqs_new

    m = cqs_new(11, 3)
    zc = next(k for k in enumerate_K(m) if k.k == (2, 1, 3, 1))
    assert zc.alpha_at(3) == 2  # position before h = 4
    df = defo_by_label(m, "pibar_{4}^1")  # d = 1 < alpha_3
    rewritten = theta_rewrite(zc, versal_map(df), m)
    assert not lies_in_component(zc, rewritten, m)
    assert zc not in components_of(df.model, df.decomp)
    # but the chain is reached once d clears the threshold
    df2 = defo_by_label(m, "pibar_{4}^2")
    assert zc in components_of(df2.model, df2.decomp)
    assert lies_in_component(zc, theta_rewrite(zc, versal_map(df2), m), m)


def test_vandermonde_identity():
    for d in range(1, 9):
        for alpha in range(1, d + 1):
            for l in range(0, d):
                lhs = math.comb(d - 1, l)
                rhs = sum(
                    math.comb(alpha - 1, j) * math.comb(d - alpha, l - j)
                    for j in range(0, min(alpha - 1, l) + 1)
                )
                assert lhs == rhs


def test_lies_in_component_golden(y83):
    k_non_artin = zero_chain((2, 1, 2))
    cases = {
        "pi_{3,1}^1": True,
        "pi_{2,1}^1": False,  # s_2^(1) != 0 while a_2 - k_2 = 0
        "pibar_{3}^1": False,  # t_3 != 0 while alpha_3 = 2
    }
    for label, expected in cases.items():
        df = defo_by_label(y83, label)
        rewritten = theta_rewrite(k_non_artin, versal_map(df), y83)
        assert lies_in_component(k_non_artin, rewritten, y83) is expected


def test_components_golden(y83):
    expect = {
        "pi_{2,1}^1": [(1, 2, 1)],
        "pi_{3,1}^1": [(1, 2, 1), (2, 1, 2)],
        "pi_{3,1}^2": [(2, 1, 2)],
        "pi_{3,2}^1": [(2, 1, 2)],
        "pibar_{3}^1": [(1, 2, 1)],
        "pibar_{3}^2": [(1, 2, 1)],
        "pi_{4,1}^1": [(1, 2, 1)],
    }
    for df in all_deformations(y83):
        assert [k.k for k in components_of(df.model, df.decomp)] == expect[df.decomp.label]


def test_every_deformation_has_a_component_and_artin_closure():
    for m in iter_models(25):
        ks = enumerate_K(m)
        rdp = rdp_chain(m.e)
        for df in all_deformations(m):
            comps = components_of(df.model, df.decomp)
            assert comps
            _, h, p, d, _, _ = df.decomp
            if any(p * d < m.a(h) - k.k_at(h) for k in comps):
                assert rdp in [k.k for k in comps]


def test_nu_count_examples(y83):
    k1 = zero_chain((1, 2, 1))
    k2 = zero_chain((2, 1, 2))
    assert nu_count(y83, k1, 3, 1) == 3
    assert nu_count(y83, k2, 3, 1) == 2
    assert nu_count(y83, k2, 2, 1) == 0


def test_component_separation():
    """For distinct chains there are deformations telling them apart."""
    for m in iter_models(20):
        ks = enumerate_K(m)
        defos = all_deformations(m)
        memberships = {
            df.decomp.label: {k.k for k in components_of(df.model, df.decomp)} for df in defos
        }
        for i, k1 in enumerate(ks):
            for k2 in ks[i + 1 :]:
                found_1_not_2 = any(
                    k1.k in mem and k2.k not in mem for mem in memberships.values()
                )
                found_2_not_1 = any(
                    k2.k in mem and k1.k not in mem for mem in memberships.values()
                )
                assert found_1_not_2 and found_2_not_1, (m.n, m.q, k1.k, k2.k)


def test_deformation_json(y83):
    (js,) = [r for r in build_report(y83)["deformations"] if r["label"] == "pibar_{3}^1"]
    assert js["degree_display"] == [2, 2]


def test_integer_sigma_prime_matches_rational_rays():
    """sigma_prime is built, on first read, from the integer summand ends;
    the generators must be those from_rays gives for the Fraction rays."""
    from fractions import Fraction

    from cqsdef.geometry3 import Cone3
    from cqsdef.minkowski import enum_decompositions, segment
    from cqsdef.totalspace import build_deformation

    checked = 0
    for m in iter_models(30):
        for dec in enum_decompositions(m):
            df = build_deformation(m, dec)
            (b0, g0), (b1, g1) = ([Fraction(*r) for r in e] for e in (dec.ends0, dec.ends1))
            p, m0 = dec.p, segment(m, dec.h).m0
            b0, g0 = b0 + m0, g0 + m0
            rays = [
                (b0, Fraction(1), Fraction(0)),
                (g0, Fraction(1), Fraction(0)),
                (Fraction(b1) / p, Fraction(0), Fraction(1)),
                (Fraction(g1) / p, Fraction(0), Fraction(1)),
            ]
            assert df.sigma_prime == Cone3.from_rays(rays), (m.n, m.q, dec.label)
            checked += 1
    assert checked == 3455  # every decomposition with n <= 30
