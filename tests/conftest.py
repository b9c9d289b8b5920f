"""Shared fixtures and independent brute-force oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest

import cqsdef
from cqsdef.lattice import Cone2, InvariantError, _normal_form, _xgcd, cf_eval, ratio_text
from cqsdef.cqs import cqs_new
from cqsdef.chains import enumerate_K
from cqsdef.minkowski import Decomposition, segment
from cqsdef.resolutions import p_resolution_fan
from cqsdef.totalspace import Poly, VersalMap, versal_map
from cqsdef.geometry3 import (
    _facet_polygon_vertices,
    _simplices,
    box_points,
    cross3,
    dot3,
    dual_rays3,
    lattice_points_ineq,
    neg3,
    prim3,
    roof_facets,
    sub3,
)


def iter_models(n_max: int, n_min: int = 3):
    for n in range(n_min, n_max + 1):
        for q in range(1, n - 1):
            if gcd(n, q) == 1:
                yield cqs_new(n, q)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def pair_normal_form(u, v) -> tuple[int, int]:
    """cone_normal_form of the cone spanned by two nonzero lattice
    vectors, without building the Cone2: each is made primitive and the
    pair is ordered positively.  Two vectors that point the same way span
    a ray, which is smooth: (1, 0).  Opposite vectors raise ValueError.
    The oracle for fibers.face_is."""
    (a, b), (c, d) = u, v
    g, k = math.gcd(a, b), math.gcd(c, d)
    a, b, c, d = a // g, b // g, c // k, d // k
    if a * d < b * c:
        return _normal_form(c, d, a, b)
    if a == c and b == d:
        return 1, 0
    return _normal_form(a, b, c, d)


def brute_hilbert_basis_2d(cone: Cone2) -> set[tuple[int, int]]:
    """Irreducible lattice points of the cone, found by enumerating the
    fundamental parallelogram of the two primitive rays."""
    r1, r2 = cone.ray1, cone.ray2
    det = _det(r1, r2)

    def coeffs(v):
        return Fraction(_det(v, r2), det), Fraction(_det(r1, v), det)

    corners = [(0, 0), r1, r2, (r1[0] + r2[0], r1[1] + r2[1])]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    candidates = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) == (0, 0):
                continue
            a, b = coeffs((x, y))
            if 0 <= a <= 1 and 0 <= b <= 1:
                candidates.append((x, y))

    def in_cone(v) -> bool:
        a, b = coeffs(v)
        return a >= 0 and b >= 0

    basis = set()
    for v in candidates:
        reducible = any(w != v and in_cone((v[0] - w[0], v[1] - w[1])) for w in candidates)
        if not reducible:
            basis.add(v)
    return basis


def division_slice_frame(model, h):
    """The slice at w^h by a second route: a lattice point of the line
    <x, w^h> = 1 from the extended gcd, the direction (w2, -w1), a
    coordinate found by dividing by a nonzero component of the direction,
    and the integer shift that puts the leftmost lattice point of the
    slice at 0.  Returns (beta, gamma, origin, unit, coord), where coord
    maps a point of the line to its coordinate."""
    n, q = model.n, model.q
    w1, w2 = model.wgen(h)
    g, s, t = _xgcd(w1, w2)
    assert g == 1

    def from_base(pt) -> Fraction:
        if w2 != 0:
            return Fraction(pt[0] - s) / w2
        return Fraction(pt[1] - t) / -w1

    def at(c):
        """The point at coordinate c counted from the gcd base point."""
        return (s + c * w2, t - c * w1)

    denom = n * w2 - q * w1
    c_beta = from_base((Fraction(-q, denom), Fraction(n, denom)))
    c_gamma = from_base((Fraction(1, w1), Fraction(0)))
    shift = math.ceil(c_beta)

    def coord(pt) -> Fraction:
        c = from_base(pt)
        assert at(c) == pt, f"{pt} is not on the slicing line"
        return c - shift

    return c_beta - shift, c_gamma - shift, at(shift), at(shift + 1), coord


def decomposition_D(seg, p: int, d: int) -> Decomposition:
    """pi_{h,p}^d built alone from the slice: Q = (beta, gamma - p*d) +
    p*(0, d), for 0 <= p*d <= the slice length.  With decomposition_Dbar
    the per-decomposition oracle of the library's one-pass slice builder
    (minkowski._build_decompositions)."""
    h, (beta, (g, gd)), _, _, _ = seg
    pd = p * d
    num, den = seg.length_ratio
    if not (0 <= pd and pd * den <= num):
        raise ValueError(f"p*d = {pd} exceeds slice length {ratio_text(num, den)}")
    return Decomposition("D", h, p, d, (beta, (g - pd * gd, gd)), ((0, 1), (pd, 1)))


def decomposition_Dbar(seg, d: int) -> Decomposition:
    """pibar_h^d built alone from the slice: Q = (beta, E) + (0, gamma - E)
    with E = ceil(beta + #Q - d), for 1 <= d <= #Q."""
    cnt = seg.lattice_count
    if not 1 <= d <= cnt:
        raise ValueError(f"d = {d} out of range 1..{cnt}")
    h, ((b, bd), (g, gd)), _, _, _ = seg
    e_cut = -(-(b + (cnt - d) * bd) // bd)  # ceil(beta + cnt - d)
    return Decomposition("Dbar", h, 1, d, ((b, bd), (e_cut, 1)), ((0, 1), (g - e_cut * gd, gd)))


def brute_zero_chains(bounds) -> list[tuple[int, ...]]:
    """Filter the full product space by the defining conditions."""
    out = []
    for k in product(*[range(1, b + 1) for b in bounds]):
        val = cf_eval(k)
        if val != 0:
            continue
        alpha = [0, 1]
        for entry in k:
            alpha.append(entry * alpha[-1] - alpha[-2])
        if all(a >= 0 for a in alpha):
            out.append(k)
    return out


def blow_down_step(chain: tuple[int, ...], pos: int) -> tuple[int, ...]:
    """Remove the entry 1 at pos, decrementing its neighbours (interior)
    or the new boundary entry (boundary)."""
    if pos == 0:
        return (chain[1] - 1,) + chain[2:]
    if pos == len(chain) - 1:
        return chain[:-2] + (chain[-2] - 1,)
    return chain[: pos - 1] + (chain[pos - 1] - 1, chain[pos + 1] - 1) + chain[pos + 2 :]


def quadratic_blow_down_trace(chain):
    """Blow a chain down (leftmost 1 first) by rescanning the whole chain
    before every step; returns (normal form, [(chain, pos), ...], terminal
    chain), the normal form being None (an entry below 1), () (smooth) or
    the terminal chain."""
    cur = tuple(chain)
    trace = []
    while True:
        if any(c < 1 for c in cur):
            return None, trace, cur
        if cur in ((1,), (1, 1)) or len(cur) == 0:
            return (), trace, cur
        if 1 not in cur:
            return cur, trace, cur
        pos = cur.index(1)
        trace.append((cur, pos))
        cur = blow_down_step(cur, pos)


def brute_hilbert_basis_3d(gens) -> list[tuple[int, int, int]]:
    """Irreducible lattice points of a pointed full-dim 3D cone, found by
    scanning every lattice point below the zonotope height bound."""
    gens = [prim3(g) for g in gens]
    dual = dual_rays3(gens)
    psi = tuple(sum(r[i] for r in dual) for i in range(3))
    bound = sum(dot3(psi, g) for g in gens)
    ineqs = [(r, 0) for r in dual] + [(neg3(psi), -(bound - 1))]
    pts = [p for p in lattice_points_ineq(ineqs) if p != (0, 0, 0)]
    pts.sort(key=lambda p: (dot3(psi, p), p))
    basis = []
    for p in pts:
        if not any(
            dot3(psi, q) < dot3(psi, p) and all(dot3(r, sub3(p, q)) >= 0 for r in dual)
            for q in basis
        ):
            basis.append(p)
    return sorted(basis)


def _brute_polytope_facets(points):
    """Inward facet inequalities (a, b): <a, x> >= b of conv(points)."""
    facets = set()
    pts = list(dict.fromkeys(points))
    for p0, p1, p2 in combinations(pts, 3):
        nrm = cross3(sub3(p1, p0), sub3(p2, p0))
        if nrm == (0, 0, 0):
            continue
        b = dot3(nrm, p0)
        sides = {(dot3(nrm, p) > b) - (dot3(nrm, p) < b) for p in pts}
        if {1, -1} <= sides:
            continue
        if -1 in sides:
            nrm, b = neg3(nrm), -b
        g = gcd(gcd(gcd(abs(nrm[0]), abs(nrm[1])), abs(nrm[2])), abs(b))
        facets.add(((nrm[0] // g, nrm[1] // g, nrm[2] // g), b // g))
    return sorted(facets)


def dot3_frac(a, b) -> Fraction:
    return Fraction(a[0]) * b[0] + Fraction(a[1]) * b[1] + Fraction(a[2]) * b[2]


def cramer_solve3(rows, rhs):
    """Cramer's rule for rows * x = rhs on integers: the numerators, each
    the determinant of the rows with one column replaced by rhs, and the
    determinant of the rows; None if it is 0."""
    det = dot3(rows[0], cross3(rows[1], rows[2]))
    if det == 0:
        return None

    def replaced(col):
        m = [list(r) for r in rows]
        for r in range(3):
            m[r][col] = rhs[r]
        return dot3(m[0], cross3(m[1], m[2]))

    return replaced(0), replaced(1), replaced(2), det


def fraction_gorenstein_functional(gens):
    """Rational u with <u, g> = 1 on every primitive generator, or None:
    Cramer's rule in Fractions on the first independent triple."""
    gens = [prim3(g) for g in gens]
    for a, b, c in combinations(gens, 3):
        det = dot3(a, cross3(b, c))
        if det:
            break
    else:
        raise ValueError("generators do not span 3-space")
    n1, n2, n3 = cross3(b, c), cross3(c, a), cross3(a, b)
    u = tuple(Fraction(n1[i] + n2[i] + n3[i], det) for i in range(3))
    return u if all(dot3_frac(u, g) == 1 for g in gens) else None


def brute_is_canonical(gens) -> bool:
    """Scan every lattice point of conv(0, gens) for one with u < 1."""
    gens = [prim3(g) for g in gens]
    u = fraction_gorenstein_functional(gens)
    if u is None:
        raise ValueError("generators are not on a single affine hyperplane")
    region = _brute_polytope_facets([(0, 0, 0)] + gens)
    return all(
        dot3_frac(u, p) >= 1 for p in lattice_points_ineq(region) if p != (0, 0, 0)
    )


def brute_roof_facets(gens):
    """Bounded facets of the hull of the nonzero lattice points of a cone,
    as (normal, offset, vertices): every plane through three Hilbert basis
    elements that supports them all with a normal positive on the cone."""
    gens = [prim3(g) for g in gens]
    hb = brute_hilbert_basis_3d(gens)
    found = {}
    for p0, p1, p2 in combinations(hb, 3):
        raw = cross3(sub3(p1, p0), sub3(p2, p0))
        if raw == (0, 0, 0):
            continue
        for nrm in (raw, neg3(raw)):
            b = dot3(nrm, p0)
            if b <= 0 or any(dot3(nrm, g) <= 0 for g in gens):
                continue
            if any(dot3(nrm, p) < b for p in hb):
                continue
            g = gcd(gcd(gcd(abs(nrm[0]), abs(nrm[1])), abs(nrm[2])), b)
            nrm, b = (nrm[0] // g, nrm[1] // g, nrm[2] // g), b // g
            if (nrm, b) not in found:
                on_plane = [p for p in hb if dot3(nrm, p) == b]
                found[(nrm, b)] = _facet_polygon_vertices(on_plane, nrm)
    return [(n, b, v) for (n, b), v in sorted(found.items())]


def hull_cone_ray_sets(cone) -> set:
    """Maximal cones of the bounded-face hull fan of cone, as primitive ray
    sets: the oracle for the wall certificate of canonical_model."""
    return {frozenset(prim3(v) for v in verts) for _, _, verts in roof_facets(cone)}


def hull_vertex_candidates(cone) -> set:
    """The candidates of the vertex lemma of roof_facets: the extremal rays
    of cone and the parallelepiped points of its simplices strictly below
    the plane through the simplex's generators (0 < level < d)."""
    cands = {g for _, a, b in cone.facets for g in (a, b)}
    for simplex in _simplices(cone):
        d, points = box_points(simplex)
        cands.update(x for x, level in points if 0 < level < d)
    return cands


def assert_hull_vertices_are_candidates(cone, facets) -> None:
    """Every vertex of facets, the brute-force roof facets of cone, is a
    candidate of the vertex lemma."""
    verts = {v for _, _, vs in facets for v in vs}
    assert verts <= hull_vertex_candidates(cone), sorted(verts - hull_vertex_candidates(cone))


def poly_sub(a: Poly, b: Poly, times: int) -> Poly:
    """a - times * b."""
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        out[e] = out.get(e, 0) - times * c
    return Poly(out)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: dict[int, int] = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return Poly(out)


def poly_pow(a: Poly, n: int) -> Poly:
    out = Poly({0: 1})
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def theta_rewrite(k, vm: VersalMap, model) -> VersalMap:
    """Express a parameter curve in the coordinates adapted to the
    component of k, by inverting the triangular substitution

        s_i^(l) -> sum_j C(alpha_{i-1}-1, j) t_i^j s_i^(l-j).

    Parameters not present in the result are zero."""
    s = {}
    for i in range(2, model.e):
        alpha_prev = k.alpha_at(i - 1)
        t_i = vm.t.get(i, Poly({}))
        solved = {0: Poly({0: 1})}
        for l in range(1, model.a(i)):
            val = vm.s.get((i, l), Poly({}))
            for j in range(1, min(l, alpha_prev - 1) + 1):
                term = poly_mul(poly_pow(t_i, j), solved[l - j])
                val = poly_sub(val, term, math.comb(alpha_prev - 1, j))
            solved[l] = val
            if val.coeffs:
                s[(i, l)] = val
    return VersalMap(s, dict(vm.t))


def lies_in_component(k, rewritten: VersalMap, model) -> bool:
    """Component equations in the adapted coordinates: s_i^(l) = 0 for
    l > a_i - k_i, and t_i = 0 wherever alpha_i != 1."""
    for i in range(2, model.e):
        for l in range(model.a(i) - k.k_at(i) + 1, model.a(i)):
            if rewritten.s.get((i, l), Poly({})).coeffs:
                return False
    for j in range(3, model.e - 1):
        if k.alpha_at(j) != 1 and rewritten.t.get(j, Poly({})).coeffs:
            return False
    return True


def components_of_symbolic(defo) -> list:
    """Component membership through the versal map and the coordinate
    change, reading no split_depth: criterion 3's oracle for
    components_of."""
    vm = versal_map(defo)
    return [
        k
        for k in enumerate_K(defo.model)
        if lies_in_component(k, theta_rewrite(k, vm, defo.model), defo.model)
    ]


def lattice_points_right(model, k, h: int) -> int:
    """Number of slice lattice points strictly to the right of the cone at
    index h, counted geometrically: the oracle for alpha_{h-1} - 1 in
    split_depth's Dbar rule."""
    if not 3 <= h <= model.e - 2:
        raise ValueError(f"h = {h} not interior (3..{model.e - 2})")
    if k.alpha_at(h) != 1:
        raise ValueError(f"alpha_{h} = {k.alpha_at(h)} != 1")
    fan = p_resolution_fan(model, k)
    seg = segment(model, h)
    num, den = seg.coord(fan.cone_at(h).ray_right)
    if num % den:
        raise InvariantError(
            f"the right end {ratio_text(num, den)} of tau_{h} is not a lattice point"
        )
    g, gd = seg.ends[1]
    return g // gd - num // den


def run_optimized(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run python -O with the given arguments on this checkout of cqsdef;
    stdout and stderr are captured as bytes, and with check a nonzero exit
    status raises."""
    src = str(Path(cqsdef.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
        check=check,
    )


@pytest.fixture(scope="session")
def y83():
    return cqs_new(8, 3)
