"""Exact 3D lattice geometry: pointed cones, dual rays, Hilbert bases,
Gorenstein hyperplanes, canonicity, and the bounded-face hull over a
cone's lattice points.

A cone is a `Cone3`: its generators, normalised once when it is built,
and its dual rays and which two generators span each facet, which both
constructors fill; the facets and the Gorenstein functional, as
integers, are computed on first use and kept on the instance.

One primitive carries the lattice work: the lattice points of the
half-open parallelepiped of a simplicial cone, enumerated as the finite
group Z^3 / G Z^3 of their numerator vectors (`_box_group`) and turned
into points by `box_points`.  Cones are cut into simplicial cones by
fanning out from one ray; Hilbert bases are read off the parallelepiped
points and canonicity off the numerators alone, and the bounded facets
of the hull are found by gift wrapping over the extremal rays and the
parallelepiped points below the plane through the generators of their
simplex (`_low_box_points`), with no Hilbert basis reduction.
`lattice_points_ineq` enumerates the integer points of a bounded
polyhedron by scanning its bounding box.

Vectors are plain integer 3-tuples; rational points are cleared to
integer vectors before any cone is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .lattice import Ratio
from .record import Record

IVec3 = tuple[int, int, int]


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def add3(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def neg3(a):
    return (-a[0], -a[1], -a[2])


def cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def prim3(v: Sequence[int]) -> IVec3:
    x, y, z = v
    g = math.gcd(x, y, z)
    if g == 0:
        raise ValueError("zero vector")
    return (x // g, y // g, z // g)


def prim3_rational(v) -> IVec3:
    """Primitive integer vector on the ray through a rational point."""
    fs = [Fraction(c) for c in v]
    m = 1
    for f in fs:
        m = m * f.denominator // math.gcd(m, f.denominator)
    return prim3([int(f * m) for f in fs])


def dual_rays3(gens: Sequence[IVec3]) -> list[IVec3]:
    """Extremal rays of the dual of a full-dimensional pointed cone,
    i.e. its inward primitive facet normals."""
    rays: set[IVec3] = set()
    n = len(gens)
    for i, j in combinations(range(n), 2):
        nrm = cross3(gens[i], gens[j])
        if nrm == (0, 0, 0):
            continue
        pos = neg = False
        for k in range(n):
            s = dot3(nrm, gens[k])
            pos = pos or s > 0
            neg = neg or s < 0
        if pos and neg:
            continue
        if not pos and not neg:
            raise ValueError("cone is not full-dimensional")
        rays.add(prim3(nrm if pos else neg3(nrm)))
    if len(rays) < 3:
        raise ValueError("cone is not full-dimensional or not pointed")
    return sorted(rays)


def _solve3_int(rows, rhs):
    """Cramer numerators and denominator for rows * x = rhs; None if
    singular.  The solution is (nx/den, ny/den, nz/den) with den != 0.

    With rows a, b, c the numerators are those of the adjugate form
    x = (r0 * b x c + r1 * c x a + r2 * a x b) / det(a, b, c)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    r0, r1, r2 = rhs
    bc0, bc1, bc2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    det = a0 * bc0 + a1 * bc1 + a2 * bc2
    if det == 0:
        return None
    ca0, ca1, ca2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    ab0, ab1, ab2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return (
        r0 * bc0 + r1 * ca0 + r2 * ab0,
        r0 * bc1 + r1 * ca1 + r2 * ab1,
        r0 * bc2 + r1 * ca2 + r2 * ab2,
        det,
    )


def lattice_points_ineq(ineqs: Sequence[tuple[IVec3, int]]) -> list[IVec3]:
    """All integer points of the bounded polyhedron {u : <a,u> >= b}.

    Vertex enumeration fixes the (x, y) bounding ranges; the z-interval at
    each (x, y) comes from integer ceiling/floor divisions, so the scan
    itself runs on plain integers.
    """
    verts = []
    for trip in combinations(range(len(ineqs)), 3):
        rows = [ineqs[t][0] for t in trip]
        rhs = [ineqs[t][1] for t in trip]
        sol = _solve3_int(rows, rhs)
        if sol is None:
            continue
        nx, ny, nz, den = sol
        if den < 0:
            nx, ny, nz, den = -nx, -ny, -nz, -den
        if all(nx * a[0] + ny * a[1] + nz * a[2] >= b * den for a, b in ineqs):
            verts.append((nx, ny, den))
    if not verts:
        return []

    def ceil_div(p, q):
        return -((-p) // q)

    x_lo = min(ceil_div(v[0], v[2]) for v in verts)
    x_hi = max(v[0] // v[2] for v in verts)
    y_lo = min(ceil_div(v[1], v[2]) for v in verts)
    y_hi = max(v[1] // v[2] for v in verts)
    if any(a[2] > 0 for a, _ in ineqs) != any(a[2] < 0 for a, _ in ineqs):
        raise ValueError("polyhedron is unbounded in z")
    out: list[IVec3] = []
    rows_int = [(a[0], a[1], a[2], b) for a, b in ineqs]
    for x in range(x_lo, x_hi + 1):
        for y in range(y_lo, y_hi + 1):
            z_lo, z_hi = None, None
            feasible = True
            for a0, a1, a3, b in rows_int:
                c = b - a0 * x - a1 * y
                if a3 == 0:
                    if c > 0:
                        feasible = False
                        break
                elif a3 > 0:
                    lo = -((-c) // a3)
                    if z_lo is None or lo > z_lo:
                        z_lo = lo
                else:
                    hi = c // a3
                    if z_hi is None or hi < z_hi:
                        z_hi = hi
            if not feasible:
                continue
            if z_lo is None or z_hi is None:
                raise ValueError("polyhedron is unbounded")
            for z in range(z_lo, z_hi + 1):
                out.append((x, y, z))
    return out


class Cone3(Record):
    """A pointed full-dimensional 3D cone given by distinct primitive
    integral generators, its dual rays, the inward primitive facet
    normals, sorted, and spans: for each dual ray, in the same order, the
    indices (i, j), i < j, of the two extremal generators that span its
    facet.  Equality and hashing read the generators alone, which
    determine the rest.  The facets and the Gorenstein functional are
    computed once per instance, on first use."""

    def __new__(
        cls,
        generators: tuple[IVec3, ...],
        dual_rays: tuple[IVec3, ...],
        spans: tuple[tuple[int, int], ...],
    ):
        return tuple.__new__(cls, (generators, dual_rays, spans))

    def __eq__(self, other):
        return type(other) is Cone3 and self.generators == other.generators

    def __hash__(self):
        return hash((self.generators,))

    @classmethod
    def from_rays(cls, rays: Sequence[Sequence]) -> "Cone3":
        """The cone over rational rays, each replaced by its primitive
        integer vector, duplicates dropped in order.  Its dual rays and
        spans are derived from the generators."""
        gens = tuple(dict.fromkeys(prim3_rational(tuple(r)) for r in rays))
        dual = tuple(dual_rays3(gens))
        return cls(generators=gens, dual_rays=dual, spans=_spans(gens, dual))

    @classmethod
    def over_summands(
        cls, ends0: tuple[Ratio, Ratio], ends1: tuple[Ratio, Ratio], p: int, m0: int
    ) -> "Cone3":
        """The cone over the interval s0 + m0 at height (1, 0) and s1/p at
        height (0, 1), each interval given by its two ends as integer
        ratios (numerator, denominator) with positive denominators.  The
        integer m0 moves s0 from the slice's coordinate into the first
        coordinate <v, w^{h+1}> of the total space (Segment.m0).

        Its generators are the primitive vectors of a = (beta0 + m0, 1, 0),
        b = (gamma0 + m0, 1, 0), c = (beta1/p, 0, 1) and d = (gamma1/p, 0, 1),
        without duplicates and in that order: what from_rays gives for
        these rays.  Its dual rays and spans are known in closed form and
        stored sorted: the inward normals d x b and a x c of the two
        slanted facets, spanned by b, d and by a, c; (0, 0, 1), of the
        facet spanned by a and b, when a != b; and (0, 1, 0), of the facet
        spanned by c and d, when c != d.  When a = b, the facet of d x b is
        spanned by a and d; when c = d, by b and c.
        """
        (b0, bd0), (g0, gd0) = ends0
        (b1, bd1), (g1, gd1) = ends1
        b0, g0, bd1, gd1 = b0 + m0 * bd0, g0 + m0 * gd0, bd1 * p, gd1 * p
        # Each generator has a zero coordinate and a positive one, so a
        # two-term gcd makes it primitive; a and b (y > 0) never equal c
        # or d (y = 0).
        ka, kb, kc, kd = math.gcd(b0, bd0), math.gcd(g0, gd0), math.gcd(b1, bd1), math.gcd(g1, gd1)
        ax, ay, bx, by = b0 // ka, bd0 // ka, g0 // kb, gd0 // kb
        cx, cz, dx, dz = b1 // kc, bd1 // kc, g1 // kd, gd1 // kd
        a, b, c, d = (ax, ay, 0), (bx, by, 0), (cx, 0, cz), (dx, 0, dz)
        # d x b = (-dz by, dz bx, dx by) and a x c = (ay cz, -ax cz, -ay cx).
        # As gcd(bx, by) = gcd(dx, dz) = 1, the gcd of d x b is gcd(dz, by),
        # and likewise that of a x c is gcd(cz, ay); dz and cz are positive.
        k = math.gcd(dz, by)
        db = (-dz * by // k, dz * bx // k, dx * by // k)  # first coordinate < 0
        k = math.gcd(cz, ay)
        ac = (ay * cz // k, -ax * cz // k, -ay * cx // k)  # first coordinate > 0
        if a != b and c != d:
            gens, dual = (a, b, c, d), (db, (0, 0, 1), (0, 1, 0), ac)
            spans = ((1, 3), (0, 1), (2, 3), (0, 2))
        elif a != b:
            gens, dual = (a, b, c), (db, (0, 0, 1), ac)
            spans = ((1, 2), (0, 1), (0, 2))
        elif c != d:
            gens, dual = (a, c, d), (db, (0, 1, 0), ac)
            spans = ((0, 2), (1, 2), (0, 1))
        else:
            raise ValueError("cone is not full-dimensional")
        return cls(generators=gens, dual_rays=dual, spans=spans)

    @cached_property
    def facets(self) -> tuple[tuple[IVec3, IVec3, IVec3], ...]:
        """Each facet as (inward normal, ray a, ray b), a and b being the
        two extremal generators that span it, in generator order; one
        facet per dual ray, in the same order."""
        gens = self.generators
        return tuple((r, gens[i], gens[j]) for r, (i, j) in zip(self.dual_rays, self.spans))

    @cached_property
    def gorenstein_ratio(self) -> Optional[tuple[int, int, int, int]]:
        """The rational u with <u, g> = 1 for every generator as integers
        (nx, ny, nz, den), u = (nx, ny, nz) / den in lowest terms with
        den > 0, or None.

        Existence of u is the Q-Gorenstein condition for the affine toric
        variety of the cone.
        """
        gens = self.generators
        for trip in combinations(gens, 3):
            sol = _solve3_int(trip, (1, 1, 1))
            if sol is not None:
                break
        else:
            # All generators coplanar through 0: not a full-dim cone.
            raise ValueError("generators do not span 3-space")
        nx, ny, nz, den = sol
        if not all(nx * g[0] + ny * g[1] + nz * g[2] == den for g in gens):
            return None
        k = math.gcd(nx, ny, nz, den)
        if den < 0:
            k = -k
        return nx // k, ny // k, nz // k, den // k

    def contains(self, p: IVec3) -> bool:
        x, y, z = p
        return all(r0 * x + r1 * y + r2 * z >= 0 for r0, r1, r2 in self.dual_rays)

    def to_json(self) -> list[list[int]]:
        return [list(g) for g in self.generators]


def _spans(gens: Sequence[IVec3], dual: Sequence[IVec3]) -> tuple[tuple[int, int], ...]:
    """The generic derivation of Cone3.spans: for each dual ray of the cone
    over gens, the indices of the two extremal generators it vanishes on."""
    rays = [i for i, g in enumerate(gens) if sum(dot3(r, g) == 0 for r in dual) >= 2]
    out = []
    for r in dual:
        i, j = (k for k in rays if dot3(r, gens[k]) == 0)
        out.append((i, j))
    return tuple(out)


def _simplices(cone: Cone3) -> list[tuple[IVec3, IVec3, IVec3]]:
    """Simplicial cones triangulating the cone: one extremal ray joined
    to every facet that does not contain it."""
    facets = cone.facets
    apex = facets[0][1]
    return [(apex, a, b) for r, a, b in facets if dot3(r, apex) != 0]


def _box_group(simplex: Sequence[IVec3]) -> tuple[int, list[IVec3]]:
    """d = |det(g_1, g_2, g_3)| and the numerator vectors nu of the lattice
    points x = sum (nu_i / d) g_i of the half-open parallelepiped of a
    simplicial cone with linearly independent generators g_i.

    The points are the group Z^3 / G Z^3, of order d, so the nu form the
    subgroup of (Z/d)^3 generated by the images of the unit vectors,
    built coset by coset until it has d members; a point's level,
    d * sum(l_i), is sum(nu).
    """
    g1, g2, g3 = simplex
    n1, n2, n3 = cross3(g2, g3), cross3(g3, g1), cross3(g1, g2)
    d = dot3(g1, n1)
    if d == 0:
        raise ValueError("simplex generators are linearly dependent")
    if d < 0:
        n1, n2, n3, d = neg3(n1), neg3(n2), neg3(n3), -d
    group = [(0, 0, 0)]
    for j in range(3):
        if len(group) == d:  # the group has order d
            break
        step = (n1[j] % d, n2[j] % d, n3[j] % d)
        members = set(group)
        shifts = []
        m = step
        while m not in members:
            shifts.append(m)
            m = ((m[0] + step[0]) % d, (m[1] + step[1]) % d, (m[2] + step[2]) % d)
        group += [
            ((e[0] + s[0]) % d, (e[1] + s[1]) % d, (e[2] + s[2]) % d)
            for s in shifts
            for e in group
        ]
    return d, group


def _box_coords(simplex: Sequence[IVec3], d: int, nus: Sequence[IVec3]) -> list[IVec3]:
    """The points sum (nu_i / d) g_i of the numerator vectors nus."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = simplex
    return [
        (
            (a * x1 + b * x2 + c * x3) // d,
            (a * y1 + b * y2 + c * y3) // d,
            (a * z1 + b * z2 + c * z3) // d,
        )
        for a, b, c in nus
    ]


def box_points(simplex: Sequence[IVec3]) -> tuple[int, list[tuple[IVec3, int]]]:
    """Lattice points of the half-open parallelepiped {sum l_i g_i : 0 <= l_i < 1}
    of a simplicial cone with linearly independent generators g_i.

    Returns (d, points) with d = |det(g_1, g_2, g_3)| and the d points as
    pairs (x, level), where level = d * sum(l_i); see _box_group.
    """
    d, group = _box_group(simplex)
    return d, [(x, sum(nu)) for x, nu in zip(_box_coords(simplex, d, group), group)]


def _low_box_points(cone: Cone3) -> list[IVec3]:
    """The parallelepiped points with 0 < level < d of every simplex of
    the triangulation, d being the simplex's determinant: the points of
    box_points filtered by level, with coordinates computed only for
    those kept."""
    out = []
    for simplex in _simplices(cone):
        d, group = _box_group(simplex)
        out += _box_coords(simplex, d, [nu for nu in group if 0 < nu[0] + nu[1] + nu[2] < d])
    return out


def hilbert_basis_3d(cone: Cone3) -> list[IVec3]:
    """Minimal generators of cone ∩ Z^3.

    Every lattice point of a simplicial cone is a parallelepiped point
    plus a nonnegative integer combination of its generators, so the
    basis lies among the generators and the nonzero parallelepiped points
    of the simplices of a triangulation (Bruns & Ichim, J. Algebra 324,
    2010).  The candidates are reduced in order of the height psi, the
    sum of the dual rays, which is positive on every nonzero point of the
    pointed full-dimensional cone.
    """
    dual = cone.dual_rays
    psi = tuple(sum(r[i] for r in dual) for i in range(3))
    cands = set(cone.generators)
    for simplex in _simplices(cone):
        cands.update(x for x, level in box_points(simplex)[1] if level)
    pts = sorted(cands, key=lambda p: (dot3(psi, p), p))
    # A reducible point splits off some basis element of smaller height,
    # and every basis element is a candidate, so it suffices to reduce
    # against the basis built so far.  p - q lies in the cone iff no dual
    # ray takes a smaller value on p than on q.
    basis: list[IVec3] = []
    found: list[tuple[int, list[int]]] = []
    for p in pts:
        hp = dot3(psi, p)
        vp = [dot3(r, p) for r in dual]
        reducible = False
        for hq, vq in found:
            if hq >= hp:
                break
            if all(a >= b for a, b in zip(vp, vq)):
                reducible = True
                break
        if not reducible:
            basis.append(p)
            found.append((hp, vp))
    return sorted(basis)


def is_canonical_cone3(cone: Cone3) -> bool:
    """No nonzero lattice point of the cone lies strictly below the affine
    hyperplane u = 1 through the primitive generators.

    A lattice point of a simplex of the triangulation is a parallelepiped
    point plus generators, each with u = 1, so it suffices that every
    nonzero parallelepiped point has u = level / d >= 1.
    """
    if cone.gorenstein_ratio is None:
        raise ValueError("generators are not on a single affine hyperplane")
    for simplex in _simplices(cone):
        d, group = _box_group(simplex)
        if any(0 < a + b + c < d for a, b, c in group):
            return False
    return True


def _facet_polygon_vertices(pts: Sequence[IVec3], normal: IVec3) -> list[IVec3]:
    """Vertices of the 2D convex hull of coplanar 3D points."""
    ax = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != ax]
    flat = [(p[keep[0]], p[keep[1]], p) for p in dict.fromkeys(pts)]
    if len(flat) <= 2:
        return [f[2] for f in flat]
    flat.sort(key=lambda t: (t[0], t[1]))

    def half(seq):
        hull = []
        for t in seq:
            while (
                len(hull) >= 2
                and (hull[-1][0] - hull[-2][0]) * (t[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (t[0] - hull[-2][0])
                <= 0
            ):
                hull.pop()
            hull.append(t)
        return hull

    lower = half(flat)
    upper = half(list(reversed(flat)))
    verts = lower[:-1] + upper[:-1]
    return [t[2] for t in verts]


def _wrap(pts: Sequence[IVec3], p: IVec3, q: IVec3, nrm: IVec3, ref: IVec3) -> IVec3:
    """Inward normal of the hull face across the edge pq from the face
    with inward normal nrm; ref points from p into that face.

    In the plane orthogonal to the edge every point of pts has an angle in
    [0, pi) from the old face, and the new face is the one of largest
    angle.
    """
    e = sub3(q, p)
    i0, i1, i2 = cross3(nrm, e)
    if i0 * ref[0] + i1 * ref[1] + i2 * ref[2] < 0:
        i0, i1, i2 = -i0, -i1, -i2
    n0, n1, n2 = nrm
    # s and t of a point x are measured from p
    sp, tp = i0 * p[0] + i1 * p[1] + i2 * p[2], dot3(nrm, p)
    best_s = best_t = 0
    best = None
    for x in pts:
        x0, x1, x2 = x
        s, t = i0 * x0 + i1 * x1 + i2 * x2 - sp, n0 * x0 + n1 * x1 + n2 * x2 - tp
        if (s or t) and (best is None or best_s * t - best_t * s > 0):
            best, best_s, best_t = x, s, t
    if best is None:
        raise RuntimeError("gift wrapping found no point off the edge")
    new = cross3(e, sub3(best, p))
    side = dot3(new, ref)
    if side == 0:
        raise RuntimeError("gift wrapping did not leave the old face")
    return prim3(new if side > 0 else neg3(new))


def roof_facets(cone: Cone3) -> list[tuple[IVec3, int, list[IVec3]]]:
    """Bounded facets of conv((cone ∩ Z^3) \\ {0}): triples (normal, offset,
    facet vertices), with <normal, x> >= offset on the hull and the normal
    strictly positive on the cone.

    Lemma: the hull is conv(candidates) + cone, where the candidates are
    the extremal rays and the parallelepiped points x with 0 < level < d.
    A lattice point of a simplex g1, g2, g3 of the triangulation is a
    parallelepiped point x plus a point of the cone.  If x = 0 and the
    point is nonzero, it is some g_i plus a point of the cone; if level
    >= d, the coefficients of x sum to at least 1, so x lies in
    conv(g1, g2, g3) + cone.  So every vertex of the hull is a candidate,
    and no Hilbert basis is needed.

    Gift wrapping starts from a bounded edge on one face of the cone,
    rotates a plane around each edge of every facet found, and stops at
    edges on the boundary of the cone, where the neighbouring face is
    unbounded.  Every plane found is checked to support every candidate.

    No CLI path calls it: resolutions.canonical_model certifies its fan by
    convexity across the walls, and the tests compare that fan with this
    hull.
    """
    gens, dual = cone.generators, cone.dual_rays
    cands = {g for _, a, b in cone.facets for g in (a, b)}
    cands.update(_low_box_points(cone))
    # The face's first candidate in angular order from ray a, with a,
    # spans a bounded edge.  That candidate lies on the ray of b1, a's
    # neighbour in the 2D Hilbert basis of the face: a face lattice point
    # at a smaller angle from a than b1 is i*a + j*b1 with i, j >= 1, so
    # it is not a box point.  If b1 itself is pruned, it lies on the
    # segment ab, and then q = b, which is the compact edge.  Multiples of
    # b1 can be box points too, so of the candidates at one angle the
    # shortest is taken.
    r, a, b = cone.facets[0]
    r0, r1, r2 = r
    c0, c1, c2 = cross3(a, b)
    q = None
    for x in cands:
        x0, x1, x2 = x
        if r0 * x0 + r1 * x1 + r2 * x2 != 0 or x == a:
            continue
        if q is None:
            q, qq = x, x0 * x0 + x1 * x1 + x2 * x2
            continue
        q0, q1, q2 = q
        # <x cross q, c>
        turn = (x1 * q2 - x2 * q1) * c0 + (x2 * q0 - x0 * q2) * c1 + (x0 * q1 - x1 * q0) * c2
        if turn > 0 or (turn == 0 and x0 * x0 + x1 * x1 + x2 * x2 < qq):
            q, qq = x, x0 * x0 + x1 * x1 + x2 * x2
    found: dict[tuple[IVec3, int], list[IVec3]] = {}
    edges = {frozenset((a, q))}
    todo = [(a, q, r, add3(a, b))]
    while todo:
        p, q, nrm, ref = todo.pop()
        normal = _wrap(cands, p, q, nrm, ref)
        off = dot3(normal, p)
        if (normal, off) in found:
            continue
        a0, a1, a2 = normal
        # the candidates on or below the plane: a supporting plane has
        # none below
        on = [x for x in cands if a0 * x[0] + a1 * x[1] + a2 * x[2] <= off]
        if any(a0 * g0 + a1 * g1 + a2 * g2 <= 0 for g0, g1, g2 in gens) or any(
            a0 * x0 + a1 * x1 + a2 * x2 < off for x0, x1, x2 in on
        ):
            raise RuntimeError(f"gift wrapping found a non-supporting plane {normal}, {off}")
        verts = _facet_polygon_vertices(on, normal)
        found[(normal, off)] = verts
        for i in range(len(verts)):
            u, w = verts[i - 1], verts[i]
            edge = frozenset((u, w))
            if edge in edges or any(
                s0 * u[0] + s1 * u[1] + s2 * u[2] == 0 == s0 * w[0] + s1 * w[1] + s2 * w[2]
                for s0, s1, s2 in dual
            ):
                continue
            edges.add(edge)
            todo.append((u, w, normal, sub3(verts[i - 2], u)))
    return [(n, b, v) for (n, b), v in sorted(found.items())]
