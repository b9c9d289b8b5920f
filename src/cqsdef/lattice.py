"""Exact 2D lattice primitives: integer vectors, oriented cones,
Hirzebruch-Jung continued fractions, and Hilbert bases of
two-dimensional cones; and InvariantError, the package's one exception
for a broken internal invariant, kept here because every other module
imports this one.

A 2D lattice vector is a plain pair of ints (``IVec2``), as a 3D one is
a triple in ``geometry3``.  All arithmetic is exact; rational numbers
are ``fractions.Fraction``, or ``Ratio`` pairs where the denominator is
known in advance, which ``ratio_text`` writes as the Fraction would
print.  A ``Cone2`` is built from lattice rays only, so its rays and
everything read off them are plain integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .record import Record

# A rational number as (numerator, denominator) with a positive denominator,
# not necessarily in lowest terms: the form in which the slice code keeps
# numbers whose denominators it knows in advance.
Ratio = tuple[int, int]


def ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)), the form in which reports write a ratio,
    without building the Fraction: lowest terms, the sign on the
    numerator, and no denominator when it is 1."""
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


class InvariantError(RuntimeError):
    """A consistency check of the library failed: a defect in the code,
    not in its input.  It is raised explicitly, so it holds under
    python -O as well."""


IVec2 = tuple[int, int]


def dot2(a, b):
    return a[0] * b[0] + a[1] * b[1]


def det2(a, b):
    """Signed area det(a, b) = a_x*b_y - a_y*b_x."""
    return a[0] * b[1] - a[1] * b[0]


def primitive(v) -> IVec2:
    """Divide an integral vector by the gcd of its coordinates; integral
    Fractions become ints, and a non-lattice point raises ValueError."""
    a, b = v
    if type(a) is not int or type(b) is not int:
        if Fraction(a).denominator != 1 or Fraction(b).denominator != 1:
            raise ValueError(f"not a lattice point: ({a}, {b})")
        a, b = int(a), int(b)
    g = math.gcd(a, b)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return a // g, b // g


class Cone2(Record):
    """A strictly convex oriented 2D cone with primitive integral rays.

    The input rays are lattice vectors (a non-lattice ray raises
    ValueError); they are divided by the gcd of their coordinates and
    reordered if needed, so the stored rays satisfy det(ray1, ray2) > 0.
    """

    __slots__ = ()

    def __new__(cls, ray1: IVec2, ray2: IVec2):
        r1, r2 = primitive(ray1), primitive(ray2)
        d = det2(r1, r2)
        if d == 0:
            raise ValueError("rays are collinear; cone is not strictly convex")
        if d < 0:
            r1, r2 = r2, r1
        return tuple.__new__(cls, (r1, r2))

    def index(self) -> int:
        """Index of the sublattice spanned by the rays (the ray determinant)."""
        return det2(self.ray1, self.ray2)

    def contains(self, v: IVec2) -> bool:
        return det2(self.ray1, v) >= 0 and det2(v, self.ray2) >= 0


def dual_cone(cone: Cone2) -> Cone2:
    """The dual cone {u : <u, v> >= 0 for all v in cone}."""
    (x1, y1), (x2, y2) = cone.ray1, cone.ray2
    # (-y1, x1) vanishes on ray1 and is positive on ray2; (y2, -x2) the reverse
    return Cone2((-y1, x1), (y2, -x2))


def cf_expand(num: int, den: int) -> tuple[int, ...]:
    """Expand num/den > 1 (in lowest terms) as the Hirzebruch-Jung continued
    fraction [c1,...,ck] = c1 - 1/[c2,...,ck] with all ci >= 2."""
    if den < 1 or num <= den:
        raise ValueError(f"{num}/{den} is not of the form num > den >= 1")
    if math.gcd(num, den) != 1:
        raise ValueError(f"{num}/{den} is not in lowest terms")
    coeffs = []
    while den > 0:
        c = -(-num // den)  # ceiling division
        coeffs.append(c)
        num, den = den, c * den - num
    return tuple(coeffs)


def cf_eval(cf: Sequence[int]) -> Optional[Fraction]:
    """Evaluate a continued fraction; None when a zero denominator occurs."""
    coeffs = tuple(cf)
    if not coeffs:
        return None
    val = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        if val == 0:
            return None
        val = c - 1 / val
    return val


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def cone_normal_form(cone: Cone2) -> tuple[int, int]:
    """Parameters (n, q) such that the cone is lattice-isomorphic to
    cone((1,0), (-q, n)) with 0 <= q < n, gcd(n, q) = 1.  n = 1 means smooth.
    """
    n = cone.index()
    if n == 1:
        return 1, 0
    a, b = cone.ray1
    g, s, t = _xgcd(a, b)
    if abs(g) != 1:
        raise InvariantError(f"{cone.ray1} is not primitive")
    # The unimodular map with rows g*(s, t) and (-b, a) sends ray1 to (1, 0)
    # and ray2 to (x, n); a shear by a multiple of n brings x to -q.
    x2, y2 = cone.ray2
    return n, (-g * (s * x2 + t * y2)) % n


def hilbert_basis_2d(cone: Cone2) -> list[IVec2]:
    """Minimal generators of cone ∩ Z^2, swept from the ray2 side to ray1.

    Consecutive triples v_{i-1}, v_i, v_{i+1} satisfy v_{i-1}+v_{i+1} = c*v_i
    with integers c >= 2, the Hirzebruch-Jung expansion of n/q for the
    normal form (n, q): the map of the cone onto cone((1,0), (-q, n))
    sends v0 = ray1 to (1, 0) and v1 = (ray2 + q*ray1)/n to (0, 1).
    """
    n, q = cone_normal_form(cone)
    if n == 1:
        return [cone.ray2, cone.ray1]
    (x1, y1), (x2, y2) = cone.ray1, cone.ray2
    wx, wy = x2 + q * x1, y2 + q * y1
    if wx % n or wy % n:
        raise InvariantError(f"{cone.ray2} + {q}*{cone.ray1} is not in {n}Z^2")
    pts = [(x1, y1), (wx // n, wy // n)]
    for c in cf_expand(n, q):
        (ux, uy), (vx, vy) = pts[-2], pts[-1]
        pts.append((c * vx - ux, c * vy - uy))
    if pts[-1] != (x2, y2):
        raise InvariantError(f"the staircase ends at {pts[-1]}, not {(x2, y2)}")
    return pts[::-1]
