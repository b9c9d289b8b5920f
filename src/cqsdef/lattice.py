"""Exact 2D lattice primitives: vectors, oriented cones, Hirzebruch-Jung
continued fractions, and Hilbert bases of two-dimensional cones; and
InvariantError, the package's one exception for a broken internal
invariant, kept here because every other module imports this one.

All arithmetic is exact; rational numbers are ``fractions.Fraction``, or
``Ratio`` pairs where the denominator is known in advance, which
``ratio_text`` writes as the Fraction would print.  A ``Cone2`` is
built from lattice rays only, so its rays and everything read off them
are plain integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Rat = Union[int, Fraction]
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


@dataclass(frozen=True)
class Vec2:
    """A point of the plane with exact rational coordinates."""

    x: Rat
    y: Rat

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __rmul__(self, c: Rat) -> "Vec2":
        return Vec2(c * self.x, c * self.y)

    def dot(self, other: "Vec2") -> Rat:
        return self.x * other.x + self.y * other.y

    def det(self, other: "Vec2") -> Rat:
        """Signed area det(self, other) = x1*y2 - y1*x2."""
        return self.x * other.y - self.y * other.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_integral(self) -> bool:
        if type(self.x) is int and type(self.y) is int:
            return True
        return Fraction(self.x).denominator == 1 and Fraction(self.y).denominator == 1

    def as_int_pair(self) -> tuple[int, int]:
        if not self.is_integral():
            raise ValueError(f"not a lattice point: {self}")
        return int(self.x), int(self.y)

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def primitive(v: Vec2) -> Vec2:
    """Divide an integral vector by the gcd of its coordinates."""
    if v.is_zero():
        raise ValueError("zero vector has no primitive representative")
    a, b = v.as_int_pair()
    g = math.gcd(a, b)
    return Vec2(a // g, b // g)


@dataclass(frozen=True)
class Cone2:
    """A strictly convex oriented 2D cone with primitive integral rays.

    The input rays are lattice vectors (a non-lattice ray raises
    ValueError); they are divided by the gcd of their coordinates and
    reordered if needed, so the stored rays satisfy det(ray1, ray2) > 0.
    """

    ray1: Vec2
    ray2: Vec2

    def __init__(self, ray1: Vec2, ray2: Vec2):
        r1, r2 = primitive(ray1), primitive(ray2)
        d = r1.det(r2)
        if d == 0:
            raise ValueError("rays are collinear; cone is not strictly convex")
        if d < 0:
            r1, r2 = r2, r1
        object.__setattr__(self, "ray1", r1)
        object.__setattr__(self, "ray2", r2)

    def index(self) -> int:
        """Index of the sublattice spanned by the rays (the ray determinant)."""
        return int(self.ray1.det(self.ray2))

    def contains(self, v: Vec2) -> bool:
        return self.ray1.det(v) >= 0 and v.det(self.ray2) >= 0


def dual_cone(cone: Cone2) -> Cone2:
    """The dual cone {u : <u, v> >= 0 for all v in cone}."""
    r1, r2 = cone.ray1, cone.ray2
    u1 = Vec2(-r1.y, r1.x)   # vanishes on ray1, positive on ray2
    u2 = Vec2(r2.y, -r2.x)   # vanishes on ray2, positive on ray1
    return Cone2(u1, u2)


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
    a, b = cone.ray1.as_int_pair()
    g, s, t = _xgcd(a, b)
    if abs(g) != 1:
        raise InvariantError(f"{cone.ray1} is not primitive")
    # The unimodular map with rows g*(s, t) and (-b, a) sends ray1 to (1, 0)
    # and ray2 to (x, n); a shear by a multiple of n brings x to -q.
    x2, y2 = cone.ray2.as_int_pair()
    return n, (-g * (s * x2 + t * y2)) % n


def hilbert_basis_2d(cone: Cone2) -> list[Vec2]:
    """Minimal generators of cone ∩ Z^2, swept from the ray2 side to ray1.

    Consecutive triples v_{i-1}, v_i, v_{i+1} satisfy v_{i-1}+v_{i+1} = c*v_i
    with integers c >= 2, the Hirzebruch-Jung expansion of n/q for the
    normal form (n, q): the map of the cone onto cone((1,0), (-q, n))
    sends v0 = ray1 to (1, 0) and v1 = (ray2 + q*ray1)/n to (0, 1).
    """
    n, q = cone_normal_form(cone)
    if n == 1:
        return [cone.ray2, cone.ray1]
    x1, y1 = cone.ray1.as_int_pair()
    x2, y2 = cone.ray2.as_int_pair()
    wx, wy = x2 + q * x1, y2 + q * y1
    if wx % n or wy % n:
        raise InvariantError(f"{cone.ray2} + {q}*{cone.ray1} is not in {n}Z^2")
    pts = [(x1, y1), (wx // n, wy // n)]
    for c in cf_expand(n, q):
        (ux, uy), (vx, vy) = pts[-2], pts[-1]
        pts.append((c * vx - ux, c * vy - uy))
    if pts[-1] != (x2, y2):
        raise InvariantError(f"the staircase ends at {pts[-1]}, not {(x2, y2)}")
    return [Vec2(x, y) for x, y in reversed(pts)]
