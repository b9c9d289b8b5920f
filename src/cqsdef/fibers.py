"""Singularities in the general fiber of a one-parameter toric deformation."""

from __future__ import annotations

from math import gcd

from .cqs import CqsModel
from .lattice import InvariantError, cf_expand
from .minkowski import Decomposition
from .record import Record
from .totalspace import Deformation


class SingularityList(Record):
    """Singular points of the general fiber as normal-form chains: origin
    is the chain at the origin, () when the origin is smooth, and
    off_origin holds (chain, multiplicity) for the singular points off
    it.  The raw chains, before blowing down, are kept for auditing."""

    __slots__ = ()

    def __new__(
        cls,
        origin: tuple[int, ...],
        off_origin: tuple[tuple[tuple[int, ...], int], ...],
        raw: tuple[tuple[tuple[int, ...], int, str], ...],
    ):
        return tuple.__new__(cls, (origin, off_origin, raw))

    @property
    def is_empty(self) -> bool:
        return not self.origin and not self.off_origin

    def to_json(self, verbose: bool = False) -> dict:
        out = {
            "origin": list(self.origin) if self.origin else "smooth",
            "off_origin": [[list(ch), mult] for ch, mult in self.off_origin],
        }
        if verbose:
            out["raw_chains"] = [
                {"chain": list(ch), "multiplicity": m, "location": loc}
                for ch, m, loc in self.raw
            ]
        return out


def general_fiber(defo: Deformation) -> SingularityList:
    """Fiber singularities over a general parameter value.

    Plain kind: the chain with a_h lowered by p*d sits at the origin and p
    points of type A_{d-1}, the chain (d,), sit elsewhere.  Barred kind:
    the tail chain (a_h - d, a_{h+1}, ...) sits at the origin and
    (a_2, ..., a_{h-1}, d) at one other point.  The normal forms, each
    () when smooth, are the continuants of the fiber chains, checked by
    checked_types on every call and expanded by chain_type, without
    blowing a chain down; raw keeps the chains as written here.
    """
    model, dec = defo
    kind, h, p, d, _, _ = dec
    a, pos = model.a_chain, h - 2
    (n0, d0), (n1, d1) = checked_types(model, dec)
    origin, off = chain_type(n0, d0), chain_type(n1, d1)
    if kind == "D":
        raw = ((a[:pos] + (a[pos] - p * d,) + a[pos + 1 :], 1, "origin"), ((d,), p, "off-origin"))
    else:
        raw = (((a[pos] - d,) + a[pos + 1 :], 1, "origin"), (a[:pos] + (d,), 1, "off-origin"))
    off_origin = ((off, raw[1][1]),) if off else ()
    return SingularityList(origin=origin, off_origin=off_origin, raw=raw)


def is_smoothing(model: CqsModel, dec: Decomposition) -> bool:
    """Whether the general fiber of the deformation of dec is smooth: both
    fiber chains have continuant K(c) <= 1.  It is keyed as split_depth
    and components_of are, so a scan row builds no Deformation.  The
    checks of checked_types run; no chain is expanded and no raw chain is
    built."""
    (n0, _), (n1, _) = checked_types(model, dec)
    return n0 <= 1 and n1 <= 1


def checked_types(model: CqsModel, dec: Decomposition) -> tuple[tuple[int, int], tuple[int, int]]:
    """fiber_types of the deformation of dec, after three checks that run
    on every call.  Each chain must have the type of the face of sigma' over
    its summand (check_faces), a second route through the Minkowski
    summands.  No continuant K(c) may be negative.  A smooth fiber must
    fit the smoothing pattern: d = 1 with p = a_h - 1, or the barred kind
    with a_h = 2 and d = 1.
    """
    types = fiber_types(model, dec)
    check_faces(dec, types)
    (n0, _), (n1, _) = types
    if n0 < 0 or n1 < 0:
        raise InvariantError(f"{dec.label}: a fiber chain has continuant {min(n0, n1)} < 0")
    if n0 <= 1 and n1 <= 1:
        kind, h, p, d, _, _ = dec
        a_h = model.a_chain[h - 2]
        if not (d == 1 and (p == a_h - 1 if kind == "D" else a_h == 2)):
            raise InvariantError(f"{dec.label} is a smoothing outside the expected pattern")
    return types


def fiber_types(model: CqsModel, dec: Decomposition) -> tuple[tuple[int, int], tuple[int, int]]:
    """The continuants (K(c), K(c_2, ...)) of the fiber chains c at the
    origin and off it, read off the dual generators w^{h-1} and w^h in a
    few integer operations: w^i = (x_i, y_i) has x_i = K(a_2, ..., a_{i-1})
    and x_i - y_i = K(a_3, ..., a_{i-1}), and s_i = <w^i, (-q, n)> is
    K(a_{i+1}, ..., a_{e-1})."""
    n, q, _, _, w, _ = model
    kind, h, p, d, _, _ = dec
    (x0, y0), (x, y) = w[h - 2], w[h - 1]
    s = n * y - q * x
    if kind == "D":
        # Lowering a_h by pd lowers the continuant by pd times the
        # continuants of the two sides.
        cut = p * d * s
        return (n - cut * x, n - q - cut * (x - y)), (d, 1)
    return (n * y0 - q * x0 - d * s, s), (d * x - x0, d * (x - y) - (x0 - y0))


def chain_type(num: int, den: int) -> tuple[int, ...]:
    """The normal-form chain of a chain c with continuants num = K(c) >= 0
    and den = K(c_2, ...): blowing a 1 down keeps num and den mod num, so
    the normal form is the expansion of num / (den mod num), and () when
    num is 0 or 1."""
    if num > 1:
        den %= num
        return (num,) if den == 1 else cf_expand(num, den)
    return ()


def check_faces(dec: Decomposition, types: tuple[tuple[int, int], ...]) -> None:
    """Check the continuants (N, D) of the fiber chains at the origin and
    off it against the coordinate faces of sigma', read off the summands
    without building the cone: z = 0 over s0, the face of the fiber at
    the origin, and y = 0 over s1/p, that of the points off it.  sigma'
    shifts s0 by the integer c of the slice frame, but the shear
    (x, y) -> (x - c*y, y) in SL2(Z) maps that face onto the cone over
    s0 x {1}, and face_is reads only what the shear keeps.  Each face
    must have the normal form (N, -D mod N), or be smooth when N <= 1
    (face_is); otherwise InvariantError names the decomposition."""
    _, _, p, _, ((b0, bd0), (g0, gd0)), ((b1, bd1), (g1, gd1)) = dec
    (n0, d0), (n1, d1) = types
    if not (
        face_is(b0, bd0, g0, gd0, n0, -d0) and face_is(b1, p * bd1, g1, p * gd1, n1, -d1)
    ):
        raise InvariantError(
            f"{dec.label}: the fiber chains' continuants {types} "
            f"do not match the faces of sigma'"
        )


def face_is(ux: int, uy: int, vx: int, vy: int, n: int, q: int) -> bool:
    """Whether the cone over the nonzero lattice vectors u and v has the
    normal form (n, q mod n), with n <= 1 standing for smooth.

    Made primitive and ordered so that det(u, v) >= 0, the rays span a
    cone of normal form (n, q mod n), n > 1, exactly when det(u, v) = n
    and v + q*u lies in n*Z^2: the map of the cone onto
    cone((1, 0), (-q, n)) sends u to (1, 0).  As v is primitive, the
    congruence makes gcd(n, q) = 1.  A smooth cone has det(u, v) = 1, or
    u = v when the two rays coincide.
    """
    g, k = gcd(ux, uy), gcd(vx, vy)
    ux, uy, vx, vy = ux // g, uy // g, vx // k, vy // k
    det = ux * vy - uy * vx
    if det < 0:
        ux, uy, vx, vy, det = vx, vy, ux, uy, -det
    if n > 1:
        return det == n and not (vx + q * ux) % n and not (vy + q * uy) % n
    return det == 1 or (ux == vx and uy == vy)

