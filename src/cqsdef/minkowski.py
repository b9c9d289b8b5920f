"""Height-one slices of the singularity cone and their admissible two-term
Minkowski decompositions, which classify the one-parameter toric
deformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .lattice import Vec2
from .cqs import CqsModel


@dataclass(frozen=True)
class Segment:
    """The slice Q = {<v, w^h> = 1} ∩ sigma as an interval in the rank-one
    lattice induced on the slicing line.

    The line's primitive direction (w^h_2, -w^h_1) takes the value 1 on
    w^{h+1}, so <v, w^{h+1}> - m0 is a lattice coordinate on it.  m0 puts
    the leftmost lattice point of the slice at 0, so beta lies in (-1, 0]
    and the coordinate grows toward the endpoint gamma on the (1,0)-ray.
    """

    h: int
    beta: Fraction
    gamma: Fraction
    m0: int
    w: Vec2
    w_next: Vec2

    @property
    def direction(self) -> Vec2:
        return Vec2(self.w.y, -self.w.x)

    @property
    def origin(self) -> Vec2:
        """The lattice point at coordinate 0."""
        return Vec2(-self.w_next.y, self.w_next.x) + self.m0 * self.direction

    @property
    def unit(self) -> Vec2:
        """The lattice point at coordinate 1."""
        return self.origin + self.direction

    @property
    def length(self) -> Fraction:
        return self.gamma - self.beta

    @property
    def lattice_count(self) -> int:
        return math.floor(self.gamma) - math.ceil(self.beta) + 1

    def point_at(self, coord) -> Vec2:
        """The point of the slicing line at the given lattice coordinate."""
        return self.origin + coord * self.direction

    def coord(self, ray: Vec2) -> Fraction:
        """Coordinate of the point where the ray meets the slicing line."""
        t = ray.dot(self.w)
        if t <= 0:
            raise RuntimeError(f"ray {ray} does not meet the slice at height {t}")
        return Fraction(ray.dot(self.w_next) - t * self.m0, t)

    def coord_of(self, pt: Vec2) -> Fraction:
        """Canonical coordinate of a point lying on the slicing line."""
        if pt.dot(self.w) != 1:
            raise RuntimeError(f"{pt} is not on the slicing line")
        return self.coord(pt)

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "lattice_points": self.lattice_count,
        }


def segment(model: CqsModel, h: int) -> Segment:
    """The slice Q_sigma(w^h) in canonical coordinates, 2 <= h <= e-1."""
    if not 2 <= h <= model.e - 1:
        raise ValueError(f"h = {h} out of range 2..{model.e - 1}")
    return model.cached(("segment", h), lambda: _build_segment(model, h))


def _build_segment(model: CqsModel, h: int) -> Segment:
    w, w_next = model.wgen(h), model.wgen(h + 1)
    left, right = model.sigma.ray2, model.sigma.ray1  # (-q, n) and (1, 0)
    m0 = math.ceil(Fraction(left.dot(w_next), left.dot(w)))
    frame = Segment(h=h, beta=Fraction(0), gamma=Fraction(0), m0=m0, w=w, w_next=w_next)
    seg = replace(frame, beta=frame.coord(left), gamma=frame.coord(right))
    if seg.length != segment_length(model, h):
        raise RuntimeError(
            f"slice length mismatch for (n,q)=({model.n},{model.q}) h={h}: "
            f"geometric {seg.length} vs formula {segment_length(model, h)}"
        )
    return seg


def segment_length(model: CqsModel, h: int) -> Fraction:
    """Length n / (w1 * (w2*n - w1*q)) of the slice at w^h."""
    w1, w2 = model.wgen(h).as_int_pair()
    return Fraction(model.n, w1 * (w2 * model.n - w1 * model.q))


def lattice_point_count(model: CqsModel, h: int) -> int:
    """Number of lattice points in the closed slice; a_h - 1 at interior h."""
    return segment(model, h).lattice_count


@dataclass(frozen=True)
class Decomposition:
    """An admissible two-term Minkowski decomposition of Q_sigma(w^h).

    kind "D": Q = (beta, gamma - p*d) + p*(0, d).
    kind "Dbar": Q = (beta, E) + (0, gamma - E) with E = ceil(beta + #(Q) - d),
    only at interior h and with p = 1.
    """

    kind: str  # "D" | "Dbar"
    h: int
    p: int
    d: int
    s0: tuple[Fraction, Fraction]
    s1: tuple[Fraction, Fraction]

    @property
    def label(self) -> str:
        if self.kind == "D":
            return f"pi_{{{self.h},{self.p}}}^{self.d}"
        return f"pibar_{{{self.h}}}^{self.d}"

    def validate(self, seg: Segment) -> None:
        """Re-check the admissibility invariants against the slice."""
        b0, g0 = self.s0
        b1, g1 = self.s1
        if not (b0 <= g0 and b1 <= g1):
            raise RuntimeError(f"{self.label}: a summand runs right to left")
        if b0 + b1 != seg.beta or g0 + g1 != seg.gamma:
            raise RuntimeError(f"{self.label}: summands do not add up")
        if self.kind == "Dbar" and self.p != 1:
            raise RuntimeError(f"{self.label}: p = {self.p} != 1")
        check_lattice_ends(self.s0, self.s1, self.p, self.label)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "h": self.h,
            "p": self.p,
            "d": self.d,
            "summands": [
                [str(self.s0[0]), str(self.s0[1])],
                [str(self.s1[0]), str(self.s1[1])],
            ],
        }


def check_lattice_ends(
    s0: tuple[Fraction, Fraction], s1: tuple[Fraction, Fraction], p: int, what: str
) -> None:
    """The lattice-end rule of an admissible decomposition s0 + s1, where
    s1 is p times a summand: for p = 1 a lattice left end and a lattice
    right end, each in one of the summands; for p > 1 an integral s1
    whose length is divisible by p.  Raises RuntimeError naming `what`."""
    (b0, g0), (b1, g1) = s0, s1
    if p == 1:
        if b0.denominator != 1 and b1.denominator != 1:
            raise RuntimeError(f"{what} has no lattice left end")
        if g0.denominator != 1 and g1.denominator != 1:
            raise RuntimeError(f"{what} has no lattice right end")
    else:
        if b1.denominator != 1 or g1.denominator != 1:
            raise RuntimeError(f"{what} has a non-lattice s1")
        if (g1 - b1) % p != 0:
            raise RuntimeError(f"{what} has s1 not divisible by p")


def decomposition_D(seg: Segment, p: int, d: int) -> Decomposition:
    pd = p * d
    if not 0 <= pd <= seg.length:
        raise ValueError(f"p*d = {pd} exceeds slice length {seg.length}")
    return Decomposition(
        kind="D",
        h=seg.h,
        p=p,
        d=d,
        s0=(seg.beta, seg.gamma - pd),
        s1=(Fraction(0), Fraction(pd)),
    )


def decomposition_Dbar(seg: Segment, d: int) -> Decomposition:
    cnt = seg.lattice_count
    if not 1 <= d <= cnt:
        raise ValueError(f"d = {d} out of range 1..{cnt}")
    e_cut = Fraction(math.ceil(seg.beta + cnt - d))
    return Decomposition(
        kind="Dbar",
        h=seg.h,
        p=1,
        d=d,
        s0=(seg.beta, e_cut),
        s1=(Fraction(0), seg.gamma - e_cut),
    )


def enum_decompositions(model: CqsModel) -> list[Decomposition]:
    """All admissible two-term decompositions over all degrees.

    D-decompositions run over 1 <= p < a_h with p*d bounded by the slice
    length; the Dbar family exists only at interior h (at the boundary
    indices each Dbar coincides with a D up to lattice shift).
    """
    out: list[Decomposition] = []
    for h in range(2, model.e):
        seg = segment(model, h)
        a_h = model.a(h)
        for p in range(1, a_h):
            d = 1
            while p * d <= seg.length:
                out.append(decomposition_D(seg, p, d))
                d += 1
        if 3 <= h <= model.e - 2:
            for d in range(1, seg.lattice_count + 1):
                out.append(decomposition_Dbar(seg, d))
    for dec in out:
        dec.validate(segment(model, dec.h))
    return out
