"""Height-one slices of the singularity cone and their admissible two-term
Minkowski decompositions, which classify the one-parameter toric
deformations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .lattice import IVec2, Ratio, dot2, ratio_text
from .cqs import CqsModel
from .record import Record


class Segment(Record):
    """The slice Q = {<v, w^h> = 1} ∩ sigma as an interval in the rank-one
    lattice induced on the slicing line.

    The line's primitive direction (w^h_2, -w^h_1) takes the value 1 on
    w^{h+1}, so <v, w^{h+1}> - m0 is a lattice coordinate on it.  m0 puts
    the leftmost lattice point of the slice at 0, so beta lies in (-1, 0]
    and the coordinate grows toward the endpoint gamma on the (1,0)-ray.

    ends holds beta over its known denominator <(-q, n), w^h> and gamma
    over w^h_1.
    """

    __slots__ = ()

    def __new__(cls, h: int, ends: tuple[Ratio, Ratio], m0: int, w: IVec2, w_next: IVec2):
        return tuple.__new__(cls, (h, ends, m0, w, w_next))

    @property
    def direction(self) -> IVec2:
        return self.w[1], -self.w[0]

    @property
    def origin(self) -> IVec2:
        """The lattice point at coordinate 0."""
        return self.point_at(0)

    @property
    def length_ratio(self) -> Ratio:
        (b, bd), (g, gd) = self.ends
        return g * bd - b * gd, bd * gd

    @property
    def lattice_count(self) -> int:
        (b, bd), (g, gd) = self.ends
        return g // gd + (-b) // bd + 1  # floor(gamma) - ceil(beta) + 1

    def point_at(self, coord):
        """The point of the slicing line at the given lattice coordinate,
        which may be rational."""
        (x, y), (nx, ny), c = self.w, self.w_next, self.m0 + coord
        return c * y - ny, nx - c * x

    def coord(self, ray: IVec2) -> Ratio:
        """Coordinate of the point where the ray meets the slicing line,
        as a ratio over the denominator <ray, w^h>."""
        t = dot2(ray, self.w)
        if t <= 0:
            raise RuntimeError(f"ray {ray} does not meet the slice at height {t}")
        return dot2(ray, self.w_next) - t * self.m0, t

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "beta": ratio_text(*self.ends[0]),
            "gamma": ratio_text(*self.ends[1]),
            "lattice_points": self.lattice_count,
            "length": ratio_text(*self.length_ratio),
        }


def segment(model: CqsModel, h: int) -> Segment:
    """The slice Q_sigma(w^h) in canonical coordinates, 2 <= h <= e-1."""
    if not 2 <= h <= model.e - 1:
        raise ValueError(f"h = {h} out of range 2..{model.e - 1}")
    return model.cached(("segment", h), lambda: _build_segment(model, h))


def _build_segment(model: CqsModel, h: int) -> Segment:
    w, w_next = model.wgen(h), model.wgen(h + 1)
    n, q = model.n, model.q
    # <ray, w^h> and <ray, w^{h+1}> for the rays (-q, n) and (1, 0) of sigma;
    # the ends are their coordinates, as Segment.coord gives them.
    (x, y), (nx, ny) = w, w_next
    t_left, u_left = n * y - q * x, n * ny - q * nx
    t_right, u_right = x, nx
    if t_left <= 0 or t_right <= 0:
        raise RuntimeError(f"a ray of sigma does not meet the slice at w^{h}")
    m0 = -(-u_left // t_left)
    ends = ((u_left - t_left * m0, t_left), (u_right - t_right * m0, t_right))
    seg = Segment(h=h, ends=ends, m0=m0, w=w, w_next=w_next)
    num, den = seg.length_ratio
    if num * x * (y * model.n - x * model.q) != model.n * den:
        raise RuntimeError(
            f"slice length mismatch for (n,q)=({model.n},{model.q}) h={h}: "
            f"geometric {ratio_text(num, den)} vs formula {segment_length(model, h)}"
        )
    return seg


def segment_length(model: CqsModel, h: int) -> Fraction:
    """Length n / (w1 * (w2*n - w1*q)) of the slice at w^h."""
    w1, w2 = model.wgen(h)
    return Fraction(model.n, w1 * (w2 * model.n - w1 * model.q))


class Decomposition(Record):
    """An admissible two-term Minkowski decomposition of Q_sigma(w^h).

    kind "D": Q = (beta, gamma - p*d) + p*(0, d).
    kind "Dbar": Q = (beta, E) + (0, gamma - E) with E = ceil(beta + #(Q) - d),
    only at interior h and with p = 1.

    ends0 and ends1 hold the ends of the two summands as integer ratios
    over the slice's denominators.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        h: int,
        p: int,
        d: int,
        ends0: tuple[Ratio, Ratio],
        ends1: tuple[Ratio, Ratio],
    ):
        return tuple.__new__(cls, (kind, h, p, d, ends0, ends1))

    @property
    def label(self) -> str:
        if self.kind == "D":
            return f"pi_{{{self.h},{self.p}}}^{self.d}"
        return f"pibar_{{{self.h}}}^{self.d}"

    def validate(self, seg: Segment) -> None:
        """Re-check the admissibility invariants against the slice."""
        (b0, bd0), (g0, gd0) = self.ends0
        (b1, bd1), (g1, gd1) = self.ends1
        (b, bd), (g, gd) = seg.ends
        if b0 * gd0 > g0 * bd0 or b1 * gd1 > g1 * bd1:
            raise RuntimeError(f"{self.label}: a summand runs right to left")
        if (b0 * bd1 + b1 * bd0) * bd != b * bd0 * bd1 or (
            g0 * gd1 + g1 * gd0
        ) * gd != g * gd0 * gd1:
            raise RuntimeError(f"{self.label}: summands do not add up")
        if self.kind == "Dbar" and self.p != 1:
            raise RuntimeError(f"{self.label}: p = {self.p} != 1")
        check_lattice_ends(self.ends0, self.ends1, self.p, lambda: self.label)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "h": self.h,
            "p": self.p,
            "d": self.d,
            "summands": [[ratio_text(*r) for r in ends] for ends in (self.ends0, self.ends1)],
        }


def check_lattice_ends(
    ends0: tuple[Ratio, Ratio], ends1: tuple[Ratio, Ratio], p: int, what: Callable[[], str]
) -> None:
    """The lattice-end rule of an admissible decomposition s0 + s1, given
    by the ends of its summands as integer ratios, where s1 is p times a
    summand: for p = 1 a lattice left end and a lattice right end, each in
    one of the summands; for p > 1 an integral s1 whose length is
    divisible by p.  Raises RuntimeError naming what(), called only then."""
    (b0, bd0), (g0, gd0) = ends0
    (b1, bd1), (g1, gd1) = ends1
    if p == 1:
        if b0 % bd0 and b1 % bd1:
            raise RuntimeError(f"{what()} has no lattice left end")
        if g0 % gd0 and g1 % gd1:
            raise RuntimeError(f"{what()} has no lattice right end")
    else:
        if b1 % bd1 or g1 % gd1:
            raise RuntimeError(f"{what()} has a non-lattice s1")
        if (g1 // gd1 - b1 // bd1) % p:
            raise RuntimeError(f"{what()} has s1 not divisible by p")


def decomposition_D(seg: Segment, p: int, d: int) -> Decomposition:
    pd = p * d
    num, den = seg.length_ratio
    if not (0 <= pd and pd * den <= num):
        raise ValueError(f"p*d = {pd} exceeds slice length {ratio_text(num, den)}")
    beta, (g, gd) = seg.ends
    return Decomposition(
        kind="D",
        h=seg.h,
        p=p,
        d=d,
        ends0=(beta, (g - pd * gd, gd)),
        ends1=((0, 1), (pd, 1)),
    )


def decomposition_Dbar(seg: Segment, d: int) -> Decomposition:
    cnt = seg.lattice_count
    if not 1 <= d <= cnt:
        raise ValueError(f"d = {d} out of range 1..{cnt}")
    (b, bd), (g, gd) = seg.ends
    e_cut = -(-(b + (cnt - d) * bd) // bd)  # ceil(beta + cnt - d)
    return Decomposition(
        kind="Dbar",
        h=seg.h,
        p=1,
        d=d,
        ends0=((b, bd), (e_cut, 1)),
        ends1=((0, 1), (g - e_cut * gd, gd)),
    )


def enum_decompositions(model: CqsModel) -> list[Decomposition]:
    """All admissible two-term decompositions over all degrees, built and
    validated once per model.

    D-decompositions run over 1 <= p < a_h with p*d bounded by the slice
    length; the Dbar family exists only at interior h (at the boundary
    indices each Dbar coincides with a D up to lattice shift).
    """
    return list(model.cached("decompositions", lambda: _build_decompositions(model)))


def _build_decompositions(model: CqsModel) -> tuple[Decomposition, ...]:
    out: list[Decomposition] = []
    for h in range(2, model.e):
        seg = segment(model, h)
        num, den = seg.length_ratio
        here = [
            decomposition_D(seg, p, d)
            for p in range(1, model.a(h))
            for d in range(1, num // (p * den) + 1)
        ]
        if 3 <= h <= model.e - 2:
            here += [decomposition_Dbar(seg, d) for d in range(1, seg.lattice_count + 1)]
        for dec in here:
            dec.validate(seg)
        out += here
    return tuple(out)
