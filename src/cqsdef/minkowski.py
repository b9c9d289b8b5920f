"""Height-one slices of the singularity cone and their admissible two-term
Minkowski decompositions, which classify the one-parameter toric
deformations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .lattice import InvariantError, IVec2, Ratio, dot2, ratio_text
from .cqs import CqsModel
from .record import Record

if TYPE_CHECKING:
    import fractions


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
            raise InvariantError(f"ray {ray} does not meet the slice at height {t}")
        return dot2(ray, self.w_next) - t * self.m0, t


def segment(model: CqsModel, h: int) -> Segment:
    """The slice Q_sigma(w^h) in canonical coordinates, 2 <= h <= e-1."""
    return model.cached(("segment", h), _build_segment, model, h)


def _build_segment(model: CqsModel, h: int) -> Segment:
    n, q, e, _, ws, _ = model
    if not 2 <= h <= e - 1:
        raise ValueError(f"h = {h} out of range 2..{e - 1}")
    w, w_next = ws[h - 1], ws[h]  # w^h, w^{h+1}
    # <ray, w^h> and <ray, w^{h+1}> for the rays (-q, n) and (1, 0) of sigma;
    # the ends are their coordinates, as Segment.coord gives them.
    (x, y), (nx, ny) = w, w_next
    t_left, u_left = n * y - q * x, n * ny - q * nx
    t_right, u_right = x, nx
    if t_left <= 0 or t_right <= 0:
        raise InvariantError(f"a ray of sigma does not meet the slice at w^{h}")
    m0 = -(-u_left // t_left)
    ends = ((u_left - t_left * m0, t_left), (u_right - t_right * m0, t_right))
    seg = Segment._make((h, ends, m0, w, w_next))
    num, den = seg.length_ratio
    if num * x * t_left != n * den:
        raise InvariantError(
            f"slice length mismatch for (n,q)=({n},{q}) h={h}: "
            f"geometric {ratio_text(num, den)} vs formula {segment_length(model, h)}"
        )
    return seg


def segment_length(model: CqsModel, h: int) -> fractions.Fraction:
    """Length n / (w1 * (w2*n - w1*q)) of the slice at w^h."""
    from fractions import Fraction

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
        """Re-check the admissibility invariants against the slice: both
        summands run left to right, they add up to the slice, a Dbar has
        p = 1, and the lattice-end rule holds (lattice_end_fault)."""
        kind, _, p, _, ends0, ends1 = self
        (b0, bd0), (g0, gd0) = ends0
        (b1, bd1), (g1, gd1) = ends1
        _, ((b, bd), (g, gd)), _, _, _ = seg
        if b0 * gd0 > g0 * bd0 or b1 * gd1 > g1 * bd1:
            raise InvariantError(f"{self.label}: a summand runs right to left")
        if (b0 * bd1 + b1 * bd0) * bd != b * bd0 * bd1 or (
            g0 * gd1 + g1 * gd0
        ) * gd != g * gd0 * gd1:
            raise InvariantError(f"{self.label}: summands do not add up")
        if kind == "Dbar" and p != 1:
            raise InvariantError(f"{self.label}: p = {p} != 1")
        fault = lattice_end_fault(ends0, ends1, p)
        if fault:
            raise InvariantError(self.label + fault)


def lattice_end_fault(ends0: tuple[Ratio, Ratio], ends1: tuple[Ratio, Ratio], p: int) -> str:
    """The lattice-end rule of an admissible decomposition s0 + s1, given
    by the ends of its summands as integer ratios, where s1 is p times a
    summand: for p = 1 a lattice left end and a lattice right end, each in
    one of the summands; for p > 1 an integral s1 whose length is
    divisible by p.  Returns "" when the rule holds, and otherwise how it
    breaks, as the text that follows the name of the decomposition or
    piece in an error."""
    (b0, bd0), (g0, gd0) = ends0
    (b1, bd1), (g1, gd1) = ends1
    if p == 1:
        if b0 % bd0 and b1 % bd1:
            return " has no lattice left end"
        if g0 % gd0 and g1 % gd1:
            return " has no lattice right end"
    else:
        if b1 % bd1 or g1 % gd1:
            return " has a non-lattice s1"
        if (g1 // gd1 - b1 // bd1) % p:
            return " has s1 not divisible by p"
    return ""


def enum_decompositions(model: CqsModel) -> list[Decomposition]:
    """All admissible two-term decompositions over all degrees, built and
    validated once per model.

    D-decompositions run over 1 <= p < a_h with p*d bounded by the slice
    length; the Dbar family exists only at interior h (at the boundary
    indices each Dbar coincides with a D up to lattice shift).
    """
    return list(model.cached("decompositions", _build_decompositions, model))


def _build_decompositions(model: CqsModel) -> tuple[Decomposition, ...]:
    """Each slice's D family, then its Dbar family, in one pass over the
    slice's ends, length and lattice count #Q:

    D:    Q = (beta, gamma - p*d) + p*(0, d), 1 <= p < a_h, p*d <= length;
    Dbar: Q = (beta, E) + (0, gamma - E) with E = ceil(beta + #Q - d),
          1 <= d <= #Q, at interior h.

    Every decomposition is checked by Decomposition.validate."""
    make = Decomposition._make
    out: list[Decomposition] = []
    for h in range(2, model.e):
        seg = segment(model, h)
        beta, (g, gd) = seg.ends
        b, bd = beta
        num, den = seg.length_ratio
        first = len(out)
        for p in range(1, model.a(h)):
            for d in range(1, num // (p * den) + 1):
                pd = p * d
                out.append(make(("D", h, p, d, (beta, (g - pd * gd, gd)), ((0, 1), (pd, 1)))))
        if 3 <= h <= model.e - 2:
            cnt = seg.lattice_count
            for d in range(1, cnt + 1):
                cut = -(-(b + (cnt - d) * bd) // bd)  # ceil(beta + cnt - d)
                out.append(make(("Dbar", h, 1, d, (beta, (cut, 1)), ((0, 1), (g - cut * gd, gd)))))
        for dec in out[first:]:
            dec.validate(seg)
    return tuple(out)
