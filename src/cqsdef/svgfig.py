"""SVG emitters for slice segments, their Minkowski decompositions, and
affine slices of the simultaneous-resolution fans.  Geometry stays in
exact rationals; floats appear only in the final attribute strings.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cqs import CqsModel, display_n_point
from .chains import enumerate_K
from .minkowski import enum_decompositions, segment
from .totalspace import split_depth
from .resolutions import fan_decomposition

UNIT = 70  # pixels per lattice unit
PAD = 60
ROW = 66

_SVG_HEAD = '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'


def _fmt(x) -> str:
    return f"{float(x):.4f}".rstrip("0").rstrip(".")


def _display_label(model: CqsModel, pt) -> str:
    u, v = (Fraction(*r) for r in display_n_point(pt, model))
    den = math.lcm(u.denominator, v.denominator)
    if den == 1:
        return f"({u},{v})"
    return f"(1/{den})({u * den},{v * den})"


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, width=1.5, color="black"):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def dot(self, x, y, filled=True, r=3.5):
        fill = "black" if filled else "white"
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{fill}" stroke="black"/>'
        )

    def text(self, x, y, s, size=12, anchor="middle"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" font-family="serif">{s}</text>'
        )

    def polygon(self, pts, fill="none"):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="black" stroke-width="1.5"/>'
        )

    def render(self, w, h) -> str:
        return "\n".join([_SVG_HEAD.format(w=w, h=h), *self.parts, "</svg>"])


def _draw_interval(cv: _Canvas, x0: float, y: float, lo: Fraction, hi: Fraction, scale=UNIT):
    """One interval with lattice dots and endpoint labels; a point interval
    is drawn as an open dot."""
    ax0, ax1 = x0 + float(lo) * scale, x0 + float(hi) * scale
    if lo == hi:
        cv.dot(ax0, y, filled=Fraction(lo).denominator == 1)
        cv.text(ax0, y - 10, str(lo), size=11)
        return
    cv.line(ax0, y, ax1, y)
    for c in range(math.ceil(lo), math.floor(hi) + 1):
        cv.dot(x0 + c * scale, y)
        cv.text(x0 + c * scale, y + 18, str(c), size=10)
    cv.text(ax0, y - 10, str(lo), size=11)
    cv.text(ax1, y - 10, str(hi), size=11)


def segments_figure(model: CqsModel) -> str:
    """One row per slice, drawn in canonical coordinates with lattice
    points marked and labelled in display coordinates."""
    cv = _Canvas()
    segs = [segment(model, h) for h in model.interior_indices()]
    min_b = min(Fraction(*seg.ends[0]) for seg in segs)
    max_g = max(Fraction(*seg.ends[1]) for seg in segs)
    x0 = PAD - float(min_b) * UNIT
    width = PAD * 2 + (float(max_g) - float(min_b)) * UNIT + 110
    y = PAD
    for seg in segs:
        beta, gamma = (Fraction(*r) for r in seg.ends)
        cv.text(28, y + 4, f"Q(w{seg.h})", size=13, anchor="start")
        _draw_interval(cv, x0, y, beta, gamma)
        cv.text(
            x0 + float(gamma) * UNIT + 56,
            y + 4,
            _display_label(model, seg.origin),
            size=10,
        )
        y += ROW
    return cv.render(int(width), y - ROW + PAD)


def decompositions_figure(model: CqsModel) -> str:
    """One row per admissible decomposition: summand plus summand."""
    cv = _Canvas()
    spans = []
    y = PAD
    left_label = 120
    for dec in enum_decompositions(model):
        (a0, b0), (a1, b1) = ([Fraction(*r) for r in ends] for ends in (dec.ends0, dec.ends1))
        spans.append((b0 - a0) + (b1 - a1))
        cv.text(16, y + 4, dec.label, size=12, anchor="start")
        x0 = left_label - float(a0) * UNIT
        _draw_interval(cv, x0, y, a0, b0)
        plus_x = left_label + float(b0 - a0) * UNIT + 36
        cv.text(plus_x, y + 4, "+" if dec.p == 1 else f"+ {dec.p} ·", size=13)
        x1 = plus_x + 40 - float(a1) * UNIT
        if dec.p == 1:
            _draw_interval(cv, x1, y, a1, b1)
        else:
            _draw_interval(cv, x1, y, a1 / dec.p, b1 / dec.p)
        y += ROW
    width = left_label + (4 + float(max(spans, default=2))) * UNIT
    return cv.render(int(width), y - ROW + PAD)


def slices_figure(model: CqsModel) -> str:
    """One panel per simultaneous resolution: the affine slice of the 3D
    fan where the two carrier levels sum to one."""
    cv = _Canvas()
    panels = [
        (fan_decomposition(model, k, dec), segment(model, dec.h).m0)
        for dec in enum_decompositions(model)
        for k in enumerate_K(model)
        if split_depth(model, k, dec) is not None
    ]
    y = PAD
    width = 0.0
    for fd, m0 in panels:
        pts0, pts1 = [], []
        edges = []
        for pc in fd.pieces:
            if pc.degenerate:
                continue
            a0, b0 = (Fraction(*r) + m0 for r in pc.ends0)
            a1, b1 = (Fraction(*r) / fd.decomp.p for r in pc.ends1)
            pts0 += [a0, b0]
            pts1 += [a1, b1]
            edges.append(((a0, 1), (a1, 0)))
            edges.append(((b0, 1), (b1, 0)))
        lo = min(min(pts0), min(pts1))
        hi = max(max(pts0), max(pts1))
        x0 = PAD + 90 - float(lo) * UNIT
        scale_y = 90

        def pos(c, level):
            return (x0 + float(c) * UNIT, y + scale_y * (1 - level))

        corner = [pos(min(pts1), 0), pos(max(pts1), 0), pos(max(pts0), 1), pos(min(pts0), 1)]
        cv.polygon(corner)
        for (c1, l1), (c2, l2) in edges:
            cv.line(*pos(c1, l1), *pos(c2, l2), width=1.0)
        for c in sorted(set(pts0)):
            cv.dot(*pos(c, 1), filled=Fraction(c).denominator == 1)
            cv.text(*(lambda p: (p[0], p[1] - 8))(pos(c, 1)), str(c), size=10)
        for c in sorted(set(pts1)):
            cv.dot(*pos(c, 0), filled=Fraction(c).denominator == 1)
            cv.text(*(lambda p: (p[0], p[1] + 18))(pos(c, 0)), str(c), size=10)
        cv.text(16, y + scale_y / 2, fd.label, size=12, anchor="start")
        width = max(width, x0 + float(hi) * UNIT + PAD)
        y += scale_y + ROW
    return cv.render(int(width), y)


FIGURE_TARGETS = {
    "segments": segments_figure,
    "decompositions": decompositions_figure,
    "slices": slices_figure,
}


def make_figure(model: CqsModel, target: str) -> str:
    try:
        fn = FIGURE_TARGETS[target]
    except KeyError:
        raise ValueError(
            f"unknown figure target {target!r}; choose from {sorted(FIGURE_TARGETS)}"
        ) from None
    return fn(model)
