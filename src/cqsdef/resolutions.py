"""Partial resolutions: the two-dimensional fans attached to chains
representing zero, fan decompositions giving simultaneous resolutions of
the one-parameter deformations, and canonical models, certified by the
strict convexity of their fans across every wall.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

from .lattice import Cone2, InvariantError, IVec2, Ratio, cone_normal_form, dot2, ratio_text
from .cqs import CqsModel, display_n_point
from .chains import ZeroChain
from .minkowski import Decomposition, check_lattice_ends, Segment, segment
from .totalspace import Deformation, components_of, split_depth
from .geometry3 import Cone3, cross3, dot3, is_canonical_cone3
from .record import Record


# ---------------------------------------------------------------------------
# the two-dimensional fan of a zero chain
# ---------------------------------------------------------------------------


class TauCone(Record):
    """Cone number i of the fan, bounded by the rays at heights alpha_i
    with respect to w^i; right is the boundary toward the (1,0)-ray."""

    def __new__(cls, i: int, ray_right: IVec2, ray_left: IVec2, alpha: int, roof_len: int):
        return tuple.__new__(cls, (i, ray_right, ray_left, alpha, roof_len))

    @property
    def degenerate(self) -> bool:
        return self.ray_left == self.ray_right

    def cone2(self) -> Cone2:
        if self.degenerate:
            raise ValueError(f"tau_{self.i} is degenerate")
        return Cone2(self.ray_right, self.ray_left)

    @cached_property
    def at_most_rdp(self) -> bool:
        """At most a rational double point: smooth (n = 1) or q = n - 1 in normal form."""
        n, q = cone_normal_form(self.cone2())
        return n == 1 or q == n - 1


class PResolutionFan(Record):
    """Fan refining the singularity cone, one (possibly degenerate) cone
    per chain index, with roofs of lattice length (a_i - k_i)*alpha_i at
    height alpha_i."""

    __slots__ = ()

    def __new__(
        cls, model: CqsModel, k: ZeroChain, rays: tuple[IVec2, ...], cones: tuple[TauCone, ...]
    ):
        return tuple.__new__(cls, (model, k, rays, cones))

    def cone_at(self, i: int) -> TauCone:
        return self.cones[i - 2]

    def to_json(self) -> dict:
        return {
            "k": list(self.k.k),
            "rays": [list(v) for v in self.rays],
            "rays_display": [
                [ratio_text(*r) for r in display_n_point(v, self.model)] for v in self.rays
            ],
            "cones": [
                {
                    "i": t.i,
                    "alpha": t.alpha,
                    "roof_length": t.roof_len,
                    "degenerate": t.degenerate,
                }
                for t in self.cones
            ],
        }


def p_resolution_fan(model: CqsModel, k: ZeroChain) -> PResolutionFan:
    return model.cached(("p_resolution", k.k), lambda: _build_p_resolution(model, k))


def _build_p_resolution(model: CqsModel, k: ZeroChain) -> PResolutionFan:
    e = model.e
    boundary: list[IVec2] = [(1, 0)]
    for j in range(2, e - 1):
        (xj, yj), (xn, yn) = model.wgen(j), model.wgen(j + 1)
        det = xj * yn - yj * xn
        if det not in (1, -1):
            raise InvariantError(f"w^{j} and w^{j + 1} span a sublattice of index {abs(det)}")
        aj, an = k.alpha_at(j), k.alpha_at(j + 1)
        ray = (det * (yn * aj - yj * an), det * (-xn * aj + xj * an))
        if math.gcd(*ray) != 1:
            raise InvariantError(f"interior ray {ray} is not primitive")
        if not model.sigma.contains(ray):
            raise InvariantError(f"interior ray {ray} leaves the cone")
        boundary.append(ray)
    boundary.append((-model.q, model.n))

    cones = []
    for i in range(2, e):
        right, left = boundary[i - 2], boundary[i - 1]
        alpha = k.alpha_at(i)
        w_i, w_next = model.wgen(i), model.wgen(i + 1)
        if dot2(right, w_i) != alpha or dot2(left, w_i) != alpha:
            raise RuntimeError(f"the roof of tau_{i} is not at height alpha_{i} = {alpha}")
        # the roof lies on <x, w^i> = alpha, whose direction is 1 on w^{i+1}
        roof_len = dot2(right, w_next) - dot2(left, w_next)
        if roof_len < 0 or roof_len != (model.a(i) - k.k_at(i)) * alpha:
            raise RuntimeError(f"tau_{i} has roof length {roof_len}")
        cones.append(
            TauCone(i=i, ray_right=right, ray_left=left, alpha=alpha, roof_len=roof_len)
        )

    rays = tuple(dict.fromkeys(boundary))
    return PResolutionFan(model=model, k=k, rays=rays, cones=tuple(cones))


# ---------------------------------------------------------------------------
# fan decompositions and the three-dimensional fans they assemble
# ---------------------------------------------------------------------------


class PieceDecomposition(Record):
    """Decomposition of the slice of one fan cone, in the global canonical
    coordinates of the full slice; ends0 and ends1 hold the ends of its
    two summands as integer ratios, as in Decomposition."""

    __slots__ = ()

    def __new__(
        cls, i: int, ends0: tuple[Ratio, Ratio], ends1: tuple[Ratio, Ratio], degenerate: bool
    ):
        return tuple.__new__(cls, (i, ends0, ends1, degenerate))


class FanDecomposition(Record):
    """Per-cone Minkowski decompositions S^d_{h,p}[k] / Sbar^d_h[k] of the
    slice decomposition decomp, whose offsets make consecutive summand
    pieces share endpoints."""

    __slots__ = ()

    def __new__(
        cls,
        k: ZeroChain,
        decomp: Decomposition,
        fan: PResolutionFan,
        pieces: tuple[PieceDecomposition, ...],
    ):
        return tuple.__new__(cls, (k, decomp, fan, pieces))

    @property
    def label(self) -> str:
        dec = self.decomp
        k_str = ",".join(str(c) for c in self.k.k)
        if dec.kind == "D":
            return f"S_{{{dec.h},{dec.p}}}^{dec.d}[{k_str}]"
        return f"Sbar_{{{dec.h}}}^{dec.d}[{k_str}]"

    def to_json(self) -> dict:
        dec = self.decomp
        return {
            "label": self.label,
            "kind": "S" if dec.kind == "D" else "Sbar",
            "k": list(self.k.k),
            "h": dec.h,
            "p": dec.p,
            "d": dec.d,
            "pieces": [
                {
                    "i": pc.i,
                    "s0": [ratio_text(*r) for r in pc.ends0],
                    "s1": [ratio_text(*r) for r in pc.ends1],
                }
                for pc in self.pieces
            ],
        }


def fan_decomposition(model: CqsModel, k: ZeroChain, decomp: Decomposition) -> FanDecomposition:
    """Decompose every cone slice so the pieces assemble to decomp: away
    from index h one summand is a point, at h the slice splits by the
    depth split_depth gives.  Raises ValueError when the deformation of
    decomp does not map to the component of k."""
    return model.cached(
        ("fan_decomposition", k.k, decomp),
        lambda: _build_fan_decomposition(model, k, decomp),
    )


def _build_fan_decomposition(
    model: CqsModel, k: ZeroChain, decomp: Decomposition
) -> FanDecomposition:
    depth = split_depth(model, k, decomp)
    if depth is None:
        raise ValueError(f"{decomp.label} does not map to the component of {k.k}")
    h = decomp.h
    gap = model.a(h) - k.k_at(h)
    intervals = slice_intervals(model, k, h)
    (ln, ld), (rn, rd) = intervals[h]
    if rn * ld - ln * rd != gap * ld * rd:
        length = ratio_text(rn * ld - ln * rd, ld * rd)
        raise InvariantError(f"slice at h has length {length}, expected {gap}")

    # Every piece end is a slice end less an integer: depth, or the
    # integer right end cut of a Dbar's first summand (were that end not
    # an integer, the check below would fail).
    num, den = decomp.ends0[1]
    cut = num // den
    point0, point_d, point_cut = (0, 1), (depth, 1), (cut, 1)
    pieces = []
    for i, (left, right) in intervals.items():  # left to right
        if i > h:
            ends0, ends1 = (left, right), (point0, point0)
        elif i == h:
            ends0, ends1 = (left, _less(right, depth)), (point0, point_d)
        elif decomp.kind == "D":
            ends0, ends1 = (_less(left, depth), _less(right, depth)), (point_d, point_d)
        else:
            ends0, ends1 = (point_cut, point_cut), (_less(left, cut), _less(right, cut))
        pieces.append(
            PieceDecomposition(i=i, ends0=ends0, ends1=ends1, degenerate=_same(left, right))
        )
    # each summand's pieces run contiguously from decomp's left end to its right end
    for s, (first, last) in enumerate((decomp.ends0, decomp.ends1)):
        runs = [(pc.ends0, pc.ends1)[s] for pc in pieces]
        joints = zip([first] + [r[1] for r in runs], [r[0] for r in runs] + [last])
        if not all(_same(x, y) for x, y in joints):
            raise InvariantError(f"the pieces do not add up to {decomp.label}")
    pieces.sort(key=lambda pc: pc.i)

    fd = FanDecomposition(
        k=k, decomp=decomp, fan=p_resolution_fan(model, k), pieces=tuple(pieces)
    )
    _validate_piece_admissibility(fd)
    return fd


def slice_intervals(model: CqsModel, k: ZeroChain, h: int) -> dict[int, tuple[Ratio, Ratio]]:
    """The slice interval of every cone of the fan of k, in the global
    canonical coordinates of the slice at w^h, keyed by cone index from
    left to right; each end is the ratio Segment.coord gives for a ray."""
    return model.cached(
        ("slice_intervals", k.k, h),
        lambda: _build_slice_intervals(segment(model, h), p_resolution_fan(model, k).cones),
    )


def _build_slice_intervals(
    seg: Segment, cones: Sequence[TauCone]
) -> dict[int, tuple[Ratio, Ratio]]:
    intervals: dict[int, tuple[Ratio, Ratio]] = {}
    for tau in sorted(cones, key=lambda t: -t.i):  # left to right
        left, right = seg.coord(tau.ray_left), seg.coord(tau.ray_right)
        if left[0] * right[1] > right[0] * left[1]:
            raise RuntimeError(f"slice of tau_{tau.i} runs right to left")
        intervals[tau.i] = (left, right)
    ends = list(intervals.values())
    for prev, nxt in zip(ends, ends[1:]):
        if not _same(prev[1], nxt[0]):
            raise RuntimeError("slices are not adjacent")
    if not (_same(ends[0][0], seg.ends[0]) and _same(ends[-1][1], seg.ends[1])):
        raise RuntimeError("slices do not cover the slice from beta to gamma")
    return intervals


def _same(x: Ratio, y: Ratio) -> bool:
    """Whether two ratios are the same number."""
    return x[0] * y[1] == y[0] * x[1]


def _less(x: Ratio, c: int) -> Ratio:
    """The ratio x less the integer c, over the same denominator."""
    return x[0] - c * x[1], x[1]


def _validate_piece_admissibility(fd: FanDecomposition) -> None:
    p = fd.decomp.p
    for pc in fd.pieces:
        check_lattice_ends(pc.ends0, pc.ends1, p, lambda: f"{fd.label}: piece {pc.i}")


class MaxCone3(Record):
    __slots__ = ()

    def __new__(cls, tau_index: int, cone: Cone3, canonical: bool, rdp_or_smooth: bool):
        return tuple.__new__(cls, (tau_index, cone, canonical, rdp_or_smooth))

    @property
    def qgorenstein(self) -> bool:
        return self.cone.gorenstein_ratio is not None

    def to_json(self) -> dict:
        return {
            "tau_index": self.tau_index,
            "rays": self.cone.to_json(),
            "qgorenstein": self.qgorenstein,
            "canonical": self.canonical,
            "rdp_or_smooth": self.rdp_or_smooth,
        }


class Fan3(Record):
    """A three-dimensional fan with support the total-space cone."""

    __slots__ = ()

    def __new__(cls, support: Cone3, cones: tuple[MaxCone3, ...]):
        return tuple.__new__(cls, (support, cones))

    @property
    def all_canonical(self) -> bool:
        return all(c.canonical for c in self.cones)

    def to_json(self) -> dict:
        return {
            "support": self.support.to_json(),
            "cones": [c.to_json() for c in self.cones],
        }


def assemble_fan3(fd: FanDecomposition, defo: Deformation) -> Fan3:
    """Cone over each per-cone decomposition; the full-dimensional cones
    tile the total-space cone of defo, the deformation of fd.decomp."""
    if defo.model != fd.fan.model or defo.decomp != fd.decomp:
        raise ValueError(f"{defo.label} is not the deformation of {fd.label}")
    cones = []
    for pc in fd.pieces:
        if pc.degenerate:
            continue
        cone = Cone3.over_summands(pc.ends0, pc.ends1, fd.decomp.p, defo.m0)
        if cone.gorenstein_ratio is None:
            raise RuntimeError(f"{fd.label}: the cone over piece {pc.i} is not Q-Gorenstein")
        cones.append(
            MaxCone3(
                tau_index=pc.i,
                cone=cone,
                canonical=is_canonical_cone3(cone),
                rdp_or_smooth=fd.fan.cone_at(pc.i).at_most_rdp,
            )
        )

    support = defo.sigma_prime
    for mc in cones:
        if not all(support.contains(g) for g in mc.cone.generators):
            raise RuntimeError(f"{fd.label}: the cone over piece {mc.tau_index} leaves the support")
    _check_fan_interfaces(cones)
    return Fan3(support=support, cones=tuple(cones))


def _walls(cones: Sequence[MaxCone3]) -> list[tuple[MaxCone3, MaxCone3]]:
    """The consecutive cones of a fan, left to right: the pairs of cones
    that share a wall."""
    ordered = sorted(cones, key=lambda c: -c.tau_index)
    return list(zip(ordered, ordered[1:]))


def _check_fan_interfaces(cones: list[MaxCone3]) -> None:
    """Consecutive cones must lie on opposite sides of their common face."""
    for left, right in _walls(cones):
        shared = [g for g in left.cone.generators if g in right.cone.generators]
        if len(shared) < 2:
            raise InvariantError("adjacent cones share no 2D face")
        nrm = cross3(shared[0], shared[1])
        if nrm == (0, 0, 0):
            raise InvariantError("adjacent cones share only a ray")
        sides_l = {s for g in left.cone.generators if (s := _sign(dot3(nrm, g))) != 0}
        sides_r = {s for g in right.cone.generators if (s := _sign(dot3(nrm, g))) != 0}
        if len(sides_l) > 1 or len(sides_r) > 1:
            raise InvariantError("a cone lies on both sides of its common face")
        if sides_l and sides_l == sides_r:
            raise InvariantError("adjacent cones overlap")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# canonical models
# ---------------------------------------------------------------------------


def _canonical_predicate(defo: Deformation, k: ZeroChain) -> bool:
    """Combinatorial criterion for the fan decomposition over k to give
    the canonical model of the deformation's total space."""
    model, h = defo.model, defo.h
    fan = p_resolution_fan(model, k)
    for tau in fan.cones:
        if tau.i == h or tau.degenerate:
            continue
        if not tau.at_most_rdp:
            return False
    if split_depth(model, k, defo.decomp) == model.a(h) - k.k_at(h):
        return True
    tau_h = fan.cone_at(h)
    return (not tau_h.degenerate) and tau_h.at_most_rdp


def canonical_model(defo: Deformation) -> tuple[ZeroChain, Fan3]:
    """The component whose simultaneous resolution is the canonical model
    of the total space, with the resolved fan.

    The combinatorial choice is certified to be the fan of the bounded
    faces of the hull of the nonzero lattice points of sigma': its cones
    are Q-Gorenstein, canonical and tile sigma' (assemble_fan3 and
    all_canonical), and the function that is each cone's Gorenstein
    functional on that cone is strictly convex across every wall
    (_convex_across_walls).  That function is then the minimum of the
    functionals, so {x in sigma' : psi(x) >= 1} is convex; it holds every
    nonzero lattice point, by canonicity, and is the union of
    conv(generators) + cone over the cones, so it is the hull, and its
    bounded facets are exactly the roofs of the cones.  Conversely the
    hull fan is strictly convex across its walls, so the certificate
    fails exactly when the fan differs from the hull fan.
    """
    winners = [k for k in components_of(defo) if _canonical_predicate(defo, k)]
    if len(winners) != 1:
        raise RuntimeError(
            f"{defo.label}: expected exactly one canonical component, got "
            f"{[k.k for k in winners]}"
        )
    k = winners[0]
    fan = assemble_fan3(fan_decomposition(defo.model, k, defo.decomp), defo)
    if not fan.all_canonical:
        raise RuntimeError(f"{defo.label}: chosen fan for {k.k} is not canonical")
    if not _convex_across_walls(fan.cones):
        raise RuntimeError(
            f"{defo.label}: predicate and hull canonical models disagree"
        )
    return k, fan


def _convex_across_walls(cones: Sequence[MaxCone3]) -> bool:
    """Whether, for every wall, the Gorenstein functional of each of its
    two cones exceeds 1 on every generator of the other cone off the wall:
    the piecewise-linear function that is 1 on every generator is then
    strictly convex across the wall, in the toric sense (it is the smaller
    of the two functionals near the wall).  Every cone must be
    Q-Gorenstein."""
    for left, right in _walls(cones):
        for cone, other in ((left.cone, right.cone), (right.cone, left.cone)):
            nx, ny, nz, den = cone.gorenstein_ratio
            for g in other.generators:
                if g not in cone.generators and nx * g[0] + ny * g[1] + nz * g[2] <= den:
                    return False
    return True


def lattice_points_right(model: CqsModel, k: ZeroChain, h: int) -> int:
    """Number of slice lattice points strictly to the right of the cone at
    index h, counted geometrically."""
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
