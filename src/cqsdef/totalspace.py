"""Three-dimensional total spaces of the one-parameter deformations: the
cone over the two Minkowski summands, its dual-semigroup generators and
relations, the explicit equations, the maps into the versal family, and
the versal-component membership logic.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

from .lattice import InvariantError, IVec2, dot2
from .cqs import CqsModel, to_display_coords
from .chains import ZeroChain, enumerate_K
from .minkowski import Decomposition, segment, enum_decompositions
from .geometry3 import Cone3, IVec3, add3
from .record import Record


# ---------------------------------------------------------------------------
# sparse integer polynomials in the deformation parameter
# ---------------------------------------------------------------------------


class Poly(Record):
    """Polynomial in the base-curve parameter with integer coefficients,
    given as a dict of coefficients by power or as its (power, coeff)
    pairs; coeffs holds the nonzero pairs, sorted by power."""

    __slots__ = ()

    def __new__(cls, coeffs: dict[int, int]):
        return tuple.__new__(cls, (tuple(sorted((e, c) for e, c in dict(coeffs).items() if c)),))

    @classmethod
    def lam(cls, coeff: int = 1, power: int = 1) -> "Poly":
        return cls({power: coeff})

    def to_json(self) -> list[list[int]]:
        return [[e, c] for e, c in self.coeffs]


# ---------------------------------------------------------------------------
# the total-space cone
# ---------------------------------------------------------------------------


class Deformation(Record):
    """A one-parameter toric deformation built from a slice decomposition:
    the record (model, decomp), whose facts are decomp's fields.

    The cone is presented so that the lattice origin of the slice sits
    where the next dual generator w^{h+1} vanishes: sigma_prime is built
    over the first summand of the stored decomposition shifted by the
    slice's shift segment(model, h).m0, which only the 3D cones read.
    The parameter realizes the difference of the monomials of degrees
    (0, 0, 1) and (0, p, 0).

    sigma_prime is built on first read and kept on the instance, together
    with its check that phi maps sigma into it; a scan row never reads it.
    """

    def __new__(cls, model: CqsModel, decomp: Decomposition):
        return tuple.__new__(cls, (model, decomp))

    @cached_property
    def sigma_prime(self) -> Cone3:
        model, dec = self
        cone = Cone3.over_summands(dec.ends0, dec.ends1, dec.p, segment(model, dec.h).m0)
        for ray in (model.sigma.ray1, model.sigma.ray2):
            x, y, z = self.phi(ray)
            for r0, r1, r2 in cone.dual_rays:
                if r0 * x + r1 * y + r2 * z < 0:
                    raise InvariantError(f"{dec.label}: slice embedding left the cone")
        return cone

    def degree_display(self) -> tuple[int, int]:
        model, dec = self
        u1, u2 = to_display_coords(model.wgen(dec.h), model)
        return (dec.p * u1, dec.p * u2)

    def phi(self, v: IVec2) -> IVec3:
        """The lattice embedding of the base surface into the total space."""
        model, dec = self
        w, w_next = model.w[dec.h - 1], model.w[dec.h]  # w^h, w^{h+1}
        t = dot2(v, w)
        return (dot2(v, w_next), t, dec.p * t)

    def to_json(self) -> dict:
        dec = self.decomp
        return {
            "label": dec.label,
            "kind": dec.kind,
            "h": dec.h,
            "p": dec.p,
            "d": dec.d,
            "degree_display": list(self.degree_display()),
            "decomposition": dec.to_json(),
            "sigma_prime_rays": self.sigma_prime.to_json(),
        }


def build_deformation(model: CqsModel, decomp: Decomposition) -> Deformation:
    """The deformation of a decomposition.  It looks up no slice: the 3D
    cone over the two summands, sigma_prime, its slice-embedding check and
    the slice's m0 wait for the first read."""
    return Deformation._make((model, decomp))


def all_deformations(model: CqsModel) -> list[Deformation]:
    return [build_deformation(model, dec) for dec in enum_decompositions(model)]


# ---------------------------------------------------------------------------
# dual-semigroup generators and their relations
# ---------------------------------------------------------------------------


class GeneratorRelations(Record):
    """Dual vectors v^1..v^e and the extra vtilde, and one (Equation,
    value) pair per equation of deformation_equations, in index order:
    the value of both sides of its lattice relation, checked exactly."""

    __slots__ = ()

    def __new__(
        cls, v: tuple[IVec3, ...], v_tilde: IVec3, relations: tuple[tuple[Equation, IVec3], ...]
    ):
        return tuple.__new__(cls, (v, v_tilde, relations))

    def to_json(self) -> dict:
        # binomials, then the bar-side relation at h-1 and the main one at h
        ordered = sorted(self.relations, key=lambda rel: rel[0].form != "binomial")
        return {
            "v": [list(x) for x in self.v],
            "v_tilde": list(self.v_tilde),
            "relations": [
                {"relation": eq.relation_text(), "value": list(value)} for eq, value in ordered
            ],
        }


def generator_relations(defo: Deformation) -> GeneratorRelations:
    """Lift each dual generator of the surface into the dual of the total
    space cone: v^h = [0,1,0], vtilde^h = [0,0,1], v^{h+1} = [1,0,0] and
    v^{h-1} = [-1, a_h - p*d, d], the rest read off deformation_equations,
    the owner of the equation rule.  Each equation is checked as the
    lattice relation of its monomials; a mismatch raises InvariantError
    naming the deformation and the relation."""
    model, dec = defo
    h, p, d = dec.h, dec.p, dec.d
    e = model.e
    eqs = deformation_equations(defo)
    (hx, hy), (nx, ny) = model.w[h - 1], model.w[h]  # w^h, w^{h+1}
    # x_i = det(w^i, w^h) and y_i = det(w^{h+1}, w^i): x_h = y_{h+1} = 0,
    # and x_{h+1} = y_h = det(w^{h+1}, w^h) is the one value to check
    if nx * hy - ny * hx != 1:
        raise InvariantError(f"{dec.label}: the lift frame does not fit w^{h} and w^{h + 1}")
    x = [0] + [wx * hy - wy * hx for wx, wy in model.w]
    y = [0] + [nx * wy - ny * wx for wx, wy in model.w]

    # Third coordinates down from the main equation: below h, u3[i-1] =
    # a_i u3[i] - u3[i+1], vtilde's 1 taking u3[i+1]'s place if bar-side.
    u3 = [0] * (e + 1)
    u3[h - 1] = eqs[h - 2].d
    for form, i, a, _, _, _ in reversed(eqs[: h - 2]):
        u3[i - 1] = a * u3[i] - (1 if form == "bar_side" else u3[i + 1])

    v = [None] + [(x[i], y[i] - p * u3[i], u3[i]) for i in range(1, e + 1)]
    v_tilde: IVec3 = (0, 0, 1)
    if v[h] != (0, 1, 0) or v[h + 1] != (1, 0, 0) or v[h - 1] != (-1, model.a(h) - p * d, d):
        raise InvariantError(f"{dec.label}: v^{h - 1}, v^{h}, v^{h + 1} are not the lifts")

    gens = defo.sigma_prime.generators
    for i, (v0, v1, v2) in [*enumerate(v[1:], 1), ("tilde", v_tilde)]:
        if any(g0 * v0 + g1 * v1 + g2 * v2 < 0 for g0, g1, g2 in gens):
            raise InvariantError(f"{dec.label}: v^{i} is not in the dual cone")

    # v^{i-1} + (vtilde or v^{i+1}) = (a or m) v^i + d vtilde, where a main
    # equation has a = 0 and the others have d = 0
    relations = []
    for eq in eqs:
        form, i, a, m, _, eq_d = eq
        (v0, v1, v2), c = v[i], a or m
        lhs = add3(v[i - 1], v_tilde if form == "bar_side" else v[i + 1])
        rhs = (c * v0, c * v1, c * v2 + eq_d)
        if lhs != rhs:
            raise InvariantError(
                f"{dec.label}: relation {eq.relation_text()} fails: {lhs} != {rhs}"
            )
        relations.append((eq, lhs))
    return GeneratorRelations(v=tuple(v[1:]), v_tilde=v_tilde, relations=tuple(relations))


# ---------------------------------------------------------------------------
# explicit equations
# ---------------------------------------------------------------------------


class Equation(Record):
    """One defining equation of the total space in the chart coordinates.

    form "binomial":  x_{i-1} x_{i+1} = x_i^a
    form "main":      x_{h-1} x_{h+1} = x_h^m (x_h^p + lam)^d
    form "bar_side":  x_{h-2} (x_h + lam) = x_{h-1}^a

    A main equation keeps a = 0, the others m = 0 and d = 0.
    """

    __slots__ = ()

    def __new__(cls, form: str, i: int, a: int = 0, m: int = 0, p: int = 1, d: int = 0):
        return tuple.__new__(cls, (form, i, a, m, p, d))

    def __str__(self) -> str:
        if self.form == "binomial":
            return f"x{self.i - 1}*x{self.i + 1} = x{self.i}^{self.a}"
        if self.form == "bar_side":
            return f"x{self.i - 1}*(x{self.i + 1} + lam) = x{self.i}^{self.a}"
        inner = f"x{self.i}^{self.p} + lam" if self.p > 1 else f"x{self.i} + lam"
        return f"x{self.i - 1}*x{self.i + 1} = x{self.i}^{self.m}*({inner})^{self.d}"

    def relation_text(self) -> str:
        """The lattice relation that the monomials rest on: v{i-1} + (vtilde
        if bar-side, else v{i+1}) = (a or m) v{i}, plus d vtilde if d > 0."""
        form, i, a, m, _, d = self
        right = "vtilde" if form == "bar_side" else f"v{i + 1}"
        text = f"v{i - 1} + {right} = {a or m} v{i}"
        return f"{text} + {d} vtilde" if d else text

    def to_json(self) -> dict:
        out = {"form": self.form, "i": self.i, "text": str(self)}
        if self.form in ("binomial", "bar_side"):
            out["a"] = self.a
        else:
            out.update({"m": self.m, "p": self.p, "d": self.d})
        return out


def deformation_equations(defo: Deformation) -> tuple[Equation, ...]:
    """The e-2 equations cutting out the deformed surface, one per
    interior index.  The one owner of the equation rule, as split_depth
    is of the component rule: the main equation at h, for the barred
    kind the bar-side equation at h-1, and binomials elsewhere."""
    model, dec = defo
    h, p, d = dec.h, dec.p, dec.d
    eqs = []
    for i in range(2, model.e):
        if i == h:
            eqs.append(Equation("main", h, 0, model.a(h) - p * d, p, d))
        elif dec.kind == "Dbar" and i == h - 1:
            # x_{h-2} (x_h + lam) = x_{h-1}^{a_{h-1}}; stored with i = h-1
            # so that str() renders the neighbours of x_{h-1}.
            eqs.append(Equation("bar_side", h - 1, model.a(h - 1)))
        else:
            eqs.append(Equation("binomial", i, model.a(i)))
    return tuple(eqs)


# ---------------------------------------------------------------------------
# maps to the versal family and component membership
# ---------------------------------------------------------------------------


class VersalMap(Record):
    """Assignment of base-curve polynomials to the versal deformation
    parameters s_i^(l) (1 < i < e, 1 <= l < a_i) and t_j (2 < j < e-1);
    parameters not present are zero.  Every value is a monomial
    Poly.lam(c, l)."""

    __slots__ = ()

    def __new__(cls, s: dict[tuple[int, int], Poly], t: dict[int, Poly]):
        return tuple.__new__(cls, (s, t))

    def to_json(self) -> dict:
        return {
            "s": {f"s_{i}^({l})": poly.to_json() for (i, l), poly in sorted(self.s.items())},
            "t": {f"t_{j}": poly.to_json() for j, poly in sorted(self.t.items())},
        }


def versal_map(defo: Deformation) -> VersalMap:
    """The map of the parameter line into the versal base inducing the
    deformation, read off its main equation: with bar = 1 for the barred
    kind and 0 for the plain one, s_h^(p*l) = C(d-bar, l) lam^l for
    1 <= l <= d-bar, and t_h = lam when bar = 1."""
    dec = defo.decomp
    h, p, d = dec.h, dec.p, dec.d
    bar = int(dec.kind == "Dbar")
    s = {(h, p * l): Poly.lam(math.comb(d - bar, l), l) for l in range(1, d - bar + 1)}
    return VersalMap(s, {h: Poly.lam()} if bar else {})


def split_depth(model: CqsModel, k: ZeroChain, decomp: Decomposition) -> Optional[int]:
    """The one owner of the component rule: the depth at which the slice
    at h splits over the fan of k, p*d for kind D and d - alpha_{h-1} for
    kind Dbar (interior h with alpha_h = 1 only), or None when the
    deformation of decomp does not map to the component of k.  The depth
    lies in 1..a_h - k_h for kind D and in 0..a_h - k_h for kind Dbar."""
    h = decomp.h
    if decomp.kind == "D":
        depth, least = decomp.p * decomp.d, 1
    elif 3 <= h <= model.e - 2 and k.alpha_at(h) == 1:
        depth, least = decomp.d - k.alpha_at(h - 1), 0
    else:
        return None
    return depth if least <= depth <= model.a(h) - k.k_at(h) else None


def components_of(model: CqsModel, decomp: Decomposition) -> list[ZeroChain]:
    """The reduced versal base components that the deformation of decomp
    maps to, keyed as split_depth and fan_decomposition are: the zero
    chains k of the model for which split_depth gives a depth.  The model
    keeps the answer, which a report reads twice per deformation."""
    return list(model.cached(("components_of", decomp), _build_components_of, model, decomp))


def _build_components_of(model: CqsModel, decomp: Decomposition) -> tuple[ZeroChain, ...]:
    return tuple(k for k in enumerate_K(model) if split_depth(model, k, decomp) is not None)


def nu_count(model: CqsModel, k: ZeroChain, h: int, p: int) -> int:
    """Number of one-parameter toric deformations in degree p*w^h mapping
    to the component of k."""
    gap = model.a(h) - k.k_at(h)
    if p == 1 and k.alpha_at(h) == 1 and 3 <= h <= model.e - 2:
        return 2 * gap + 1
    return gap // p
