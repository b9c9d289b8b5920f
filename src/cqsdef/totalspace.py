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


class Poly:
    """Polynomial in the base-curve parameter with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, int]] = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({0: c})

    @classmethod
    def lam(cls, coeff: int = 1, power: int = 1) -> "Poly":
        return cls({power: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return Poly(out)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def pow(self, n: int) -> "Poly":
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def to_json(self) -> list[list[int]]:
        return [[e, c] for e, c in sorted(self.coeffs.items())]


# ---------------------------------------------------------------------------
# the total-space cone
# ---------------------------------------------------------------------------


class Deformation(Record):
    """A one-parameter toric deformation built from a slice decomposition.

    The cone is presented so that the lattice origin of the slice sits
    where the next dual generator w^{h+1} vanishes: sigma_prime is built
    over the first summand of the stored decomposition shifted by m0.  The
    parameter realizes the difference of the monomials of degrees (0, 0, 1)
    and (0, p, 0).

    sigma_prime is built on first read and kept on the instance, together
    with its check that phi maps sigma into it; a scan row never reads it.
    """

    def __new__(cls, model: CqsModel, decomp: Decomposition, m0: int):
        return tuple.__new__(cls, (model, decomp, m0))

    @cached_property
    def sigma_prime(self) -> Cone3:
        dec = self.decomp
        cone = Cone3.over_summands(dec.ends0, dec.ends1, dec.p, self.m0)
        for ray in (self.model.sigma.ray1, self.model.sigma.ray2):
            x, y, z = self.phi(ray)
            for r0, r1, r2 in cone.dual_rays:
                if r0 * x + r1 * y + r2 * z < 0:
                    raise RuntimeError(f"{self.label}: slice embedding left the cone")
        return cone

    @property
    def kind(self) -> str:
        return self.decomp.kind

    @property
    def h(self) -> int:
        return self.decomp.h

    @property
    def p(self) -> int:
        return self.decomp.p

    @property
    def d(self) -> int:
        return self.decomp.d

    @property
    def label(self) -> str:
        return self.decomp.label

    def degree_display(self) -> tuple[int, int]:
        u1, u2 = to_display_coords(self.model.wgen(self.h), self.model)
        return (self.p * u1, self.p * u2)

    def phi(self, v: IVec2) -> IVec3:
        """The lattice embedding of the base surface into the total space."""
        w, w_next = self.model.w[self.h - 1], self.model.w[self.h]  # w^h, w^{h+1}
        t = dot2(v, w)
        return (dot2(v, w_next), t, self.p * t)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "h": self.h,
            "p": self.p,
            "d": self.d,
            "degree_display": list(self.degree_display()),
            "decomposition": self.decomp.to_json(),
            "sigma_prime_rays": self.sigma_prime.to_json(),
        }


def build_deformation(model: CqsModel, decomp: Decomposition) -> Deformation:
    """The deformation of a decomposition: the decomposition and the shift
    m0 of its slice.  The 3D cone over the two summands, sigma_prime, and
    its slice-embedding check wait for the first read."""
    return Deformation(model=model, decomp=decomp, m0=segment(model, decomp.h).m0)


def all_deformations(model: CqsModel) -> list[Deformation]:
    return [build_deformation(model, dec) for dec in enum_decompositions(model)]


# ---------------------------------------------------------------------------
# dual-semigroup generators and their relations
# ---------------------------------------------------------------------------


class GeneratorRelations(Record):
    """Dual vectors v^1..v^e and the extra vtilde, with the relations among
    them verified by exact arithmetic, each as (description, value of
    both sides)."""

    __slots__ = ()

    def __new__(
        cls, v: tuple[IVec3, ...], v_tilde: IVec3, relations: tuple[tuple[str, IVec3], ...]
    ):
        return tuple.__new__(cls, (v, v_tilde, relations))

    def to_json(self) -> dict:
        return {
            "v": [list(x) for x in self.v],
            "v_tilde": list(self.v_tilde),
            "relations": [
                {"relation": desc, "value": list(value)} for desc, value in self.relations
            ],
        }


def generator_relations(defo: Deformation) -> GeneratorRelations:
    """Lift each dual generator of the surface into the dual of the total
    space cone: v^h = [0,1,0], vtilde^h = [0,0,1], v^{h+1} = [1,0,0] and
    v^{h-1} = [-1, a_h - p*d, d], the rest following the three-term
    recurrences appropriate to the decomposition kind."""
    model, h, p, d = defo.model, defo.h, defo.p, defo.d
    e = model.e
    seg = segment(model, h)
    dx, dy = seg.direction
    bx, by = seg.point_at(-seg.m0)  # lattice point where w^{h+1} vanishes

    x = [0] + [dx * wx + dy * wy for wx, wy in model.w]
    y = [0] + [bx * wx + by * wy for wx, wy in model.w]
    if (x[h], y[h], x[h + 1], y[h + 1]) != (0, 1, 1, 0):
        raise RuntimeError(f"{defo.label}: the slice frame does not fit w^{h} and w^{h + 1}")

    u3 = [0] * (e + 1)
    if h >= 2:
        u3[h - 1] = d
    if defo.kind == "D":
        for i in range(h - 1, 1, -1):
            u3[i - 1] = model.a(i) * u3[i] - u3[i + 1]
    else:
        if h >= 3:
            u3[h - 2] = model.a(h - 1) * d - 1
        for i in range(h - 2, 1, -1):
            u3[i - 1] = model.a(i) * u3[i] - u3[i + 1]

    v = [None] + [(x[i], y[i] - p * u3[i], u3[i]) for i in range(1, e + 1)]
    v_tilde: IVec3 = (0, 0, 1)
    if v[h] != (0, 1, 0) or v[h + 1] != (1, 0, 0) or v[h - 1] != (-1, model.a(h) - p * d, d):
        raise RuntimeError(f"{defo.label}: v^{h - 1}, v^{h}, v^{h + 1} are not the lifts")

    gens = defo.sigma_prime.generators
    for i, (v0, v1, v2) in [*enumerate(v[1:], 1), ("tilde", v_tilde)]:
        if any(g0 * v0 + g1 * v1 + g2 * v2 < 0 for g0, g1, g2 in gens):
            raise RuntimeError(f"{defo.label}: v^{i} is not in the dual cone")

    relations = []

    def rel(desc, lhs, rhs):
        if lhs != rhs:
            raise RuntimeError(f"{defo.label}: relation {desc} fails: {lhs} != {rhs}")
        relations.append((desc, lhs))

    skip = {h} if defo.kind == "D" else {h - 1, h}
    for i in range(2, e):
        if i in skip:
            continue
        rel(
            f"v{i - 1} + v{i + 1} = {model.a(i)} v{i}",
            add3(v[i - 1], v[i + 1]),
            tuple(model.a(i) * c for c in v[i]),
        )
    if defo.kind == "Dbar":
        rel(
            f"v{h - 2} + vtilde = {model.a(h - 1)} v{h - 1}",
            add3(v[h - 2], v_tilde),
            tuple(model.a(h - 1) * c for c in v[h - 1]),
        )
    m = model.a(h) - p * d
    rel(
        f"v{h - 1} + v{h + 1} = {m} v{h} + {d} vtilde",
        add3(v[h - 1], v[h + 1]),
        tuple(m * a + d * b for a, b in zip(v[h], v_tilde)),
    )
    return GeneratorRelations(v=tuple(v[1:]), v_tilde=v_tilde, relations=tuple(relations))


# ---------------------------------------------------------------------------
# explicit equations
# ---------------------------------------------------------------------------


class Equation(Record):
    """One defining equation of the total space in the chart coordinates.

    form "binomial":  x_{i-1} x_{i+1} = x_i^a
    form "main":      x_{h-1} x_{h+1} = x_h^m (x_h^p + lam)^d
    form "bar_side":  x_{h-2} (x_h + lam) = x_{h-1}^a
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

    def to_json(self) -> dict:
        out = {"form": self.form, "i": self.i, "text": str(self)}
        if self.form in ("binomial", "bar_side"):
            out["a"] = self.a
        else:
            out.update({"m": self.m, "p": self.p, "d": self.d})
        return out


def deformation_equations(defo: Deformation) -> tuple[Equation, ...]:
    """The e-2 equations cutting out the deformed surface."""
    model, h, p, d = defo.model, defo.h, defo.p, defo.d
    eqs = []
    for i in range(2, model.e):
        if i == h:
            m = model.a(h) - p * d
            eqs.append(Equation(form="main", i=h, m=m, p=p, d=d))
        elif defo.kind == "Dbar" and i == h - 1:
            # x_{h-2} (x_h + lam) = x_{h-1}^{a_{h-1}}; stored with i = h-1
            # so that str() renders the neighbours of x_{h-1}.
            eqs.append(Equation(form="bar_side", i=h - 1, a=model.a(h - 1)))
        else:
            eqs.append(Equation(form="binomial", i=i, a=model.a(i)))
    if len(eqs) != model.e - 2:
        raise InvariantError(f"{defo.label}: {len(eqs)} equations, not {model.e - 2}")
    return tuple(eqs)


# ---------------------------------------------------------------------------
# maps to the versal family and component membership
# ---------------------------------------------------------------------------


class VersalMap(Record):
    """Assignment of base-curve polynomials to the versal deformation
    parameters s_i^(l) (1 < i < e, 1 <= l < a_i) and t_j (2 < j < e-1);
    parameters not present are zero.  The two dicts, new and empty by
    default, are filled in place."""

    __slots__ = ()

    def __new__(
        cls, s: Optional[dict[tuple[int, int], Poly]] = None, t: Optional[dict[int, Poly]] = None
    ):
        return tuple.__new__(cls, ({} if s is None else s, {} if t is None else t))

    def s_at(self, i: int, l: int) -> Poly:
        return self.s.get((i, l), Poly())

    def t_at(self, j: int) -> Poly:
        return self.t.get(j, Poly())

    def to_json(self) -> dict:
        return {
            "s": {f"s_{i}^({l})": poly.to_json() for (i, l), poly in sorted(self.s.items())},
            "t": {f"t_{j}": poly.to_json() for j, poly in sorted(self.t.items())},
        }


def versal_map(defo: Deformation) -> VersalMap:
    """The map of the parameter line into the versal base inducing the
    deformation: s_h^(p*l) = C(d,l) lam^l for the plain kind; t_h = lam
    and s_h^(l) = C(d-1,l) lam^l for the barred kind."""
    h, p, d = defo.h, defo.p, defo.d
    vm = VersalMap()
    if defo.kind == "D":
        for l in range(1, d + 1):
            vm.s[(h, p * l)] = Poly.lam(math.comb(d, l), l)
    else:
        vm.t[h] = Poly.lam()
        for l in range(1, d):
            vm.s[(h, l)] = Poly.lam(math.comb(d - 1, l), l)
    return vm


def theta_rewrite(k: ZeroChain, vm: VersalMap, model: CqsModel) -> VersalMap:
    """Express a parameter curve in the coordinates adapted to the
    component of k, by inverting the triangular substitution

        s_i^(l) -> sum_j C(alpha_{i-1}-1, j) t_i^j s_i^(l-j).
    """
    out = VersalMap(t=dict(vm.t))
    for i in range(2, model.e):
        alpha_prev = k.alpha_at(i - 1)
        t_i = vm.t_at(i)
        solved: dict[int, Poly] = {0: Poly.const(1)}
        for l in range(1, model.a(i)):
            val = vm.s_at(i, l)
            for j in range(1, min(l, alpha_prev - 1) + 1):
                val = val - math.comb(alpha_prev - 1, j) * (t_i.pow(j) * solved[l - j])
            solved[l] = val
            if not val.is_zero():
                out.s[(i, l)] = val
    return out


def lies_in_component(k: ZeroChain, rewritten: VersalMap, model: CqsModel) -> bool:
    """Component equations in the adapted coordinates: s_i^(l) = 0 for
    l > a_i - k_i, and t_i = 0 wherever alpha_i != 1."""
    for i in range(2, model.e):
        for l in range(model.a(i) - k.k_at(i) + 1, model.a(i)):
            if not rewritten.s_at(i, l).is_zero():
                return False
    for j in range(3, model.e - 1):
        if k.alpha_at(j) != 1 and not rewritten.t_at(j).is_zero():
            return False
    return True


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


def components_of(defo: Deformation) -> list[ZeroChain]:
    """Closed-form list of the reduced versal base components the
    deformation maps to."""
    model = defo.model
    return [k for k in enumerate_K(model) if split_depth(model, k, defo.decomp) is not None]


def components_of_symbolic(defo: Deformation) -> list[ZeroChain]:
    """Membership decided through the versal map and the coordinate
    change; must agree with components_of."""
    vm = versal_map(defo)
    out = []
    for k in enumerate_K(defo.model):
        if lies_in_component(k, theta_rewrite(k, vm, defo.model), defo.model):
            out.append(k)
    return out


def nu_count(model: CqsModel, k: ZeroChain, h: int, p: int) -> int:
    """Number of one-parameter toric deformations in degree p*w^h mapping
    to the component of k."""
    gap = model.a(h) - k.k_at(h)
    if p == 1 and k.alpha_at(h) == 1 and 3 <= h <= model.e - 2:
        return 2 * gap + 1
    return gap // p
