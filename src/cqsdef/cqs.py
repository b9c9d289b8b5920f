"""The cyclic quotient singularity Y_(n,q) as a two-dimensional toric variety.

Internally everything lives in the plain lattice N = Z^2 with the cone
spanned by (1,0) and (-q,n) ("convention A").  The equivalent description
with N = Z^2 + Z*(1/n)(1,q) over the first quadrant ("convention B") is
used only when displaying coordinates.
"""

from __future__ import annotations

from math import gcd

from .lattice import Cone2, InvariantError, IVec2, Ratio, cf_expand, dual_cone, hilbert_basis_2d
from .record import Record

# The memo's marker for a key not yet built; no builder returns it.
_MISSING = object()


class InvalidSingularityError(ValueError):
    """The pair (n, q) does not define a singularity we handle."""


class HypersurfaceError(InvalidSingularityError):
    """q = n-1: the versal base space is irreducible and nothing here applies."""


class CqsModel(Record):
    """The singularity Y_(n,q) with its dual-generator data.

    a_chain is the Hirzebruch-Jung expansion of n/(n-q); w holds the
    Hilbert basis of the dual cone ordered so that w[0] = (0,1) and
    w[e-1] = (n,q), which makes w^{i-1} + w^{i+1} = a_i * w^i hold at
    every interior index.

    _memo holds, through cached(), the results that segment,
    enum_decompositions, enumerate_K, components_of, p_resolution_fan,
    slice_intervals and fan_decomposition derive from this model, keyed
    by function and arguments; each passes cached() a named builder.  The
    fibers and the lifts read w itself.  The memo lives and dies with the
    model and, kept in the instance __dict__, takes no part in equality,
    hashing or repr.
    """

    def __new__(
        cls, n: int, q: int, e: int, a_chain: tuple[int, ...], w: tuple[IVec2, ...], sigma: Cone2
    ):
        self = tuple.__new__(cls, (n, q, e, a_chain, w, sigma))
        self.__dict__["_memo"] = {}
        return self

    def cached(self, key, build, *args):
        """The result stored under key, computed by build(*args) on first
        use; a build that raises stores nothing."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = build(*args)
        return value

    def a(self, h: int) -> int:
        """The chain entry a_h, indexed like the generators (2 <= h <= e-1)."""
        return self.a_chain[h - 2]

    def wgen(self, h: int) -> IVec2:
        """Dual generator w^h, 1 <= h <= e."""
        return self.w[h - 1]

    def interior_indices(self) -> range:
        return range(2, self.e)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "e": self.e,
            "a_chain": list(self.a_chain),
            "dual_generators": [list(v) for v in self.w],
            "dual_generators_display": [list(to_display_coords(v, self)) for v in self.w],
        }


def cqs_new(n: int, q: int) -> CqsModel:
    """Build the model for Y_(n,q); gcd(n,q)=1, n >= 3 and 0 < q < n-1."""
    if n < 2:
        raise InvalidSingularityError(f"n = {n} < 2 does not define a singularity")
    if not 0 < q < n:
        raise InvalidSingularityError(f"q = {q} is not in (0, {n})")
    if gcd(n, q) != 1:
        raise InvalidSingularityError(f"gcd({n}, {q}) != 1")
    if q == n - 1:
        raise HypersurfaceError(
            f"Y_({n},{q}) is a hypersurface (q = n-1); its versal base is irreducible"
        )

    a_chain = tuple(cf_expand(n, n - q))
    sigma = Cone2((1, 0), (-q, n))
    w = tuple(hilbert_basis_2d(dual_cone(sigma)))
    if w[0] != (0, 1) or w[-1] != (n, q):
        raise InvariantError(f"the dual generators of Y_({n},{q}) run from {w[0]} to {w[-1]}")
    e = len(w)
    if e != len(a_chain) + 2:
        raise InvariantError(f"{e} dual generators for a chain of length {len(a_chain)}")
    for i in range(1, e - 1):
        (ux, uy), (vx, vy), (wx, wy), c = w[i - 1], w[i + 1], w[i], a_chain[i - 1]
        if ux + vx != c * wx or uy + vy != c * wy:
            raise InvariantError(f"three-term relation fails at {i + 1}")
    return CqsModel(n=n, q=q, e=e, a_chain=a_chain, w=w, sigma=sigma)


def to_display_coords(w_a: IVec2, model: CqsModel) -> IVec2:
    """Display a dual vector in the bigraded convention-B coordinates.

    The map sends (a1, a2) to [a1, n*a2 - q*a1]; its inverse is
    [u1, u2] -> (u1, (q*u1 + u2)/n).  Images satisfy q*u1 + u2 = n*a2, so
    they lie on the display lattice q*u1 + u2 = 0 mod n.
    """
    x, y = w_a
    if x % 1 or y % 1:
        raise ValueError(f"not a lattice point: ({x}, {y})")
    return x, model.n * y - model.q * x


def from_display_coords(u: IVec2, model: CqsModel) -> IVec2:
    """Inverse of to_display_coords; rejects pairs outside the image lattice."""
    u1, u2 = u
    num = model.q * u1 + u2
    if num % model.n != 0:
        raise ValueError(f"{u} is not in the display lattice for (n,q)=({model.n},{model.q})")
    return u1, num // model.n


def display_n_point(v: IVec2, n: int, q: int) -> tuple[Ratio, Ratio]:
    """Display a point of N (convention A) of Y_(n,q) in convention-B
    coordinates, each as an integer ratio over n."""
    x, y = v
    return (n * x + q * y, n), (y, n)

