"""The cyclic quotient singularity Y_(n,q) as a two-dimensional toric variety.

Internally everything lives in the plain lattice N = Z^2 with the cone
spanned by (1,0) and (-q,n) ("convention A").  The equivalent description
with N = Z^2 + Z*(1/n)(1,q) over the first quadrant ("convention B") is
used only when displaying coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import Cone2, InvariantError, Ratio, Vec2, cf_expand, dual_cone, hilbert_basis_2d


class InvalidSingularityError(ValueError):
    """The pair (n, q) does not define a singularity we handle."""


class HypersurfaceError(InvalidSingularityError):
    """q = n-1: the versal base space is irreducible and nothing here applies."""


@dataclass(frozen=True)
class CqsModel:
    """The singularity Y_(n,q) with its dual-generator data.

    a_chain is the Hirzebruch-Jung expansion of n/(n-q); w holds the
    Hilbert basis of the dual cone ordered so that w[0] = (0,1) and
    w[e-1] = (n,q), which makes w^{i-1} + w^{i+1} = a_i * w^i hold at
    every interior index.

    _memo holds, through cached(), the results that segment, enumerate_K,
    p_resolution_fan, slice_intervals and fan_decomposition derive from
    this model, keyed by function and arguments; it lives and dies with
    the model and takes no part in equality, hashing or repr.
    """

    n: int
    q: int
    e: int
    a_chain: tuple[int, ...]
    w: tuple[Vec2, ...]
    sigma: Cone2
    _memo: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def cached(self, key, build):
        """The result stored under key, computed by build() on first use;
        a build that raises stores nothing."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def a(self, h: int) -> int:
        """The chain entry a_h, indexed like the generators (2 <= h <= e-1)."""
        return self.a_chain[h - 2]

    def wgen(self, h: int) -> Vec2:
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
            "dual_generators": [list(v.as_int_pair()) for v in self.w],
            "dual_generators_display": [list(to_display_coords(v, self)) for v in self.w],
        }


def cqs_new(n: int, q: int) -> CqsModel:
    """Build the model for Y_(n,q); gcd(n,q)=1, n >= 3 and 0 < q < n-1."""
    if n < 2:
        raise InvalidSingularityError(f"n = {n} < 2 does not define a singularity")
    from math import gcd

    if not 0 < q < n:
        raise InvalidSingularityError(f"q = {q} is not in (0, {n})")
    if gcd(n, q) != 1:
        raise InvalidSingularityError(f"gcd({n}, {q}) != 1")
    if q == n - 1 or n == 2:
        raise HypersurfaceError(
            f"Y_({n},{q}) is a hypersurface (q = n-1); its versal base is irreducible"
        )

    a_chain = tuple(cf_expand(n, n - q))
    sigma = Cone2(Vec2(1, 0), Vec2(-q, n))
    w = tuple(hilbert_basis_2d(dual_cone(sigma)))
    if w[0] != Vec2(0, 1) or w[-1] != Vec2(n, q):
        raise InvariantError(f"the dual generators of Y_({n},{q}) run from {w[0]} to {w[-1]}")
    e = len(w)
    if e != len(a_chain) + 2:
        raise InvariantError(f"{e} dual generators for a chain of length {len(a_chain)}")
    for i in range(1, e - 1):
        u, v, c = w[i - 1], w[i + 1], a_chain[i - 1]
        if u.x + v.x != c * w[i].x or u.y + v.y != c * w[i].y:
            raise InvariantError(f"three-term relation fails at {i + 1}")
    return CqsModel(n=n, q=q, e=e, a_chain=a_chain, w=w, sigma=sigma)


def to_display_coords(w_a: Vec2, model: CqsModel) -> tuple[int, int]:
    """Display a dual vector in the bigraded convention-B coordinates.

    The map sends (a1, a2) to [a1, n*a2 - q*a1]; its inverse is
    [u1, u2] -> (u1, (q*u1 + u2)/n).  Images satisfy q*u1 + u2 = 0 mod n.
    """
    x, y = w_a.as_int_pair()
    u = (x, model.n * y - model.q * x)
    if (model.q * u[0] + u[1]) % model.n:
        raise InvariantError(f"display coordinates {u} are off the display lattice")
    return u


def from_display_coords(u: tuple[int, int], model: CqsModel) -> Vec2:
    """Inverse of to_display_coords; rejects pairs outside the image lattice."""
    u1, u2 = u
    num = model.q * u1 + u2
    if num % model.n != 0:
        raise ValueError(f"{u} is not in the display lattice for (n,q)=({model.n},{model.q})")
    return Vec2(u1, num // model.n)


def display_n_point(v: Vec2, model: CqsModel) -> tuple[Ratio, Ratio]:
    """Display a point of N (convention A) in convention-B coordinates,
    each as an integer ratio over n."""
    n = model.n
    return (n * v.x + model.q * v.y, n), (v.y, n)


def is_rdp(chain) -> bool:
    """Whether a resolution-style chain is at most a rational double point:
    it blows down to the empty/smooth chain or to all 2's.
    """
    from .chains import NormalForm, blow_down

    nf = blow_down(tuple(chain))
    if nf.kind == NormalForm.INVALID:
        raise ValueError(f"chain {chain} does not blow down cleanly")
    if nf.kind == NormalForm.SMOOTH:
        return True
    return all(c == 2 for c in nf.chain)


def is_t_singularity(model: CqsModel) -> bool:
    """Whether Y_(n,q) admits a Q-Gorenstein one-parameter smoothing.

    Criterion: the chain (a_2,...,a_{e-1}) equals some zero-chain k except
    at a single index h, where a_h = k_h + m with m >= 0.
    """
    from .chains import enumerate_K

    a = model.a_chain
    for zc in enumerate_K(model):
        diff = [i for i in range(len(a)) if zc.k[i] != a[i]]
        if len(diff) <= 1:
            return True
    return False
