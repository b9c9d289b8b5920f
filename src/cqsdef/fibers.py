"""Singularities in the general fiber of a one-parameter toric deformation."""

from __future__ import annotations

from dataclasses import dataclass

from .chains import blow_down
from .totalspace import Deformation


@dataclass(frozen=True)
class SingularityList:
    """Singular points of the general fiber as normal-form chains: origin
    is the chain at the origin, () when the origin is smooth, and
    off_origin holds (chain, multiplicity) for the singular points off
    it.  The raw chains, before blowing down, are kept for auditing."""

    origin: tuple[int, ...]
    off_origin: tuple[tuple[tuple[int, ...], int], ...]
    raw: tuple[tuple[tuple[int, ...], int, str], ...]

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
    points of type A_{d-1} sit elsewhere.  Barred kind: the tail chain
    (a_h - d, a_{h+1}, ...) sits at the origin and (a_2, ..., a_{h-1}, d)
    at one other point.  A smooth fiber is checked against the smoothing
    pattern: d = 1 with p = a_h - 1, or the barred kind with a_h = 2 and
    d = 1.  Deformations of one model share many chains, so each chain's
    normal form is kept on the model; both checks run on every call.
    """
    dec, model = defo.decomp, defo.model
    kind, p, d = dec.kind, dec.p, dec.d
    a = model.a_chain
    pos = dec.h - 2
    if kind == "D":
        raw = ((a[:pos] + (a[pos] - p * d,) + a[pos + 1 :], 1, "origin"), ((d,), p, "off-origin"))
    else:
        raw = (((a[pos] - d,) + a[pos + 1 :], 1, "origin"), (a[:pos] + (d,), 1, "off-origin"))

    normal = []
    for chain, _, _ in raw:
        nf = model.cached(("blow_down", chain), lambda: blow_down(chain))
        if nf is None:
            raise RuntimeError(f"fiber chain {chain} of {defo.label} blew down below 1")
        normal.append(nf)
    origin, off = normal
    if not origin and not off:
        if kind == "D":
            ok = d == 1 and p == a[pos] - 1
        else:
            ok = a[pos] == 2 and d == 1
        if not ok:
            raise RuntimeError(f"{defo.label} is a smoothing outside the expected pattern")
    off_origin = ((off, raw[1][1]),) if off else ()
    return SingularityList(origin=origin, off_origin=off_origin, raw=raw)


def is_smoothing(defo: Deformation) -> bool:
    """Whether the general fiber is smooth."""
    return general_fiber(defo).is_empty
