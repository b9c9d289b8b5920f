"""Singularities in the general fiber of a one-parameter toric deformation."""

from __future__ import annotations

from dataclasses import dataclass

from .chains import NormalForm, blow_down
from .totalspace import Deformation

ORIGIN = "origin"
OFF_ORIGIN = "off-origin"


@dataclass(frozen=True)
class SingularityList:
    """Singular points of the general fiber, after blowing the raw chains
    down; entries that blow down to a smooth chain are dropped but the raw
    chains are kept for auditing."""

    entries: tuple[tuple[NormalForm, int, str], ...]
    raw: tuple[tuple[tuple[int, ...], int, str], ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def at_origin(self):
        for nf, _, loc in self.entries:
            if loc == ORIGIN:
                return nf
        return None

    def off_origin(self) -> list[tuple[NormalForm, int]]:
        return [(nf, mult) for nf, mult, loc in self.entries if loc == OFF_ORIGIN]

    def to_json(self, verbose: bool = False) -> dict:
        origin = self.at_origin()
        out = {
            "origin": origin.to_json() if origin else "smooth",
            "off_origin": [[nf.to_json(), mult] for nf, mult in self.off_origin()],
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
        raw = ((a[:pos] + (a[pos] - p * d,) + a[pos + 1 :], 1, ORIGIN), ((d,), p, OFF_ORIGIN))
    else:
        raw = (((a[pos] - d,) + a[pos + 1 :], 1, ORIGIN), (a[:pos] + (d,), 1, OFF_ORIGIN))

    entries = []
    for chain, mult, loc in raw:
        nf = model.cached(("blow_down", chain), lambda: blow_down(chain))
        if nf.kind == NormalForm.INVALID:
            raise RuntimeError(f"fiber chain {chain} of {defo.label} blew down below 1")
        if not nf.is_smooth:
            entries.append((nf, mult, loc))
    if not entries:
        if kind == "D":
            ok = d == 1 and p == a[pos] - 1
        else:
            ok = a[pos] == 2 and d == 1
        if not ok:
            raise RuntimeError(f"{defo.label} is a smoothing outside the expected pattern")
    return SingularityList(entries=tuple(entries), raw=raw)


def is_smoothing(defo: Deformation) -> bool:
    """Whether the general fiber is smooth."""
    return general_fiber(defo).is_empty
