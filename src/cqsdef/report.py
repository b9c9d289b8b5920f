"""Full analysis of one singularity as a JSON-able report, plus the scan
rows used for batch runs.  This module alone knows the report's schema:
build_report writes every field, validate_report checks it, and the
human-readable rendering is a projection of it, never computed
separately.  No library record knows JSON.
"""

from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii

from .cqs import CqsModel, cqs_new, display_n_point, to_display_coords
from .lattice import InvariantError, ratio_text
from .chains import enumerate_K, is_t_singularity
from .minkowski import enum_decompositions, segment
from .geometry3 import Cone3
from .totalspace import (
    Equation,
    Poly,
    all_deformations,
    components_of,
    generator_relations,
    nu_count,
    versal_map,
)
from .fibers import general_fiber, is_smoothing
from .resolutions import FanDecomposition, canonical_model, fan_decomposition, p_resolution_fan

SCHEMA_VERSION = 1


def build_report(model: CqsModel, verbose: bool = False) -> dict:
    """Assemble the complete analysis of the singularity of model in one
    pass per layer, each reading only what earlier passes built: model and
    zero chains; slices and decompositions; sigma'; relations, equations,
    versal map and components; fibers; fan decompositions, 2D fans and
    slice intervals; canonical models.  Then it writes every field of the
    report from what the passes built, each fiber's raw chains only when
    verbose, and checks the result with validate_report."""
    ks = enumerate_K(model)
    deformations = all_deformations(model)
    for defo in deformations:
        defo.sigma_prime  # noqa: B018 - built and kept on defo
    relations = [generator_relations(defo) for defo in deformations]
    versal = [versal_map(defo) for defo in deformations]
    comps = [components_of(model, defo.decomp) for defo in deformations]
    fibers = [general_fiber(defo) for defo in deformations]
    fan_decomps = [
        [fan_decomposition(model, k, defo.decomp) for k in ks_of]
        for defo, ks_of in zip(deformations, comps)
    ]
    p_fans = [p_resolution_fan(model, k) for k in ks]
    canonical = [canonical_model(defo) for defo in deformations]

    n, q = model.n, model.q
    defo_records = []
    for defo, rel, vmap, ks_of, fiber, fds, (can_k, can_fan) in zip(
        deformations, relations, versal, comps, fibers, fan_decomps, canonical
    ):
        dec = defo.decomp
        kind, h, p, d, ends0, ends1 = dec
        fiber_record = {
            "origin": list(fiber.origin) if fiber.origin else "smooth",
            "off_origin": [[list(ch), mult] for ch, mult in fiber.off_origin],
        }
        if verbose:
            fiber_record["raw_chains"] = [
                {"chain": list(ch), "multiplicity": mult, "location": loc}
                for ch, mult, loc in fiber.raw
            ]
        defo_records.append(
            {
                "label": dec.label,
                "kind": kind,
                "h": h,
                "p": p,
                "d": d,
                "degree_display": [p * u for u in to_display_coords(model.wgen(h), model)],
                "decomposition": {
                    "kind": kind,
                    "h": h,
                    "p": p,
                    "d": d,
                    "summands": [[ratio_text(*r) for r in ends] for ends in (ends0, ends1)],
                },
                "sigma_prime_rays": _rays(defo.sigma_prime),
                "generator_relations": {
                    "v": [list(v) for v in rel.v],
                    "v_tilde": list(rel.v_tilde),
                    # binomials, then the bar-side relation at h-1 and the main one at h
                    "relations": [
                        {"relation": eq.relation_text(), "value": list(value)}
                        for eq, value in sorted(
                            rel.relations, key=lambda pair: pair[0].form != "binomial"
                        )
                    ],
                },
                "equations": [_equation(eq) for eq, _ in rel.relations],
                "versal_map": {
                    "s": {f"s_{i}^({l})": _poly(poly) for (i, l), poly in sorted(vmap.s.items())},
                    "t": {f"t_{j}": _poly(poly) for j, poly in sorted(vmap.t.items())},
                },
                "components": [list(k.k) for k in ks_of],
                "fiber": fiber_record,
                "is_smoothing": fiber.is_empty,
                "simultaneous_resolutions": [_fan_decomposition(fd) for fd in fds],
                "canonical_model": {
                    "k": list(can_k.k),
                    "fan": {
                        "support": _rays(can_fan.support),
                        "cones": [
                            {
                                "tau_index": c.tau_index,
                                "rays": _rays(c.cone),
                                "qgorenstein": c.cone.gorenstein_ratio is not None,
                                "canonical": c.canonical,
                                "rdp_or_smooth": c.rdp_or_smooth,
                            }
                            for c in can_fan.cones
                        ],
                    },
                },
            }
        )

    nu_table = [
        {"k": list(k.k), "h": h, "p": p, "count": cnt}
        for k in ks
        for h in model.interior_indices()
        for p in range(1, model.a(h))
        if (cnt := nu_count(model, k, h, p))
    ]
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": {
            "n": n,
            "q": q,
            "e": model.e,
            "a_chain": list(model.a_chain),
            "dual_generators": [list(v) for v in model.w],
            "dual_generators_display": [list(to_display_coords(v, model)) for v in model.w],
        },
        "segments": [
            {
                "h": seg.h,
                "beta": ratio_text(*seg.ends[0]),
                "gamma": ratio_text(*seg.ends[1]),
                "lattice_points": seg.lattice_count,
                "length": ratio_text(*seg.length_ratio),
            }
            for seg in (segment(model, h) for h in model.interior_indices())
        ],
        "components": [
            {
                "k": list(k.k),
                "alpha": list(k.alpha),
                "p_resolution": {
                    "k": list(k.k),
                    "rays": [list(v) for v in fan.rays],
                    "rays_display": [
                        [ratio_text(*r) for r in display_n_point(v, n, q)] for v in fan.rays
                    ],
                    "cones": [
                        {
                            "i": t.i,
                            "alpha": t.alpha,
                            "roof_length": t.roof_len,
                            "degenerate": t.degenerate,
                        }
                        for t in fan.cones
                    ],
                },
            }
            for k, fan in zip(ks, p_fans)
        ],
        "deformations": defo_records,
        "nu_table": nu_table,
        "t_singularity": is_t_singularity(model),
        "counts": {
            "components": len(ks),
            "deformations": len(deformations),
            "smoothings": sum(fiber.is_empty for fiber in fibers),
        },
    }
    validate_report(report)
    return report


def _rays(cone: Cone3) -> list[list[int]]:
    """The generators of a 3D cone, as a report writes its rays."""
    return [list(g) for g in cone.generators]


def _poly(poly: Poly) -> list[list[int]]:
    """A polynomial as its [power, coefficient] pairs."""
    return [[e, c] for e, c in poly.coeffs]


def _equation(eq: Equation) -> dict:
    """An equation: its form, index and text, then a for a binomial or
    bar-side equation and m, p and d for the main one."""
    out = {"form": eq.form, "i": eq.i, "text": str(eq)}
    if eq.form in ("binomial", "bar_side"):
        out["a"] = eq.a
    else:
        out.update({"m": eq.m, "p": eq.p, "d": eq.d})
    return out


def _fan_decomposition(fd: FanDecomposition) -> dict:
    """A fan decomposition S^d_{h,p}[k] or Sbar^d_h[k], with the ends of
    the two summands of each piece."""
    dec = fd.decomp
    return {
        "label": fd.label,
        "kind": "S" if dec.kind == "D" else "Sbar",
        "k": list(fd.k.k),
        "h": dec.h,
        "p": dec.p,
        "d": dec.d,
        "pieces": [
            {
                "i": pc.i,
                "s0": [ratio_text(*r) for r in pc.ends0],
                "s1": [ratio_text(*r) for r in pc.ends1],
            }
            for pc in fd.pieces
        ],
    }


def validate_report(report: dict) -> None:
    """Cross-consistency of the assembled report: the nu table counts, for
    each (k, h, p), the deformations of degree (h, p) in component k; a
    deformation is a smoothing exactly when its fiber is smooth at the
    origin and has no singular point off it; and the counts count what
    the report lists."""
    k_set = {tuple(c["k"]) for c in report["components"]}
    catalogue = Counter()
    smoothings = 0
    for rec in report["deformations"]:
        fiber = rec["fiber"]
        smooth = fiber["origin"] == "smooth" and not fiber["off_origin"]
        if rec["is_smoothing"] != smooth:
            raise InvariantError(
                f"{rec['label']} has is_smoothing {rec['is_smoothing']} for its fiber"
            )
        smoothings += smooth
        for k in rec["components"]:
            if tuple(k) not in k_set:
                raise InvariantError(f"{rec['label']} references unknown component {k}")
            catalogue[tuple(k), rec["h"], rec["p"]] += 1
        if tuple(rec["canonical_model"]["k"]) not in k_set:
            raise InvariantError(f"{rec['label']} has unknown canonical component")
    table = {(tuple(r["k"]), r["h"], r["p"]): r["count"] for r in report["nu_table"]}
    for key in catalogue.keys() | table.keys():
        if catalogue[key] != table.get(key, 0):
            k, h, p = key
            raise InvariantError(
                f"component count mismatch at k={k}, h={h}, p={p}: "
                f"catalogue {catalogue[key]}, table {table.get(key, 0)}"
            )
    counts = report["counts"]
    if counts["deformations"] != len(report["deformations"]):
        raise InvariantError("deformation count mismatch")
    if counts["components"] != len(report["components"]):
        raise InvariantError("component count mismatch")
    if counts["smoothings"] != smoothings:
        raise InvariantError("smoothing count mismatch")


def render_text(report: dict) -> str:
    """Human-readable projection of the JSON report."""
    m = report["model"]
    lines = []
    out = lines.append
    out(f"Y_({m['n']},{m['q']})  e = {m['e']}  chain a = {tuple(m['a_chain'])}")
    out(f"dual generators: {m['dual_generators_display']}")
    out(f"T-singularity: {'yes' if report['t_singularity'] else 'no'}")
    out("")
    out(f"versal base components ({report['counts']['components']}):")
    for comp in report["components"]:
        rays = comp["p_resolution"]["rays_display"]
        out(f"  k = {tuple(comp['k'])}  alpha = {tuple(comp['alpha'])}")
        out(f"    partial-resolution rays: {rays}")
    out("")
    out("slices:")
    for seg in report["segments"]:
        out(
            f"  h = {seg['h']}: ({seg['beta']}, {seg['gamma']})  "
            f"length {seg['length']}, {seg['lattice_points']} lattice points"
        )
    out("")
    out(f"one-parameter toric deformations ({report['counts']['deformations']}):")
    for rec in report["deformations"]:
        out(f"  {rec['label']}  degree {rec['degree_display']}")
        out(f"    equations: {'; '.join(eq['text'] for eq in rec['equations'])}")
        out(f"    components: {[tuple(k) for k in rec['components']]}")
        fib = rec["fiber"]
        out(
            f"    general fiber: origin {fib['origin']}, "
            f"off-origin {fib['off_origin'] or 'none'}"
            + ("  [smoothing]" if rec["is_smoothing"] else "")
        )
        out(f"    canonical model over k = {tuple(rec['canonical_model']['k'])}")
    out("")
    out(f"smoothings: {report['counts']['smoothings']}")
    return "\n".join(lines)


# The type of each field of a scan_row, in CSV column order; a row holding
# an error has only n, q and error.
SCAN_ROW_TYPES = {
    "n": int,
    "q": int,
    "e": int,
    "num_components": int,
    "num_deformations": int,
    "num_smoothings": int,
    "t_singularity": bool,
    "error": str,
}


def scan_row(n: int, q: int) -> dict:
    """Summary row for one singularity; errors are recorded, not raised."""
    try:
        model = cqs_new(n, q)
        ks = enumerate_K(model)
        decomps = enum_decompositions(model)
        return {
            "n": n,
            "q": q,
            "e": model.e,
            "num_components": len(ks),
            "num_deformations": len(decomps),
            "num_smoothings": sum(1 for dec in decomps if is_smoothing(model, dec)),
            "t_singularity": is_t_singularity(model),
        }
    except Exception as exc:  # noqa: BLE001 - per-row fault isolation
        return {"n": n, "q": q, "error": error_text(exc)}


def error_text(exc: BaseException) -> str:
    """How a scan row and the command line name a failure: its type and
    message as "Type: message", or the type alone when the message is
    empty."""
    message = str(exc)
    return f"{type(exc).__name__}: {message}" if message else type(exc).__name__


def report_to_json(report: dict | list) -> str:
    """The text of json.dumps(report, indent=2); the report, a report dict
    or a list of scan rows, holds dicts with str keys, lists, tuples, str,
    int, bool and None, and any other type raises TypeError, a record (a
    tuple subclass) included."""
    return _json_text(report, 0)


class _Separators(dict):
    """The separators of a container at each depth, made on first use:
    list opening, dict opening, between items, list closing, dict
    closing."""

    def __missing__(self, depth: int) -> tuple[str, str, str, str, str]:
        inner = "\n" + "  " * (depth + 1)
        outer = inner[:-2]
        seps = self[depth] = ("[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}")
        return seps


_SEPARATORS = _Separators()


def _json_text(value, depth: int) -> str:
    """The JSON text of value, nested depth containers deep.  A list or dict
    joins its items' texts once; an item of exact type int or str is
    written in the container's loop, any other comes back here.  An int
    subclass, such as an IntEnum, is written by int.__repr__, as
    json.dumps writes it."""
    kind = type(value)
    if kind is list or kind is tuple:  # not a record, a tuple subclass
        if not value:
            return "[]"
        opening, _, sep, closing, _ = _SEPARATORS[depth]
        depth += 1
        items = []
        add = items.append
        for item in value:
            item_type = type(item)
            add(
                encode_basestring_ascii(item)
                if item_type is str
                else repr(item)
                if item_type is int
                else _json_text(item, depth)
            )
        return opening + sep.join(items) + closing
    if kind is dict or isinstance(value, dict):
        if not value:
            return "{}"
        _, opening, sep, _, closing = _SEPARATORS[depth]
        depth += 1
        items = []
        add = items.append
        for key, item in value.items():
            item_type = type(item)
            add(
                (encode_basestring_ascii(key) if type(key) is str else _key_text(key))
                + ": "
                + (
                    encode_basestring_ascii(item)
                    if item_type is str
                    else repr(item)
                    if item_type is int
                    else _json_text(item, depth)
                )
            )
        return opening + sep.join(items) + closing
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)
