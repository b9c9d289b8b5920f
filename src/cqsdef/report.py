"""Full analysis of one singularity as a JSON-able report, plus the scan
rows used for batch runs.  The human-readable rendering is a projection of
the JSON report, never computed separately.
"""

from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii

from .cqs import CqsModel, cqs_new
from .lattice import InvariantError
from .chains import enumerate_K, is_t_singularity
from .minkowski import enum_decompositions, segment
from .totalspace import (
    all_deformations,
    components_of,
    generator_relations,
    nu_count,
    versal_map,
)
from .fibers import general_fiber, is_smoothing
from .resolutions import canonical_model, fan_decomposition, p_resolution_fan

SCHEMA_VERSION = 1


def build_report(model: CqsModel, verbose: bool = False) -> dict:
    """Assemble the complete analysis of the singularity of model."""
    ks = enumerate_K(model)
    deformations = all_deformations(model)

    defo_records = []
    smoothing_count = 0
    for defo in deformations:
        comps = components_of(model, defo.decomp)
        fiber = general_fiber(defo)
        smoothing_count += fiber.is_empty
        can_k, can_fan = canonical_model(defo)
        relations = generator_relations(defo)
        rec = defo.to_json()
        rec.update(
            generator_relations=relations.to_json(),
            equations=[eq.to_json() for eq, _ in relations.relations],
            versal_map=versal_map(defo).to_json(),
            components=[list(k.k) for k in comps],
            fiber=fiber.to_json(verbose=verbose),
            is_smoothing=fiber.is_empty,
            simultaneous_resolutions=[
                fan_decomposition(model, k, defo.decomp).to_json() for k in comps
            ],
            canonical_model={"k": list(can_k.k), "fan": can_fan.to_json()},
        )
        defo_records.append(rec)

    nu_table = []
    for k in ks:
        for h in model.interior_indices():
            for p in range(1, model.a(h)):
                cnt = nu_count(model, k, h, p)
                if cnt:
                    nu_table.append(
                        {"k": list(k.k), "h": h, "p": p, "count": cnt}
                    )

    report = {
        "schema_version": SCHEMA_VERSION,
        "model": model.to_json(),
        "segments": [segment(model, h).to_json() for h in model.interior_indices()],
        "components": [
            dict(k.to_json(), p_resolution=p_resolution_fan(model, k).to_json())
            for k in ks
        ],
        "deformations": defo_records,
        "nu_table": nu_table,
        "t_singularity": is_t_singularity(model),
        "counts": {
            "components": len(ks),
            "deformations": len(deformations),
            "smoothings": smoothing_count,
        },
    }
    validate_report(report)
    return report


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
