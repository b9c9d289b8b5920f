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
from .minkowski import segment
from .totalspace import (
    all_deformations,
    components_of,
    deformation_equations,
    generator_relations,
    nu_count,
    versal_map,
)
from .fibers import general_fiber, is_smoothing
from .resolutions import canonical_model, fan_decomposition, p_resolution_fan

SCHEMA_VERSION = 1


class ReportInvariantError(InvariantError):
    """The assembled report is internally inconsistent."""


def build_report(model: CqsModel, verbose: bool = False) -> dict:
    """Assemble the complete analysis of the singularity of model."""
    ks = enumerate_K(model)
    deformations = all_deformations(model)

    defo_records = []
    smoothing_count = 0
    for defo in deformations:
        comps = components_of(defo)
        fiber = general_fiber(defo)
        smoothing_count += fiber.is_empty
        can_k, can_fan = canonical_model(defo)
        rec = defo.to_json()
        rec.update(
            generator_relations=generator_relations(defo).to_json(),
            equations=[eq.to_json() for eq in deformation_equations(defo)],
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
            raise ReportInvariantError(
                f"{rec['label']} has is_smoothing {rec['is_smoothing']} for its fiber"
            )
        smoothings += smooth
        for k in rec["components"]:
            if tuple(k) not in k_set:
                raise ReportInvariantError(
                    f"{rec['label']} references unknown component {k}"
                )
            catalogue[tuple(k), rec["h"], rec["p"]] += 1
        if tuple(rec["canonical_model"]["k"]) not in k_set:
            raise ReportInvariantError(
                f"{rec['label']} has unknown canonical component"
            )
    table = {(tuple(r["k"]), r["h"], r["p"]): r["count"] for r in report["nu_table"]}
    for key in catalogue.keys() | table.keys():
        if catalogue[key] != table.get(key, 0):
            k, h, p = key
            raise ReportInvariantError(
                f"component count mismatch at k={k}, h={h}, p={p}: "
                f"catalogue {catalogue[key]}, table {table.get(key, 0)}"
            )
    counts = report["counts"]
    if counts["deformations"] != len(report["deformations"]):
        raise ReportInvariantError("deformation count mismatch")
    if counts["components"] != len(report["components"]):
        raise ReportInvariantError("component count mismatch")
    if counts["smoothings"] != smoothings:
        raise ReportInvariantError("smoothing count mismatch")


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
        defos = all_deformations(model)
        return {
            "n": n,
            "q": q,
            "e": model.e,
            "num_components": len(ks),
            "num_deformations": len(defos),
            "num_smoothings": sum(1 for d in defos if is_smoothing(d)),
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
    """The text of json.dumps(report, indent=2), written in one pass; the
    report, a report dict or a list of scan rows, holds dicts with str
    keys, lists, tuples, str, int, bool and None, and any other type
    raises TypeError, a record (a tuple subclass) included."""
    out: list[str] = []
    out.append(_write_json(report, "", "\n", out))
    return "".join(out)


def _write_json(value, pending: str, newline: str, out: list[str]) -> str:
    """Append the JSON text of value to out, after the text pending; every
    separator and indent waits in pending and goes out joined to the next
    scalar.  Returns the text still pending: closing brackets and empty
    containers."""
    if isinstance(value, str):
        out.append(pending + encode_basestring_ascii(value))
        return ""
    if value is None or value is True or value is False:
        out.append(pending + ("null" if value is None else "true" if value else "false"))
        return ""
    if isinstance(value, int):
        out.append(pending + int.__repr__(value))
        return ""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return pending + "{}"
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pending = _write_json(
                item, pending + sep + encode_basestring_ascii(key) + ": ", inner, out
            )
            sep = "," + inner
        return pending + newline + "}"
    if type(value) is list or type(value) is tuple:  # not a record, a tuple subclass
        if not value:
            return pending + "[]"
        sep = "[" + inner
        for item in value:
            pending = _write_json(item, pending + sep, inner, out)
            sep = "," + inner
        return pending + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
