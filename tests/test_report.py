import copy
import enum
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd

import pytest

import cqsdef.fibers
import cqsdef.geometry3
import cqsdef.report
import cqsdef.resolutions
import cqsdef.totalspace
from cqsdef.cqs import CqsModel, cqs_new
from cqsdef.geometry3 import Cone3
from cqsdef.lattice import InvariantError
from cqsdef.minkowski import enum_decompositions, segment
from cqsdef.report import (
    build_report,
    report_to_json,
    scan_row,
    validate_report,
)
from cqsdef.resolutions import MaxCone3


def test_report_to_json_matches_json_dumps_y83():
    for verbose in (False, True):
        report = build_report(cqs_new(8, 3), verbose=verbose)
        assert report_to_json(report) == json.dumps(report, indent=2)


def test_report_to_json_matches_json_dumps_sample():
    """Every pair with n <= 20 and 12 seeded pairs with n <= 60, verbose
    on even n."""
    rng = random.Random(60)
    pairs = [(n, q) for n in range(3, 61) for q in range(1, n - 1) if gcd(n, q) == 1]
    small = [(n, q) for n, q in pairs if n <= 20]
    assert len(small) == 108
    for n, q in small + rng.sample(pairs, 12):
        report = build_report(cqs_new(n, q), verbose=n % 2 == 0)
        assert report_to_json(report) == json.dumps(report, indent=2), (n, q)


def test_report_to_json_matches_json_dumps_synthetic():
    value = {
        "empty_dict": {},
        "empty_list": [],
        "nested": [[], {}, [[]], {"a": {}}, [{}]],
        "flags": [True, False, None],
        "ints": [0, -1, -12345678901234567890, 7],
        "tuple": (1, "two", (3,)),
        'quote " and backslash \\': 'a "quoted" \\ value',
        "control": "tab\tnewline\nbell\x07",
        "non-ascii é": "ü ∂ \U0001d4b3",
        "": [{"": ""}],
    }
    assert report_to_json(value) == json.dumps(value, indent=2)
    for scalar in ([], {}, "x", 3, None, True):
        assert report_to_json(scalar) == json.dumps(scalar, indent=2)


def test_report_to_json_matches_json_dumps_300_deep():
    """No table of depths caps the nesting: lists and dicts alternate 300
    levels deep, each list with an int, a str and a bool beside the next
    level and each dict with an int and None."""
    value = "leaf"
    for depth in range(300):
        value = [depth, value, "s", True] if depth % 2 else {"k": value, "i": depth, "n": None}
    assert report_to_json(value) == json.dumps(value, indent=2)


def test_report_to_json_matches_json_dumps_bool_and_none_deep():
    value = {
        "a": {"b": [True, False, None, {"c": True, "d": False, "e": None}]},
        "f": [[None, [False]], {"g": {"h": True}}],
    }
    assert report_to_json(value) == json.dumps(value, indent=2)


def test_report_to_json_matches_json_dumps_subclasses():
    """An IntEnum, a str subclass as key and as value and a dict subclass
    are written as their base types, as json.dumps writes them."""

    class Level(enum.IntEnum):
        LOW = 1
        HIGH = 12

    class Name(str):
        pass

    class Table(dict):
        pass

    value = {
        "enum": [Level.LOW, {"v": Level.HIGH}],
        Name("key"): Name("value"),
        "table": Table(x=[Table(), Table(y=Name("z"))], level=Level.HIGH),
        "list": [Name("item"), Table(w=1)],
    }
    assert report_to_json(value) == json.dumps(value, indent=2)
    assert report_to_json(Table(a=Level.LOW)) == json.dumps(Table(a=Level.LOW), indent=2)


@pytest.mark.parametrize(
    "bad, name",
    [(segment(cqs_new(8, 3), 3), "Segment"), (1.5, "float"), ({1, 2}, "set")],
)
def test_report_to_json_rejects_deep_values(bad, name):
    """A record, a float or a set three levels down raises TypeError
    naming its type, as a list item and as a dict value."""
    message = f"Object of type {name} is not JSON serializable"
    for value in ({"a": [{"b": bad}]}, [{"a": [1, "x", bad]}], {"a": {"b": {"c": bad}}}):
        with pytest.raises(TypeError, match=re.escape(message)):
            report_to_json(value)


def test_report_to_json_rejects_deep_non_str_keys():
    for key, name in ((1, "int"), (None, "NoneType"), ((1, 2), "tuple")):
        with pytest.raises(TypeError, match=f"keys must be str, not {name}"):
            report_to_json({"a": [{"b": {key: 1}}]})


def test_report_to_json_matches_json_dumps_scan_rows():
    """The rows of scan --json, error rows included, over n in 2..14."""
    rows = [scan_row(n, q) for n in range(2, 15) for q in range(0, n + 1)]
    assert any("error" in row for row in rows) and any("e" in row for row in rows)
    assert report_to_json(rows) == json.dumps(rows, indent=2)


@pytest.mark.parametrize("bad", [{"x": 1.5}, {"x": {1, 2}}, {1: "int key"}, [object()]])
def test_report_to_json_rejects_other_types(bad):
    with pytest.raises(TypeError):
        report_to_json(bad)


def test_report_to_json_rejects_records():
    """A record is a tuple, but one that leaks into a report is an error,
    not a JSON list of its fields."""
    m = cqs_new(8, 3)
    report = build_report(m)
    for leak, name in ((segment(m, 3), "Segment"), ([enum_decompositions(m)[0]], "Decomposition")):
        with pytest.raises(TypeError, match=f"Object of type {name} is not JSON serializable"):
            report_to_json({**report, "leak": leak})


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name, in every cqsdef module that binds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("cqsdef") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_build_report_builds_each_deformation_and_fiber_once(monkeypatch):
    """No pass recomputes another's work: each deformation is built, and
    gets its fiber, relations, versal map and canonical model, once, and
    each (k, decomp) that components_of lists gets its fan decomposition
    built once."""
    per_deformation = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in [
            (cqsdef.totalspace, "build_deformation"),
            (cqsdef.fibers, "general_fiber"),
            (cqsdef.totalspace, "generator_relations"),
            (cqsdef.totalspace, "versal_map"),
            (cqsdef.resolutions, "canonical_model"),
        ]
    }
    fan_builds = _count_calls(monkeypatch, cqsdef.resolutions, "_build_fan_decomposition")
    report = build_report(cqs_new(19, 7))
    count = report["counts"]["deformations"]
    assert count > 0
    assert {name: len(calls) for name, calls in per_deformation.items()} == dict.fromkeys(
        per_deformation, count
    )
    listed = Counter(
        (tuple(k), rec["label"]) for rec in report["deformations"] for k in rec["components"]
    )
    assert Counter((k.k, dec.label) for _, k, dec in fan_builds) == listed
    assert set(listed.values()) == {1} and len(listed) > count


# The memo entries that the fan-decomposition pass of build_report builds.
FAN_PASS_KEYS = {"fan_decomposition", "p_resolution", "slice_intervals"}


def _memo_keys_by_pass(monkeypatch, model):
    """Build the report of model, with the report's fan_decomposition and
    canonical_model wrapped, and return the memo's keys when the first
    fan_decomposition call starts (the fan-decomposition pass), when the
    first canonical_model call starts (the canonical-model pass), after
    the last canonical_model call and after build_report, and the keys
    that canonical_model calls added."""
    fan_decomposition = cqsdef.report.fan_decomposition
    canonical_model = cqsdef.report.canonical_model
    marks, added = {}, []

    def first_fan_decomposition(*args):
        marks.setdefault("fan decompositions", set(model._memo))
        return fan_decomposition(*args)

    def adding_canonical_model(defo):
        before = set(model._memo)
        marks.setdefault("canonical models", before)
        try:
            return canonical_model(defo)
        finally:
            marks["after canonical models"] = set(model._memo)
            added.extend(marks["after canonical models"] - before)

    monkeypatch.setattr(cqsdef.report, "fan_decomposition", first_fan_decomposition)
    monkeypatch.setattr(cqsdef.report, "canonical_model", adding_canonical_model)
    build_report(model)
    marks["report"] = set(model._memo)
    return marks, added


@pytest.mark.parametrize(
    "pairs",
    [[(n, q) for n in range(3, 31) for q in range(1, n - 1) if gcd(n, q) == 1], [(101, 29)]],
    ids=["n<=30", "Y(101,29)"],
)
def test_each_memo_entry_is_built_by_its_own_pass(monkeypatch, pairs):
    """Every fan decomposition, 2D fan and slice-interval entry first
    appears during build_report's fan-decomposition pass, which runs from
    the first fan_decomposition call to the first canonical_model call;
    canonical_model, the record assembly, the nu table and validate_report
    add no memo entry."""
    for n, q in pairs:
        marks, added = _memo_keys_by_pass(monkeypatch, cqs_new(n, q))
        fan_keys = {
            key for key in marks["report"] if isinstance(key, tuple) and key[0] in FAN_PASS_KEYS
        }
        assert fan_keys and not fan_keys & marks["fan decompositions"], (n, q)
        assert fan_keys <= marks["canonical models"], (n, q)
        assert added == [], (n, q)
        assert marks["report"] == marks["after canonical models"], (n, q)


def _count_instances(monkeypatch, cls):
    made = []
    new = cls.__new__

    def counting(kind, *args, **kwargs):
        made.append(new(kind, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return made


def _count_fractions(monkeypatch):
    """The arguments of every Fraction constructed from now on."""
    made = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return made


def test_build_report_derives_cone_data_once(monkeypatch):
    """Every Cone3 of a report gets its dual rays and facet spans in closed
    form from Cone3.over_summands, so neither dual_rays3 nor the generic
    derivation of the spans is called, and the Gorenstein functional is
    computed once per fan cone, in integers (Cone3.gorenstein_ratio).  No
    Fraction is built anywhere in the report."""
    cones = _count_instances(monkeypatch, Cone3)
    fan_cones = _count_instances(monkeypatch, MaxCone3)
    duals = _count_calls(monkeypatch, cqsdef.geometry3, "dual_rays3")
    generic_spans = _count_calls(monkeypatch, cqsdef.geometry3, "_spans")
    fractions = _count_fractions(monkeypatch)
    solves = []
    solve = Cone3.gorenstein_ratio.func

    def counting(cone):
        solves.append(cone)
        return solve(cone)

    prop = cached_property(counting)
    prop.__set_name__(Cone3, "gorenstein_ratio")
    monkeypatch.setattr(Cone3, "gorenstein_ratio", prop)
    build_report(cqs_new(19, 7))
    assert cones and duals == [] and generic_spans == []
    assert 0 < len(solves) <= len(fan_cones)
    assert fractions == []


def test_scan_builds_no_3d_cone(monkeypatch):
    """A scan row reads the decompositions and the general fibers, never
    sigma', so no row with n <= 40 builds a Cone3."""
    cones = _count_instances(monkeypatch, Cone3)
    rows = [
        scan_row(n, q) for n in range(3, 41) for q in range(1, n - 1) if gcd(n, q) == 1
    ]
    assert len(rows) == 450 and not any("error" in row for row in rows)
    assert cones == []


def test_scan_looks_up_each_slice_once(monkeypatch):
    """A scan row asks its model's memo for the slice at each of the
    e - 2 interior indices once, when it builds the decompositions: no
    deformation looks its slice up, and the fibers ask for no continuant
    table.  Checked on every row with n <= 40."""
    asked = []
    cached = CqsModel.cached

    def recording(model, key, build, *args):
        asked.append(key)
        return cached(model, key, build, *args)

    monkeypatch.setattr(CqsModel, "cached", recording)
    rows = 0
    for n in range(3, 41):
        for q in range(1, n - 1):
            if gcd(n, q) == 1:
                asked.clear()
                row = scan_row(n, q)
                assert "error" not in row, row
                slices = [key for key in asked if isinstance(key, tuple) and key[0] == "segment"]
                assert slices == [("segment", h) for h in range(2, row["e"])], (n, q)
                assert "continuants" not in asked, (n, q)
                rows += 1
    assert rows == 450


def test_report_path_builds_no_fraction(monkeypatch):
    """Reports and scan rows hold every ratio, display coordinates and
    slice lengths included, as integers over a known denominator and
    write it with ratio_text, so neither builds a Fraction."""
    made = _count_fractions(monkeypatch)
    for n, q in ((8, 3), (101, 29), (151, 75)):
        assert report_to_json(build_report(cqs_new(n, q)))
    assert made == []
    rows = [scan_row(n, q) for n in range(28, 32) for q in range(1, n - 1) if gcd(n, q) == 1]
    assert len(rows) == 74 and not any("error" in row for row in rows)
    assert made == []


def test_report_makes_no_roof_facets_call(monkeypatch):
    """canonical_model certifies its fan by convexity across the walls, so
    a report gift-wraps no hull: roof_facets is the tests' oracle."""
    calls = _count_calls(monkeypatch, cqsdef.geometry3, "roof_facets")
    wraps = _count_calls(monkeypatch, cqsdef.geometry3, "_wrap")
    for n, q in ((8, 3), (19, 7), (31, 12)):
        assert build_report(cqs_new(n, q))["counts"]["deformations"] > 0
    assert calls == [] and wraps == []


def test_report_builds_each_sigma_prime_once(monkeypatch):
    """A report of Y(19, 7) builds its 9 sigma' and its 27 fan cones, each
    once; reading sigma_prime again returns the cone built first."""
    calls = []
    build = Cone3.over_summands

    def counting(cls, *args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(Cone3, "over_summands", classmethod(counting))
    report = build_report(cqs_new(19, 7))
    assert report["counts"]["deformations"] == 9 and len(calls) == 36
    (df, *_) = cqsdef.totalspace.all_deformations(cqs_new(19, 7))
    assert len(calls) == 36
    cone = df.sigma_prime
    assert df.sigma_prime is cone and len(calls) == 37


def test_scan_row_names_an_exception_without_message(monkeypatch):
    def boom(*a, **kw):
        raise KeyError()

    monkeypatch.setattr(cqsdef.report, "cqs_new", boom)
    assert scan_row(8, 3) == {"n": 8, "q": 3, "error": "KeyError"}


def _drop_component(report):
    del report["components"][0]


def _raise_nu_count(report):
    report["nu_table"][0]["count"] += 1


def _drop_nu_row(report):
    del report["nu_table"][0]


def _drop_deformation(report):
    del report["deformations"][0]


def _unknown_component(report):
    report["deformations"][0]["components"].append([9] * len(report["model"]["a_chain"]))


def _unknown_canonical_k(report):
    report["deformations"][0]["canonical_model"]["k"] = [9] * len(report["model"]["a_chain"])


def _wrong_deformation_count(report):
    report["counts"]["deformations"] += 1


def _wrong_component_count(report):
    report["counts"]["components"] -= 1


def _raise_smoothing_count(report):
    report["counts"]["smoothings"] += 5


def _flip_is_smoothing(report):
    rec = report["deformations"][0]
    rec["is_smoothing"] = not rec["is_smoothing"]


def _smooth_fiber_not_flagged(report):
    rec = next(r for r in report["deformations"] if not r["fiber"]["off_origin"])
    rec["fiber"]["origin"] = "smooth"


@pytest.fixture(scope="module")
def y197_report():
    return build_report(cqs_new(19, 7))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_component, "references unknown component"),
        (_raise_nu_count, "component count mismatch at k="),
        (_drop_nu_row, "component count mismatch at k="),
        (_drop_deformation, "component count mismatch at k="),
        (_unknown_component, "references unknown component"),
        (_unknown_canonical_k, "has unknown canonical component"),
        (_wrong_deformation_count, "^deformation count mismatch$"),
        (_wrong_component_count, "^component count mismatch$"),
        (_raise_smoothing_count, "^smoothing count mismatch$"),
        (_flip_is_smoothing, "has is_smoothing (True|False) for its fiber"),
        (_smooth_fiber_not_flagged, "has is_smoothing False for its fiber"),
    ],
)
def test_validate_report_rejects_a_corrupted_report(y197_report, corrupt, message):
    report = copy.deepcopy(y197_report)
    validate_report(report)
    corrupt(report)
    with pytest.raises(InvariantError, match=message) as caught:
        validate_report(report)
    assert type(caught.value) is InvariantError


def test_reports_and_rows_leave_no_reference_cycles():
    """A model, its memo and what the memo holds are freed by reference
    counting alone: with the cyclic collector off, building and writing
    the reports of Y(8,3) and Y(101,29), and the scan rows with n in
    28..31, leave nothing for gc.collect() to find."""
    import gc

    def work():
        for n, q in [(8, 3), (101, 29)]:
            report_to_json(build_report(cqs_new(n, q)))
        for n in range(28, 32):
            for q in range(1, n - 1):
                if gcd(n, q) == 1:
                    scan_row(n, q)

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        work()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
