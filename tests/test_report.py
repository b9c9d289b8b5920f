import copy
import json
import random
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd

import pytest

import cqsdef.fibers
import cqsdef.geometry3
import cqsdef.report
import cqsdef.totalspace
from cqsdef.cqs import CqsModel, cqs_new
from cqsdef.geometry3 import Cone3
from cqsdef.minkowski import Decomposition, enum_decompositions, segment
from cqsdef.report import (
    ReportInvariantError,
    build_report,
    report_to_json,
    scan_row,
    validate_report,
)
from cqsdef.resolutions import FanDecomposition, MaxCone3


def test_report_to_json_matches_json_dumps_y83():
    for verbose in (False, True):
        report = build_report(cqs_new(8, 3), verbose=verbose)
        assert report_to_json(report) == json.dumps(report, indent=2)


def test_report_to_json_matches_json_dumps_sample():
    rng = random.Random(60)
    pairs = [(n, q) for n in range(3, 61) for q in range(1, n - 1) if gcd(n, q) == 1]
    for n, q in rng.sample(pairs, 12):
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
    builds = _count_calls(monkeypatch, cqsdef.totalspace, "build_deformation")
    fibers = _count_calls(monkeypatch, cqsdef.fibers, "general_fiber")
    report = build_report(cqs_new(19, 7))
    count = report["counts"]["deformations"]
    assert count > 0
    assert len(builds) == count
    assert len(fibers) == count


def _count_instances(monkeypatch, cls):
    made = []
    new = cls.__new__

    def counting(kind, *args, **kwargs):
        made.append(new(kind, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return made


def _count_fractions_inside(monkeypatch, methods):
    """Count the calls of each (class, name) method, and the Fractions
    constructed while one of them runs."""
    calls, made, inside = [], [], []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        if inside:
            made.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for cls, name in methods:
        method = getattr(cls, name)

        def wrapped(self, *args, method=method, **kwargs):
            calls.append(self)
            inside.append(self)
            try:
                return method(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(cls, name, wrapped)
    return calls, made


def test_build_report_derives_cone_data_once(monkeypatch):
    """Every Cone3 of a report gets its dual rays and facet spans in closed
    form from Cone3.over_summands, so neither dual_rays3 nor the generic
    derivation of the spans is called, and the Gorenstein functional is
    computed once per fan cone, in integers (Cone3.gorenstein_ratio).  The
    decompositions and fan decompositions write their ends without building
    a Fraction."""
    cones = _count_instances(monkeypatch, Cone3)
    fan_cones = _count_instances(monkeypatch, MaxCone3)
    duals = _count_calls(monkeypatch, cqsdef.geometry3, "dual_rays3")
    generic_spans = _count_calls(monkeypatch, cqsdef.geometry3, "_spans")
    to_json_calls, fractions = _count_fractions_inside(
        monkeypatch, [(Decomposition, "to_json"), (FanDecomposition, "to_json")]
    )
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
    kinds = {type(obj) for obj in to_json_calls}
    assert kinds == {Decomposition, FanDecomposition} and fractions == []


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
    made = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
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
    with pytest.raises(ReportInvariantError, match=message):
        validate_report(report)


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
