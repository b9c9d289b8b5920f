import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

import cqsdef
import cqsdef.cli as cli_mod
import cqsdef.cqs
import cqsdef.minkowski
import cqsdef.resolutions
import cqsdef.svgfig
import cqsdef.totalspace
from cqsdef.cli import checkpoint_header, main
from cqsdef.report import build_report, render_text
from cqsdef.resolutions import fan_decomposition
from cqsdef.svgfig import FIGURE_TARGETS, make_figure
from cqsdef.totalspace import components_of
from conftest import run_optimized


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json_counts(capsys):
    code, out, _ = run(capsys, "analyze", "8", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["deformations"] == 7
    assert report["counts"]["components"] == 2
    assert report["schema_version"] == 1


def test_analyze_text_is_projection(capsys):
    code, out, _ = run(capsys, "analyze", "8", "3")
    assert code == 0
    assert out.strip() == render_text(build_report(cqsdef.cqs.cqs_new(8, 3))).strip()


def test_analyze_rejects_hypersurface(capsys):
    code, _, err = run(capsys, "analyze", "4", "3")
    assert code == 1
    assert "hypersurface" in err


def test_analyze_rejects_invalid(capsys):
    assert run(capsys, "analyze", "6", "2")[0] == 1
    assert run(capsys, "analyze", "1", "1")[0] == 1


def test_json_roundtrip():
    report = build_report(cqsdef.cqs.cqs_new(8, 3), verbose=True)
    assert json.loads(json.dumps(report)) == report


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--n-range", "3:10", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    row_83 = [l for l in lines if l.startswith("8,3,")]
    assert row_83 and row_83[0].split(",")[3] == "2"  # two components


def test_scan_json_is_json_dumps(capsys):
    code, out, _ = run(capsys, "scan", "--n-range", "3:12", "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_outputs_match_the_benchmark_reference(tmp_path):
    """cli.main writes, byte for byte, the outputs whose SHA-256 digests
    perfbench/reference.json holds: every 20th analyze pair in sorted order
    (both pools) and the four scan windows 28:51, 29:52, 30:53 and 31:54,
    each run with the argv of the benchmark worker and, as there, a fresh
    checkpoint file per window."""
    root = Path(__file__).resolve().parents[1]
    digests = json.loads((root / "perfbench" / "reference.json").read_text())["digests"]
    out = tmp_path / "output"
    cases = [
        (["analyze", *key.split(","), "--json"], digest)
        for key, digest in sorted(digests["analyze"].items())[::20]
    ]
    for lo in range(28, 32):
        window = f"{lo}:{lo + 23}"
        checkpoint = tmp_path / f"checkpoint-{lo}.json"
        cases.append(
            (["scan", "--n-range", window, "--csv", "--checkpoint", str(checkpoint)],
             digests["scan"][window])
        )
    assert len(cases) == 34
    for argv, digest in cases:
        assert main([*argv, "-o", str(out)]) == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv


# SHA-256 of the files `cqsdef analyze n q [flags] -o FILE` writes, for the
# outputs perfbench/reference.json does not pin: the verbose JSON report
# and the text rendering.
ANALYZE_DIGESTS = {
    (8, 3, "--json --verbose"): "2e7fc5000d471bb8977e00baa1a4cc1dae033d9fe51afce225c566c6c5b7dce0",
    (8, 3, "text"): "75446d178b9caba0884478b78f477cbb003b369c31302cd8bbc7adf111102746",
    (19, 7, "--json --verbose"): "63cbb81d2b3152c27a757e0b4b87ef0fcb959be15f8d44c79918f6f4e54051d6",
    (19, 7, "text"): "e52b6cc1f068de9335b5a8a3e4c72d616d1e28647750224446c25061e92779ae",
    (37, 11, "--json --verbose"): "ac76470dea173d35f7cd6d13054199c24efe0a7b98a57b82d1bdc6e958d853cd",
    (37, 11, "text"): "2378b7ca8ac062241249fc5b965565cafd25ae99c76f144f5cdf7430c6b1bb0e",
    (101, 29, "--json --verbose"): "0eaa3374be88229423fdbe98e015d94e367b7717325ab7be7b4d581fc3c269ac",
    (101, 29, "text"): "5aca820f6aafe1f74bb005a8f3ae77aafd1d2c551273aed65827f3d390dcdf0d",
}


@pytest.mark.parametrize("n, q, flags", sorted(ANALYZE_DIGESTS))
def test_analyze_bytes_are_pinned(tmp_path, n, q, flags):
    path = tmp_path / "report"
    argv = ["analyze", str(n), str(q), *(flags.split() if flags != "text" else [])]
    assert main([*argv, "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ANALYZE_DIGESTS[n, q, flags]


def test_scan_empty_range(capsys):
    code, out, _ = run(capsys, "scan", "--n-range", "9:3", "--json")
    assert code == 0
    assert json.loads(out) == []


def test_scan_checkpoint_deterministic(tmp_path, capsys):
    ckpt = tmp_path / "scan.ckpt"
    code1, out1, _ = run(capsys, "scan", "--n-range", "3:8", "--json", "--checkpoint", str(ckpt))
    assert code1 == 0 and ckpt.exists()
    code2, out2, _ = run(capsys, "scan", "--n-range", "3:8", "--json", "--checkpoint", str(ckpt))
    assert code2 == 0
    assert out1 == out2


def test_figure_targets(tmp_path, capsys):
    for target in ("segments", "decompositions", "slices"):
        path = tmp_path / f"{target}.svg"
        code, _, _ = run(capsys, "figure", "8", "3", target, "-o", str(path))
        assert code == 0
        body = path.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_figure_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "figure", "8", "3", "slices", "-o", str(p1))
    run(capsys, "figure", "8", "3", "slices", "-o", str(p2))
    assert p1.read_text() == p2.read_text()


# SHA-256 of the files `cqsdef figure n q target -o FILE` writes.
FIGURE_DIGESTS = {
    (8, 3, "segments"): "84bcd66c26818af2ef06a5e51d333bda250acb438390d7ce8b373696529761aa",
    (8, 3, "decompositions"): "3e9bc59052ad096482cf297e58054fbe43685a73d566a679a4d3e2e13c340ede",
    (8, 3, "slices"): "857070ff692312ba5df6fea3400fb77b6523ad41b27e869a4f48fe4553dd69ac",
    (19, 7, "segments"): "0cee24874051dcdade5c215fb14eae55b1288314a01e64e936b7ace4bcde0593",
    (19, 7, "decompositions"): "59809b276db27c2baa55d60b13f80f55cd51f91c92b5cf24f871cb9a9c7e217c",
    (19, 7, "slices"): "eb0be9dfe1f63c8c32b4d7608f3c239dba974441f191bf0bdadd531c341c77bc",
    (23, 5, "segments"): "2fdb9333310d67437fe97fd342341e86d5fe7b1fd05299e6d3389cfd50786d5c",
    (23, 5, "decompositions"): "eaa3b10f41da5bedcbb9df132731314478755fcd748b0e6963b606cacf359698",
    (23, 5, "slices"): "bdec9edfa74135eec0c74455410d145d89f739c56c4fe2ba3b906fb0ffb63328",
    (37, 11, "segments"): "f81951f1f3cde8c3c8ab2c87aef257ec84357302c6adf726c23339cab9bdac26",
    (37, 11, "decompositions"): "0309d87526f40881b4f74d430df33e107dd379213e5849c4c42ceba4feb1f3ae",
    (37, 11, "slices"): "31fb8247b02733476132eba87cb38925212c1919aaa953d27f5e5187c3159a89",
}


@pytest.mark.parametrize("n, q, target", sorted(FIGURE_DIGESTS))
def test_figure_bytes_are_pinned(tmp_path, capsys, n, q, target):
    path = tmp_path / "figure.svg"
    assert run(capsys, "figure", str(n), str(q), target, "-o", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIGURE_DIGESTS[n, q, target]


def test_figure_unknown_target(capsys):
    with pytest.raises(SystemExit):
        main(["figure", "8", "3", "nonsense", "-o", "/tmp/x.svg"])
    message = "unknown figure target 'nonsense'; choose from ['decompositions', 'segments', 'slices']"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_figure(cqsdef.cqs.cqs_new(8, 3), "nonsense")


def test_slices_figure_inventory(tmp_path, capsys):
    path = tmp_path / "slices.svg"
    run(capsys, "figure", "8", "3", "slices", "-o", str(path))
    body = path.read_text()
    assert body.count("<polygon") == 8
    for label in ("S_{2,1}^1[1,2,1]", "S_{3,1}^1[2,1,2]", "Sbar_{3}^2[1,2,1]"):
        assert label in body


def test_slices_figure_reads_components_of(monkeypatch):
    """The slice figure draws one panel for each component that
    components_of lists for a decomposition, and finds the components
    nowhere else: with components_of cut to the first component of each
    decomposition, the panels are exactly those fan decompositions."""
    m = cqsdef.cqs.cqs_new(37, 11)
    panel_label = re.compile(r'text-anchor="start" font-family="serif">([^<]+)</text>')
    every = panel_label.findall(cqsdef.svgfig.slices_figure(m))

    def first_only(model, decomp):
        return components_of(model, decomp)[:1]

    monkeypatch.setattr(cqsdef.svgfig, "components_of", first_only)
    expected = [
        fan_decomposition(m, first_only(m, dec)[0], dec).label
        for dec in cqsdef.minkowski.enum_decompositions(m)
    ]
    assert panel_label.findall(cqsdef.svgfig.slices_figure(m)) == expected
    assert len(expected) < len(every)


def test_segments_figure_endpoints(tmp_path, capsys):
    path = tmp_path / "segments.svg"
    run(capsys, "figure", "8", "3", "segments", "-o", str(path))
    body = path.read_text()
    for frac in ("-3/5", "-1/2", "3/2", "8/5"):
        assert frac in body


def test_decompositions_figure_rows(tmp_path, capsys):
    path = tmp_path / "dec.svg"
    run(capsys, "figure", "8", "3", "decompositions", "-o", str(path))
    body = path.read_text()
    assert body.count("pi") == 7  # one label per decomposition


def test_internal_failure_exit_code(monkeypatch, capsys):
    def boom(*a, **kw):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli_mod, "build_report", boom)
    code, _, err = run(capsys, "analyze", "8", "3")
    assert code == 2
    assert "internal invariant failure" in err


def test_verbose_includes_raw_chains(capsys):
    code, out, _ = run(capsys, "analyze", "8", "3", "--json", "--verbose")
    report = json.loads(out)
    assert all("raw_chains" in rec["fiber"] for rec in report["deformations"])
    code, out, _ = run(capsys, "analyze", "8", "3", "--json")
    report = json.loads(out)
    assert all("raw_chains" not in rec["fiber"] for rec in report["deformations"])
    assert all("simultaneous_resolutions" in rec for rec in report["deformations"])


def test_analyze_svg_dir(tmp_path, capsys):
    code, _, _ = run(capsys, "analyze", "8", "3", "--svg", str(tmp_path), "-o", str(tmp_path / "r.txt"))
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
        "y_8_3_decompositions.svg",
        "y_8_3_segments.svg",
        "y_8_3_slices.svg",
    ]


def test_analyze_svg_shares_the_model(tmp_path, monkeypatch, capsys):
    """--svg draws the figures from the model build_report used, so no
    decomposition, fan decomposition or deformation is built twice, and
    neither the report nor the figures change."""
    builds = {}

    def count(module, name):
        original = getattr(module, name)

        def counting(*args):
            builds[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    count(cqsdef.resolutions, "_build_fan_decomposition")
    count(cqsdef.totalspace, "build_deformation")
    count(cqsdef.minkowski, "_build_decompositions")
    outputs = {}
    for extra in ([], ["--svg", str(tmp_path)]):
        builds.update(_build_fan_decomposition=0, build_deformation=0, _build_decompositions=0)
        code, out, _ = run(capsys, "analyze", "37", "11", "--json", *extra)
        assert code == 0
        outputs[bool(extra)] = (out, dict(builds))
    assert outputs[True] == outputs[False]
    assert outputs[False][1]["_build_fan_decomposition"] > 0
    assert outputs[False][1]["build_deformation"] == 16
    assert outputs[False][1]["_build_decompositions"] > 0
    model = cqsdef.cqs.cqs_new(37, 11)
    for target in FIGURE_TARGETS:
        assert (tmp_path / f"y_37_11_{target}.svg").read_text() == make_figure(model, target)


def count_scan_rows(monkeypatch):
    """Wrap the CLI's scan_row; the returned list collects the pairs it ran."""
    calls = []
    original = cli_mod.scan_row

    def counting(n, q):
        calls.append((n, q))
        return original(n, q)

    monkeypatch.setattr(cli_mod, "scan_row", counting)
    return calls


def scan_pairs(out):
    return [tuple(map(int, line.split(",")[:2])) for line in out.strip().splitlines()[1:]]


def checkpoint_lines(path):
    return path.read_text().splitlines()


def test_scan_checkpoint_is_json_lines(tmp_path, capsys):
    ckpt = tmp_path / "scan.ckpt"
    code, out, _ = run(capsys, "scan", "--n-range", "3:9", "--csv", "--checkpoint", str(ckpt))
    assert code == 0
    lines = checkpoint_lines(ckpt)
    assert json.loads(lines[0]) == checkpoint_header()
    rows = [json.loads(line) for line in lines[1:]]
    assert [(r["n"], r["q"]) for r in rows] == scan_pairs(out)


def test_scan_resume_runs_only_missing_pairs(tmp_path, monkeypatch, capsys):
    ckpt = tmp_path / "scan.ckpt"
    _, full, _ = run(capsys, "scan", "--n-range", "3:10", "--csv", "--checkpoint", str(ckpt))
    lines = checkpoint_lines(ckpt)
    ckpt.write_text("\n".join(lines[:6]) + "\n")  # header and five rows
    kept = {(r["n"], r["q"]) for r in map(json.loads, lines[1:6])}

    calls = count_scan_rows(monkeypatch)
    code, out, _ = run(capsys, "scan", "--n-range", "3:10", "--csv", "--checkpoint", str(ckpt))
    assert code == 0 and out == full
    assert calls == [pq for pq in scan_pairs(full) if pq not in kept]
    assert checkpoint_lines(ckpt) == lines


def test_scan_recomputes_torn_last_line(tmp_path, monkeypatch, capsys):
    ckpt = tmp_path / "scan.ckpt"
    _, full, _ = run(capsys, "scan", "--n-range", "3:10", "--csv", "--checkpoint", str(ckpt))
    lines = checkpoint_lines(ckpt)
    text = ckpt.read_text()
    ckpt.write_text(text[: len(text) - len(lines[-1]) // 2])  # a crash mid-write
    last = json.loads(lines[-1])

    calls = count_scan_rows(monkeypatch)
    code, out, _ = run(capsys, "scan", "--n-range", "3:10", "--csv", "--checkpoint", str(ckpt))
    assert code == 0 and out == full
    assert calls == [(last["n"], last["q"])]
    assert checkpoint_lines(ckpt) == lines


@pytest.mark.parametrize(
    "stale",
    [
        json.dumps({"schema_version": 1, "version": "0.0.0"}) + "\n",
        json.dumps({"schema_version": 0, "version": "0.1.0"}) + "\n",
        json.dumps({"3,1": {"n": 3, "q": 1, "e": 4, "num_components": 99}}),
        '{"schema_version": 1, "version"\n',
    ],
    ids=["foreign-version", "foreign-schema", "single-object", "not-json"],
)
def test_scan_ignores_foreign_checkpoint(tmp_path, monkeypatch, capsys, stale):
    ckpt = tmp_path / "scan.ckpt"
    row = {"n": 3, "q": 1, "e": 4, "num_components": 99, "num_deformations": 0,
           "num_smoothings": 0, "t_singularity": False}
    ckpt.write_text(stale + (json.dumps(row) + "\n" if stale.endswith("\n") else ""))
    calls = count_scan_rows(monkeypatch)
    code, out, _ = run(capsys, "scan", "--n-range", "3:6", "--csv", "--checkpoint", str(ckpt))
    assert code == 0
    assert calls == scan_pairs(out) and (3, 1) in calls
    assert "99" not in out
    assert json.loads(checkpoint_lines(ckpt)[0]) == checkpoint_header()


def test_checkpoint_header_digests_the_package_source():
    """The header names the code that wrote the checkpoint: a SHA-256 over
    the names and bytes of the package's sorted source files."""
    digest = hashlib.sha256()
    for path in sorted(Path(cli_mod.__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    header = checkpoint_header()
    assert header == {"schema_version": 1, "version": cqsdef.__version__,
                      "source": digest.hexdigest()}
    assert checkpoint_header() is header  # computed once per process


def test_scan_recomputes_a_checkpoint_of_other_code(tmp_path, monkeypatch, capsys):
    """A checkpoint whose header carries another source digest is
    recomputed in full and rewritten; one with this code's digest has no
    row recomputed."""
    ckpt = tmp_path / "scan.ckpt"
    _, full, _ = run(capsys, "scan", "--n-range", "3:8", "--csv", "--checkpoint", str(ckpt))
    lines = checkpoint_lines(ckpt)

    calls = count_scan_rows(monkeypatch)
    code, out, _ = run(capsys, "scan", "--n-range", "3:8", "--csv", "--checkpoint", str(ckpt))
    assert code == 0 and out == full and calls == []

    other = dict(json.loads(lines[0]), source="0" * 64)
    ckpt.write_text("\n".join([json.dumps(other)] + lines[1:]) + "\n")
    code, out, _ = run(capsys, "scan", "--n-range", "3:8", "--csv", "--checkpoint", str(ckpt))
    assert code == 0 and out == full
    assert calls == scan_pairs(full)
    assert checkpoint_lines(ckpt) == lines


def test_scan_retries_error_rows(tmp_path, monkeypatch, capsys):
    ckpt = tmp_path / "scan.ckpt"
    _, full, _ = run(capsys, "scan", "--n-range", "3:7", "--csv", "--checkpoint", str(ckpt))
    lines = checkpoint_lines(ckpt)
    failed = json.loads(lines[2])
    lines[2] = json.dumps({"n": failed["n"], "q": failed["q"], "error": "RuntimeError: x"})
    ckpt.write_text("\n".join(lines) + "\n")

    calls = count_scan_rows(monkeypatch)
    code, out, _ = run(capsys, "scan", "--n-range", "3:7", "--csv", "--checkpoint", str(ckpt))
    assert code == 0 and out == full
    assert calls == [(failed["n"], failed["q"])]


@pytest.mark.parametrize(
    "bad",
    [
        json.dumps({"n": [3], "q": 1}).encode(),
        json.dumps({"n": 5, "q": 2}).encode(),
        json.dumps({"n": 5, "q": 2.0, "error": "x"}).encode(),
        json.dumps({"n": 5, "q": 2, "e": 4, "num_components": "1", "num_deformations": 4,
                    "num_smoothings": 1, "t_singularity": False}).encode(),
        json.dumps([5, 2]).encode(),
        b'{"n": 5, "q"\xff',
    ],
    ids=["list-n", "missing-keys", "float-q", "str-count", "not-an-object", "not-json"],
)
def test_scan_recomputes_rows_that_are_not_scan_rows(tmp_path, monkeypatch, capsys, bad):
    """A line that does not parse, or parses but is not a scan_row, is a
    torn write: reading stops there, and it and every later row are
    computed again."""
    ckpt = tmp_path / "scan.ckpt"
    _, full, _ = run(capsys, "scan", "--n-range", "3:6", "--csv", "--checkpoint", str(ckpt))
    lines = checkpoint_lines(ckpt)
    raw = [line.encode() for line in lines]
    ckpt.write_bytes(b"\n".join(raw[:3] + [bad] + raw[3:]) + b"\n")
    kept = {(r["n"], r["q"]) for r in map(json.loads, lines[1:3])}

    calls = count_scan_rows(monkeypatch)
    code, out, _ = run(capsys, "scan", "--n-range", "3:6", "--csv", "--checkpoint", str(ckpt))
    assert code == 0 and out == full
    assert calls == [pq for pq in scan_pairs(full) if pq not in kept]
    assert checkpoint_lines(ckpt) == lines


def test_scan_exits_2_on_failed_rows(monkeypatch, capsys):
    original = cli_mod.scan_row

    def failing(n, q):
        if (n, q) == (5, 2):
            return {"n": n, "q": q, "error": "RuntimeError: forced"}
        return original(n, q)

    monkeypatch.setattr(cli_mod, "scan_row", failing)
    code, out, err = run(capsys, "scan", "--n-range", "3:6", "--csv")
    assert code == 2
    assert "1 of 6 rows failed" in err
    assert len(scan_pairs(out)) == 6
    assert "5,2,,,,,,RuntimeError: forced" in out


def test_scan_builds_each_model_once(monkeypatch, capsys):
    """Segments, zero chains and fans are memoised on the model scan_row
    built, so no stage rebuilds a model for the same (n, q)."""
    original = cqsdef.cqs.cqs_new
    calls = []

    def counting(n, q):
        calls.append((n, q))
        return original(n, q)

    for name, module in list(sys.modules.items()):
        if name.startswith("cqsdef") and getattr(module, "cqs_new", None) is original:
            monkeypatch.setattr(module, "cqs_new", counting)
    code, out, _ = run(capsys, "scan", "--n-range", "3:20", "--csv")
    assert code == 0
    assert calls == scan_pairs(out)


def test_parser_is_built_once(monkeypatch, capsys):
    """main builds its parser once per process: a second call builds no
    ArgumentParser, and a usage error on the shared parser still exits 1
    without spoiling the next call."""
    assert run(capsys, "analyze", "8", "3", "--json")[0] == 0
    built = []

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    original = cli_mod._Parser.__init__
    monkeypatch.setattr(cli_mod._Parser, "__init__", counting)
    code, out, _ = run(capsys, "analyze", "8", "3", "--json")
    assert code == 0 and json.loads(out)["counts"]["deformations"] == 7
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "8"])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert run(capsys, "scan", "--n-range", "3:6", "--json")[0] == 0
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "8"],
        ["scan", "--n-range", "foo"],
        ["figure", "8", "3", "nonsense", "-o", "x.svg"],
        ["frobnicate"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "8", "3", "-o", "{missing}/x.txt"],
        ["analyze", "8", "3", "--svg", "{file}/figs"],
        ["scan", "--n-range", "3:5", "--checkpoint", "{missing}/c"],
    ],
)
def test_unwritable_path_exits_1(argv, tmp_path, capsys):
    """An output path that cannot be opened is the user's error: one
    error line, no traceback."""
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_internal_value_error_exits_2(monkeypatch, capsys):
    """Only InvalidSingularityError is the user's fault."""

    def boom(*a, **kw):
        raise ValueError("forced")

    monkeypatch.setattr(cqsdef.resolutions, "is_canonical_cone3", boom)
    code, _, err = run(capsys, "analyze", "8", "3")
    assert code == 2
    assert "internal invariant failure: ValueError: forced" in err


def test_any_other_exception_exits_2(monkeypatch, capsys):
    """A fault of any other type is internal too: exit 2 with one line on
    stderr, as scan gives for the same fault in a row, not a traceback
    with exit 1."""

    def boom(*a, **kw):
        raise ZeroDivisionError("forced")

    monkeypatch.setattr(cli_mod, "build_report", boom)
    code, out, err = run(capsys, "analyze", "8", "3")
    assert (code, out, err) == (2, "", "internal invariant failure: ZeroDivisionError: forced\n")


@pytest.mark.parametrize(
    "exc, line",
    [
        (KeyError("k"), "KeyError: 'k'"),
        (KeyError(), "KeyError"),
        (RuntimeError(), "RuntimeError"),
    ],
)
def test_failure_line_names_the_exception_type(monkeypatch, capsys, exc, line):
    """The line names the type as a scan row does, and an exception with
    no arguments still gives a line that says what failed."""

    def boom(*a, **kw):
        raise exc

    monkeypatch.setattr(cli_mod, "build_report", boom)
    code, out, err = run(capsys, "analyze", "8", "3")
    assert (code, out, err) == (2, "", f"internal invariant failure: {line}\n")


def test_analyze_json_is_the_same_under_optimize(capsys):
    code, out, _ = run(capsys, "analyze", "8", "3", "--json")
    assert code == 0
    optimized = run_optimized("-m", "cqsdef.cli", "analyze", "8", "3", "--json")
    assert optimized.stdout == out.encode()


def test_invariant_failure_exits_2_under_optimize():
    """An invariant of the library still fails under python -O, and cli.main
    turns it into exit 2: here cqs_new is handed a chain whose first entry
    breaks the three-term relation of the dual generators."""
    code = (
        "import sys\n"
        "import cqsdef.cli, cqsdef.cqs\n"
        "expand = cqsdef.cqs.cf_expand\n"
        "def bumped(n, m):\n"
        "    first, *rest = expand(n, m)\n"
        "    return [first + 1, *rest]\n"
        "cqsdef.cqs.cf_expand = bumped\n"
        "sys.exit(cqsdef.cli.main(['analyze', '8', '3']))\n"
    )
    proc = run_optimized("-c", code, check=False)
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        "internal invariant failure: InvariantError: three-term relation fails at 2\n"
    )
