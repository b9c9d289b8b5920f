"""The opt-in tools beside the tests keep up with the code: every mutant
of tests/mutants.py still applies to src/ and names tests that exist,
and tests/soak.py reads a report as criterion 9 reads a deformation and
reports what it finds."""

import os
import subprocess
import sys
from pathlib import Path

import cqsdef
import cqsdef.report
from cqsdef.chains import enumerate_K
from cqsdef.cqs import cqs_new
from cqsdef.lattice import InvariantError
from cqsdef.report import build_report
from cqsdef.totalspace import all_deformations

import mutants
import soak
from test_acceptance import _deformation_signature


def test_every_mutant_applies_once():
    """Each old text occurs exactly once in src/cqsdef, in the mutant's
    file, so a change that moves a check must carry its mutants along."""
    sources = {path.name: path.read_text() for path in (mutants.SRC / "cqsdef").glob("*.py")}
    for m in mutants.MUTANTS:
        found = {name: text.count(m.old) for name, text in sources.items() if m.old in text}
        assert found == {m.file: 1}, m.name
        assert m.new != m.old, m.name
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_every_mutant_names_tests_that_exist():
    tests = sorted({t for m in mutants.MUTANTS for t in m.tests})
    src = str(Path(cqsdef.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests],
        cwd=mutants.ROOT,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(tests) <= set(proc.stdout.splitlines())


def test_soak_reads_the_signatures_criterion_9_reads():
    for n, q in [(8, 3), (19, 7), (37, 11)]:
        m = cqs_new(n, q)
        records = build_report(m)["deformations"]
        expected = [_deformation_signature(df) for df in all_deformations(m)]
        assert [soak.report_signature(rec) for rec in records] == expected, (n, q)


def test_soak_passes_on_small_n():
    lines = []
    assert soak.soak(3, 16, out=lines.append) == (64, []) and lines == []


def test_soak_reports_failures(monkeypatch):
    """A report that names another canonical component for the slices past
    the middle of the chain breaks the mirror; a report that raises is
    named with its error."""
    canonical_model = cqsdef.report.canonical_model

    def lopsided(defo):
        model, dec = defo
        k, fan = canonical_model(defo)
        return (enumerate_K(model)[0] if 2 * dec.h > model.e + 1 else k), fan

    monkeypatch.setattr(cqsdef.report, "canonical_model", lopsided)
    lines = []
    _, failures = soak.soak(11, 12, out=lines.append)
    assert failures and failures == lines
    assert all(line.endswith("are not mirrored") for line in lines)

    def broken(model):
        raise InvariantError(f"broken at n = {model.n}")

    monkeypatch.setattr(cqsdef.report, "is_t_singularity", broken)
    expected = [f"Y(5,{q}): InvariantError: broken at n = 5" for q in (1, 2, 3)]
    assert soak.soak(5, 5, out=[].append) == (3, expected)
