"""Checked-in mutants of the library's run-time checks, and their runner.

    python tests/mutants.py

Each mutant names a file of src/cqsdef, an exact text in it, the text
that replaces it (which disables one check) and the tests that must fail
once it is in.  The runner first runs every named test on an unchanged
copy of src/, where all must pass.  Then, for each mutant, it copies
src/ into a temporary directory, applies the mutant there and runs its
tests with pytest in a subprocess whose PYTHONPATH is the copy.  A
mutant is killed when every one of its tests fails; otherwise it
survived.  The runner prints one line per mutant and exits 1 if any
mutant survived or any run went wrong.  The checkout itself is never
changed.

tests/test_tooling.py keeps the table from rotting: every old text
occurs exactly once in src/, in its file, and every named test exists.
Stdlib only; not collected by pytest (the name does not start with
test_).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cqsdef
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


RES = "tests/test_resolutions.py::"
REP = "tests/test_report.py::"
CORRUPTED = REP + "test_validate_report_rejects_a_corrupted_report"

MUTANTS = (
    Mutant(
        "assemble_fan3: Q-Gorenstein check",
        "resolutions.py",
        "        if cone.gorenstein_ratio is None:\n",
        "        if False:\n",
        (RES + "test_qgorenstein_check_survives_optimize",),
    ),
    Mutant(
        "assemble_fan3: support check",
        "resolutions.py",
        "        if not all(support.contains(g) for g in mc.cone.generators):\n",
        "        if False:\n",
        (RES + "test_assemble_fan3_checks_the_support",),
    ),
    Mutant(
        "assemble_fan3: interface check",
        "resolutions.py",
        "    _check_fan_interfaces(cones)\n    return Fan3(",
        "    return Fan3(",
        (RES + "test_assemble_fan3_checks_the_interfaces",),
    ),
    Mutant(
        "canonical_model: exactly one winner",
        "resolutions.py",
        "    if len(winners) != 1:\n",
        "    if not winners:\n",
        (RES + "test_canonical_model_rejects_a_wrong_choice[two-winners]",),
    ),
    Mutant(
        "canonical_model: all_canonical",
        "resolutions.py",
        "    if not fan.all_canonical:\n",
        "    if False:\n",
        (RES + "test_canonical_model_rejects_a_wrong_choice[not-canonical]",),
    ),
    Mutant(
        "canonical_model: wall certificate",
        "resolutions.py",
        "    if not _convex_across_walls(fan.cones):\n",
        "    if False:\n",
        (RES + "test_wall_certificate_survives_optimize",),
    ),
    Mutant(
        "_convex_across_walls: never False",
        "resolutions.py",
        "<= den:\n                    return False\n",
        "<= den:\n                    pass\n",
        (
            RES + "test_wall_certificate_rejects_fans_that_are_not_the_hull[coplanar]",
            RES + "test_wall_certificate_rejects_fans_that_are_not_the_hull[reflex]",
        ),
    ),
    Mutant(
        "_build_fan_decomposition: length of the slice at h",
        "resolutions.py",
        "    if rn * ld - ln * rd != gap * ld * rd:\n",
        "    if False:\n",
        (RES + "test_fan_decomposition_rejects_slices_that_do_not_fit[length]",),
    ),
    Mutant(
        "_build_fan_decomposition: joints",
        "resolutions.py",
        "        if not all(_same(x, y) for x, y in joints):\n",
        "        if False:\n",
        (RES + "test_fan_decomposition_rejects_slices_that_do_not_fit[joints]",),
    ),
    Mutant(
        "_build_fan_decomposition: _validate_piece_admissibility",
        "resolutions.py",
        "    _validate_piece_admissibility(fd)\n    return fd\n",
        "    return fd\n",
        (RES + "test_fan_decomposition_checks_the_lattice_end_rule_of_every_piece",),
    ),
    Mutant(
        "validate_report: is_smoothing against the fiber",
        "report.py",
        '        if rec["is_smoothing"] != smooth:\n',
        "        if False:\n",
        (
            CORRUPTED + "[_flip_is_smoothing-has is_smoothing (True|False) for its fiber]",
            CORRUPTED + "[_smooth_fiber_not_flagged-has is_smoothing False for its fiber]",
        ),
    ),
    Mutant(
        "validate_report: unknown component",
        "report.py",
        "            if tuple(k) not in k_set:\n",
        "            if False:\n",
        (
            CORRUPTED + "[_drop_component-references unknown component]",
            CORRUPTED + "[_unknown_component-references unknown component]",
        ),
    ),
    Mutant(
        "validate_report: unknown canonical component",
        "report.py",
        '        if tuple(rec["canonical_model"]["k"]) not in k_set:\n',
        "        if False:\n",
        (CORRUPTED + "[_unknown_canonical_k-has unknown canonical component]",),
    ),
    Mutant(
        "validate_report: nu-table comparison",
        "report.py",
        "        if catalogue[key] != table.get(key, 0):\n",
        "        if False:\n",
        (
            CORRUPTED + "[_raise_nu_count-component count mismatch at k=]",
            CORRUPTED + "[_drop_nu_row-component count mismatch at k=]",
            CORRUPTED + "[_drop_deformation-component count mismatch at k=]",
        ),
    ),
    Mutant(
        "validate_report: deformation count",
        "report.py",
        '    if counts["deformations"] != len(report["deformations"]):\n',
        "    if False:\n",
        (CORRUPTED + "[_wrong_deformation_count-^deformation count mismatch$]",),
    ),
    Mutant(
        "validate_report: component count",
        "report.py",
        '    if counts["components"] != len(report["components"]):\n',
        "    if False:\n",
        (CORRUPTED + "[_wrong_component_count-^component count mismatch$]",),
    ),
    Mutant(
        "validate_report: smoothing count",
        "report.py",
        '    if counts["smoothings"] != smoothings:\n',
        "    if False:\n",
        (CORRUPTED + "[_raise_smoothing_count-^smoothing count mismatch$]",),
    ),
    Mutant(
        "build_report: canonical models before the fan-decomposition pass",
        "report.py",
        "    fan_decomps = [\n",
        "    canonical = [canonical_model(defo) for defo in deformations]\n    fan_decomps = [\n",
        (
            REP + "test_each_memo_entry_is_built_by_its_own_pass[n<=30]",
            REP + "test_each_memo_entry_is_built_by_its_own_pass[Y(101,29)]",
            REP + "test_build_report_builds_each_deformation_and_fiber_once",
        ),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Apply mutant to the copy of src/ at src."""
    path = src / "cqsdef" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_tests(tests, src: Path) -> tuple[int, set[str]]:
    """Run tests with pytest on the copy of src/ at src: the exit status,
    and the node ids that failed."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    failed = {
        line[len("FAILED ") :].split(" - ")[0]
        for line in proc.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return proc.returncode, failed


def run(mutant: Mutant | None, tests) -> tuple[int, set[str]]:
    """failed_tests on a fresh copy of src/, with mutant applied if any."""
    with tempfile.TemporaryDirectory(prefix="cqsdef-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, src)
        return failed_tests(tests, src)


def main() -> int:
    start = time.perf_counter()
    every_test = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    status, failed = run(None, every_test)
    if status != 0:
        print(f"the named tests do not pass without a mutant (pytest exit {status}): {failed}")
        return 1
    bad = 0
    for m in MUTANTS:
        status, failed = run(m, m.tests)
        if status == 1 and failed == set(m.tests):
            verdict = "killed"
        elif status in (0, 1):
            verdict = f"SURVIVED ({len(m.tests) - len(failed)} of {len(m.tests)} tests pass)"
        else:
            verdict = f"ERROR (pytest exit {status})"
        bad += verdict != "killed"
        print(f"{verdict:10} {m.name}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {elapsed:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
