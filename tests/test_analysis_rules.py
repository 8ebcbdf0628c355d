"""Rule-level tests of the invariant linter against the fixture corpus.

Each ``*_bad.py`` file under ``tests/analysis_fixtures/`` marks its expected
violations with ``# expect[rule-id]`` comments; the corpus test runs the full
default rule set over the file and requires the reported ``(line, rule_id)``
set to match the markers exactly — so a rule that fires on the wrong line,
or a new false positive anywhere in the corpus, fails loudly.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.analysis import default_rules, run_paths, run_source
from repro.analysis.framework import (
    Finding,
    ModuleSource,
    iter_python_files,
    parse_suppressions,
)

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

_EXPECT_RE = re.compile(r"#\s*expect\[([^\]]+)\]")

BAD_FIXTURES = (
    "int_purity_bad.py",
    "snapshot_incomplete_bad.py",
    "snapshot_registry_drift_bad.py",
    "wire_version_bad.py",
    "frame_kinds_bad.py",
    "determinism_bad.py",
    "repro/serving/async_safety_bad.py",
)


def _expected_findings(text: str) -> List[Tuple[int, str]]:
    """The ``(line, rule_id)`` pairs declared by ``# expect[...]`` markers."""
    expected = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for rule_id in match.group(1).split(","):
                expected.append((lineno, rule_id.strip()))
    return sorted(expected)


# --------------------------------------------------------------------- corpus
@pytest.mark.parametrize("fixture", BAD_FIXTURES)
def test_bad_fixture_fires_exactly_where_marked(fixture):
    path = FIXTURES / fixture
    expected = _expected_findings(path.read_text(encoding="utf-8"))
    assert expected, "fixture %s declares no # expect[...] markers" % fixture

    report = run_paths([path])
    actual = sorted((f.line, f.rule_id) for f in report.findings)
    assert actual == expected, "\n" + report.format()
    assert all(f.hint for f in report.findings), "every finding needs a fix hint"
    assert report.suppressed == 0


def test_every_rule_is_covered_by_the_corpus():
    """Each shipped rule id must fire somewhere in the fixture corpus."""
    report = run_paths([FIXTURES])
    fired = {f.rule_id for f in report.findings}
    shipped = {rule.rule_id for rule in default_rules()}
    assert shipped == {
        "int-purity",
        "snapshot-completeness",
        "async-safety",
        "wire-version",
        "determinism",
    }
    assert fired == shipped


def test_suppression_corpus_is_clean_but_counted():
    report = run_paths([FIXTURES / "suppressed_ok.py"])
    assert report.ok, "\n" + report.format()
    assert report.suppressed == 3


# ----------------------------------------------------------- rule edge cases
def test_async_rule_is_path_gated():
    """The same bad coroutine outside repro/serving/ raises no findings."""
    text = (FIXTURES / "repro" / "serving" / "async_safety_bad.py").read_text(
        encoding="utf-8"
    )
    gated = run_source(text, path="repro/serving/async_safety_bad.py")
    elsewhere = run_source(text, path="examples/async_demo.py")
    assert not gated.ok
    assert elsewhere.ok, "\n" + elsewhere.format()


def test_snapshot_registry_detects_stale_pin_after_bump():
    text = (
        "MONITOR_STATE_VERSION = 6\n"
        "\n"
        "class MonitorState:\n"
        "    version: int\n"
        "    patient_id: str\n"
        "    fs: float\n"
        "    detector: dict\n"
        "    windower: dict\n"
        "    sequence: int\n"
        "    n_windows: int\n"
        "    pending: tuple\n"
        "    n_gaps: int\n"
        "    windows_lost: int\n"
        "    extra: int\n"
    )
    report = run_source(text, path="repro/serving/streaming.py")
    assert len(report.findings) == 1
    assert "still records version 5" in report.findings[0].message


def test_snapshot_registry_detects_bump_without_layout_change():
    text = (
        "MONITOR_STATE_VERSION = 6\n"
        "\n"
        "class MonitorState:\n"
        "    version: int\n"
        "    patient_id: str\n"
        "    fs: float\n"
        "    detector: dict\n"
        "    windower: dict\n"
        "    sequence: int\n"
        "    n_windows: int\n"
        "    pending: tuple\n"
        "    n_gaps: int\n"
        "    windows_lost: int\n"
    )
    report = run_source(text, path="repro/serving/streaming.py")
    assert len(report.findings) == 1
    assert "pins MonitorState at version 5" in report.findings[0].message


def test_wire_rule_rejects_unregistered_version():
    report = run_source("WIRE_VERSION = 99\n", path="repro/serving/wire.py")
    assert len(report.findings) == 1
    assert "no pinned fingerprint" in report.findings[0].message


def test_wire_rule_requires_literal_version():
    report = run_source("BASE = 1\nWIRE_VERSION = BASE + 1\n", path="wire.py")
    assert len(report.findings) == 1
    assert "integer literal" in report.findings[0].message


def test_wire_rule_ignores_modules_without_wire_constants():
    report = run_source("x = 1\n", path="repro/serving/wire.py")
    assert report.ok


def test_int_purity_clock_reference_in_default_is_fine():
    """A ``clock=time.monotonic`` default is a reference, not a call."""
    text = (
        "import time\n"
        "from typing import Callable\n"
        "\n"
        "def run(clock: Callable[[], float] = time.monotonic) -> float:\n"
        "    return clock()\n"
    )
    report = run_source(text, path="repro/experiments/runner.py")
    assert report.ok, "\n" + report.format()


# ------------------------------------------------------------- framework bits
def test_parse_suppressions_table():
    table = parse_suppressions(
        "x = 1  # repro: allow[determinism]\n"
        "y = 2\n"
        "z = 3  # repro: allow[int-purity, async-safety]\n"
        "w = 4  # repro: allow[*]\n"
    )
    assert table == {
        1: frozenset({"determinism"}),
        3: frozenset({"int-purity", "async-safety"}),
        4: frozenset({"*"}),
    }


def test_suppression_covers_line_above():
    module = ModuleSource.from_text(
        "# repro: allow[determinism]\nimport time\n", path="m.py"
    )
    finding = Finding("determinism", "m.py", 2, 0, "msg")
    other = Finding("int-purity", "m.py", 2, 0, "msg")
    assert module.is_suppressed(finding)
    assert not module.is_suppressed(other)


def test_finding_format_includes_location_and_hint():
    text = Finding("wire-version", "a/b.py", 7, 4, "drift", hint="bump it").format()
    assert text.splitlines()[0] == "a/b.py:7:4 [wire-version] drift"
    assert "hint: bump it" in text


def test_iter_python_files_deduplicates(tmp_path):
    target = tmp_path / "pkg"
    target.mkdir()
    file_a = target / "a.py"
    file_a.write_text("x = 1\n")
    (target / "notes.txt").write_text("ignored\n")
    files = iter_python_files([target, file_a])
    assert files == [file_a]
    with pytest.raises(FileNotFoundError):
        iter_python_files([target / "notes.txt"])


def test_run_source_uses_default_rules():
    report = run_source("import random\n", path="anywhere.py")
    assert [f.rule_id for f in report.findings] == ["determinism"]
    assert report.files_checked == 1
