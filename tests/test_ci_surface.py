"""The CI workflow names only things that exist.

Nothing can run GitHub Actions offline, so this is the one local check on
the workflow's wiring: every ``benchmarks/…`` / ``tests/…`` path it names
exists, and every ``REPRO_*`` variable it assigns is read by some Python
file under ``src/``, ``tests/`` or ``benchmarks/`` (a renamed or deleted
knob would otherwise be set forever and read by nobody). Plain regexes,
so no YAML parser is needed.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_PATH = re.compile(r"\b((?:benchmarks|tests)/[\w./-]*\w)")
_ASSIGNED = re.compile(r"\b(REPRO_[A-Z_]+)=")


def _python_sources():
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.read_text(encoding="utf-8")


def _reads(name, text):
    quoted = rf"""["']{name}["']"""
    return re.search(
        rf"(?:environ\.get|getenv)\(\s*{quoted}|environ\[\s*{quoted}\s*\]",
        text,
    )


def test_named_paths_exist():
    paths = set(_PATH.findall(WORKFLOW.read_text(encoding="utf-8")))
    assert "benchmarks/perf/run.py" in paths  # the regex sees the steps
    missing = sorted(p for p in paths if not (ROOT / p).exists())
    assert not missing, f"ci.yml names missing paths: {missing}"


def test_assigned_variables_are_read():
    names = set(_ASSIGNED.findall(WORKFLOW.read_text(encoding="utf-8")))
    assert "REPRO_BENCH_SF" in names  # the regex sees the assignments
    sources = list(_python_sources())
    unread = sorted(
        name for name in names
        if not any(_reads(name, text) for text in sources)
    )
    assert not unread, f"ci.yml sets variables nothing reads: {unread}"
