"""The CI workflow and the docs name only things that exist.

Nothing can run GitHub Actions offline, so this is the one local check on
the workflow's wiring: every ``benchmarks/…`` / ``tests/…`` path it names
exists, and every ``REPRO_*`` variable it assigns is read by some Python
file under ``src/``, ``tests/`` or ``benchmarks/`` (a renamed or deleted
knob would otherwise be set forever and read by nobody). The same holds
for the CLI flags the docs show: each one is registered in ``cli.py``.
Plain regexes, so no YAML or Markdown parser is needed.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
CLI = ROOT / "src" / "repro" / "cli.py"
DOCS = (
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
)

_PATH = re.compile(r"\b((?:benchmarks|tests)/[\w./-]*\w)")
_ASSIGNED = re.compile(r"\b(REPRO_[A-Z_]+)=")
_REGISTERED = re.compile(r"""add_argument\(\s*["'](--[\w-]+)["']""")
_FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")
#: a line that runs the CLI (``repro query …``, ``python -m repro …``).
_INVOCATION = re.compile(
    r"python3? -m repro(?![\w.])|\brepro (?:query|explain|bench|trace)\b"
)
#: an inline ``query …`` / ``explain …`` span.
_SUBCOMMAND_SPAN = re.compile(r"`((?:query|explain)\b[^`]*)`")


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


def _documented_flags():
    for doc in DOCS:
        for number, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), 1
        ):
            spans = _SUBCOMMAND_SPAN.findall(line)
            if _INVOCATION.search(line):
                spans.append(line)
            for span in spans:
                for flag in _FLAG.findall(span):
                    yield flag, f"{doc.relative_to(ROOT)}:{number}"


def test_documented_cli_flags_are_registered():
    registered = set(_REGISTERED.findall(CLI.read_text(encoding="utf-8")))
    assert "--parallel" in registered  # the regex sees the registrations
    documented = list(_documented_flags())
    assert any(flag == "--parallel" for flag, _ in documented)
    stale = sorted(
        f"{where}: {flag}"
        for flag, where in documented
        if flag not in registered
    )
    assert not stale, f"docs show CLI flags cli.py does not register: {stale}"
