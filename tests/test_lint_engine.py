"""Tests for the repo-native invariant lint engine (:mod:`repro.lint`).

Three layers:

* **fixtures** — each rule fires on its ``*_bad.py`` fixture, stays quiet on
  ``*_clean.py`` and is silenced by the directives in ``*_suppressed.py``
  (see ``tests/lint_fixtures/``);
* **reporters** — the text and JSON renderers emit the documented shapes;
* **meta** — the engine runs clean over the real repository (the same
  invocation the ``static-analysis`` CI job blocks on).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    all_rules,
    default_config,
    get_rule,
    render_json,
    render_text,
    run_lint,
)
from repro.lint.engine import main as lint_main
from repro.lint.suppress import parse_suppressions

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = "lint_fixtures"

MODULE_RULE_IDS = ["DET001", "DET002", "NPY001", "NPY002", "NPY003", "NPY004"]

#: rule id -> finding count expected on its ``*_bad.py`` fixture.
EXPECTED_BAD_HITS = {
    "DET001": 4,   # time.time, time.sleep, perf_counter, datetime.now
    "DET002": 4,   # shuffle, random, np.random.rand, np.random.randint
    "NPY001": 3,   # wrapping arange, astype, concatenate
    "NPY002": 2,   # two bare .astype calls
    "NPY003": 3,   # dtype=object, dtype="O", dtype=np.object_
    "NPY004": 3,   # dtype="float64", np.float64, alpha * 2.0
}


def _lint_fixture(rule_id: str, *fixture_names: str):
    """Run one rule over flat fixture files under ``tests/lint_fixtures``."""
    config = LintConfig(
        src_roots=tuple(f"{FIXTURES}/{name}.py" for name in fixture_names),
        rule_scopes={},
    )
    return run_lint(root=TESTS_DIR, config=config, rule_ids=[rule_id])


# --------------------------------------------------------------- fixtures
@pytest.mark.parametrize("rule_id", MODULE_RULE_IDS)
def test_rule_fires_on_bad_fixture(rule_id):
    result = _lint_fixture(rule_id, f"{rule_id.lower()}_bad")
    assert not result.ok
    assert len(result.findings) == EXPECTED_BAD_HITS[rule_id]
    assert all(f.rule_id == rule_id for f in result.findings)


@pytest.mark.parametrize("rule_id", MODULE_RULE_IDS)
def test_rule_quiet_on_clean_fixture(rule_id):
    result = _lint_fixture(rule_id, f"{rule_id.lower()}_clean")
    assert result.ok, [f.message for f in result.findings]


@pytest.mark.parametrize("rule_id", MODULE_RULE_IDS)
def test_rule_silenced_by_suppressions(rule_id):
    fixture = f"{rule_id.lower()}_suppressed"
    result = _lint_fixture(rule_id, fixture)
    assert result.ok, [f.message for f in result.findings]
    # The directives suppress real hits — the fixture is not accidentally
    # clean (a typo in a directive must not pass silently).
    source = (TESTS_DIR / FIXTURES / f"{fixture}.py").read_text()
    index = parse_suppressions(source)
    assert index.by_line or index.file_wide


def test_findings_carry_location_and_sort(rule_id="DET001"):
    result = _lint_fixture(rule_id, "det001_bad")
    lines = [f.line for f in result.findings]
    assert lines == sorted(lines)
    for finding in result.findings:
        assert finding.path.endswith("det001_bad.py")
        assert finding.line > 0 and finding.col >= 0
        assert "Clock" in finding.message  # points at the remedy


def test_parse_error_is_reported_not_crashed(tmp_path):
    bad = tmp_path / "src"
    bad.mkdir()
    (bad / "broken.py").write_text("def broken(:\n")
    config = LintConfig(src_roots=("src",), rule_scopes={})
    result = run_lint(root=tmp_path, config=config)
    assert not result.ok
    assert result.parse_errors and "broken.py" in result.parse_errors[0]


# -------------------------------------------------------------- reporters
def test_text_reporter_shape():
    result = _lint_fixture("NPY002", "npy002_bad")
    text = render_text(result)
    lines = text.splitlines()
    # path:line:col: RULE message, one per finding, then a summary line.
    assert len(lines) == len(result.findings) + 1
    for finding, line in zip(result.findings, lines):
        assert line.startswith(
            f"{finding.path}:{finding.line}:{finding.col}: NPY002 "
        )
    assert lines[-1].startswith(f"{len(result.findings)} finding")


def test_text_reporter_clean_summary():
    result = _lint_fixture("NPY002", "npy002_clean")
    assert "0 findings" in render_text(result)


def test_json_reporter_schema():
    result = _lint_fixture("DET002", "det002_bad")
    payload = json.loads(render_json(result))
    assert payload["schema_version"] == 1
    assert payload["files_checked"] == 1
    assert payload["parse_errors"] == []
    assert len(payload["findings"]) == len(result.findings)
    first = payload["findings"][0]
    assert set(first) == {"rule", "path", "line", "col", "message"}
    assert first["rule"] == "DET002"


# ------------------------------------------------------- registry and CLI
def test_rule_catalog_is_complete():
    catalog = {rule.rule_id for rule in all_rules()}
    assert catalog == {"DET001", "DET002", "NPY001", "NPY002", "NPY003", "NPY004"}
    for rule in all_rules():
        assert rule.name and rule.description and rule.rationale


def test_get_rule_round_trips():
    assert get_rule("DET001").rule_id == "DET001"
    with pytest.raises(KeyError):
        get_rule("NOPE999")


def test_cli_exit_codes(tmp_path, capsys):
    # Clean run over the real repo (the CI invocation) exits 0 …
    assert lint_main(["--root", str(REPO_ROOT)]) == 0
    capsys.readouterr()
    # … and a repo with a violation in its library tree exits 1.
    library = tmp_path / "src" / "repro"
    library.mkdir(parents=True)
    (library / "dirty.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n"
    )
    assert lint_main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "dirty.py" in out


def test_cli_json_and_rule_selection(tmp_path, capsys):
    library = tmp_path / "src" / "repro"
    library.mkdir(parents=True)
    (library / "dirty.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n"
    )
    # Restricting to an unrelated rule makes the same tree pass.
    assert lint_main(["--root", str(tmp_path), "--rules", "NPY003"]) == 0
    capsys.readouterr()
    assert lint_main(["--root", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "DET001"


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "NPY004"):
        assert rule_id in out


# ------------------------------------------------------------------- meta
def test_repo_is_lint_clean():
    """The tree itself passes its own invariants — same gate as CI."""
    result = run_lint(root=REPO_ROOT, config=default_config())
    assert result.parse_errors == []
    assert result.findings == [], render_text(result)
    assert result.files_checked > 100  # the whole library actually scanned
