"""A failing ``@given`` test reports its falsifying example under the repo's
``pytest.ini`` (which turns every ``DeprecationWarning`` into an error) and
``tests/conftest.py``, instead of ending the run in an ``INTERNALERROR``."""

from __future__ import annotations

from pathlib import Path

import repro

TESTS = Path(__file__).resolve().parent


def test_failing_given_test_reports_its_falsifying_example(pytester, monkeypatch):
    # The run happens in a temporary directory: a relative PYTHONPATH=src
    # would not find the package there.
    monkeypatch.setenv("PYTHONPATH", str(Path(repro.__file__).resolve().parent.parent))
    pytester.makeini((TESTS.parent / "pytest.ini").read_text())
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    pytester.makepyfile(
        test_generated="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_generated.py")
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1)
