"""The suite's own settings: a failing test never stops the run."""


def test_a_failing_property_test_does_not_stop_the_suite(pytester, pytestconfig):
    # Under this project's warning filters, a falsified @given test must be
    # reported as one failure and the test after it must still run.
    entries = "\n    ".join(pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n    {entries}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_falsified(x):
            assert x < 0

        def test_after_it():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
