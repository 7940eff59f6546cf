"""Report.first_failures and first_failure: the one loop of the sampled checks."""

from trilocal.report import Report


def cases(outcomes, computed):
    """Each outcome in turn, recording which cases were computed."""
    for i, outcome in enumerate(outcomes):
        computed.append(i)
        yield outcome


def test_first_failure_stops_at_the_first_text():
    rep, computed = Report("r", {}), []
    assert not rep.first_failure("check", cases([None, None, "case 2 fails", "case 3 fails", None], computed))
    assert computed == [0, 1, 2]
    [check] = rep.checks
    assert (check.name, check.passed, check.detail) == ("check", False, "case 2 fails")


def test_first_failure_passes_after_every_case():
    rep, computed = Report("r", {}), []
    assert rep.first_failure("check", cases([None] * 4, computed))
    assert computed == [0, 1, 2, 3]
    assert (rep.checks[0].passed, rep.checks[0].detail) == (True, "")


def test_first_failure_takes_only_failures():
    # a generator that yields failure texts alone, as the suites pass it
    rep = Report("r", {})
    rep.first_failure("check", (f"sample {i}" for i in range(10) if i % 4 == 3))
    assert rep.checks[0].detail == "sample 3"
    rep.first_failure("empty", iter(()))
    assert rep.checks[1].passed


def test_first_failures_reads_on_until_every_check_has_failed():
    # the first check fails on case 1, the second only on case 3
    rep, computed = Report("r", {}), []
    outcomes = [(None, None), ("a fails 1", None), ("a fails 2", None), (None, "b fails 3"), ("a fails 4", "b fails 4")]
    first, second = rep.first_failures(("a", "b"), cases(outcomes, computed))
    assert computed == [0, 1, 2, 3]
    assert (first.passed, first.detail) == (False, "a fails 1")
    assert (second.passed, second.detail) == (False, "b fails 3")


def test_first_failures_passes_a_check_only_after_every_case():
    rep, computed = Report("r", {}), []
    outcomes = [("a fails 0", None), (None, None), ("a fails 2", None)]
    first, second = rep.first_failures(("a", "b"), cases(outcomes, computed))
    assert computed == [0, 1, 2]
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [("a", False, "a fails 0"), ("b", True, "")]
