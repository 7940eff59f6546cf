"""How many cases each check of ``Report.first_failures`` reads.

Such a check reads a lazy stream of cases and stops early only where it
fails.  The test wraps ``first_failures``, counts the cases each check read
in three fixed runs, and compares the counts with
``tests/golden/check_cases.json``.  A check that stops reading too early, or
a sample count that drops, then shows even where no golden output prints the
count.  A check's cases are the items of the ranges and lists at the bottom
of its stream, found through its generator expressions and the builtin
iterators that wrap them; a stream that a generator function yields gives
one item per case.

Regenerate the record (only when a count changes on purpose) with
``PYTHONPATH=src python tests/test_check_cases.py``.
"""

import gc
import json
import pathlib
import sys
import types

import pytest

from trilocal.families import family_from_json
from trilocal.modloc import localize_module
from trilocal.report import Report
from trilocal.triangular import triple_from_json
from trilocal.verify import example_suite, random_suite

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
RECORD = GOLDEN / "check_cases.json"
SIZED = (type(iter(range(0))), type(iter([])))


def golden_module():
    data = json.loads((GOLDEN / "module.json").read_text(encoding="utf-8"))
    return triple_from_json(family_from_json(data["family"]), data)


RUNS = {
    "example_suite(1729, False)": lambda: example_suite(1729, False),
    "random_suite(7)": lambda: random_suite(7, False),
    "localize_module(module.json)": lambda: localize_module(golden_module()),
}


def sources(stream):
    """The range and list iterators that a stream of cases draws from."""
    if isinstance(stream, SIZED):
        return [stream]
    if isinstance(stream, types.GeneratorType):  # a generator expression: follow its source
        return sources(stream.gi_frame.f_locals[".0"])
    if isinstance(stream, tuple) or hasattr(stream, "__next__"):  # map, enumerate, chain
        return [s for ref in gc.get_referents(stream) for s in sources(ref)]
    return []


def counted(cases):
    """The stream of cases to read, and a function giving how many were read."""
    if isinstance(cases, types.GeneratorType) and cases.gi_code.co_name != "<genexpr>":
        read = [0]

        def counting():
            for case in cases:
                read[0] += 1
                yield case

        return counting(), lambda: read[0]
    leaves = sources(cases)
    assert leaves, "a stream of cases with no range or list to count"
    sizes = [leaf.__length_hint__() for leaf in leaves]
    return cases, lambda: sum(n - leaf.__length_hint__() for n, leaf in zip(sizes, leaves))


def case_counts(monkeypatch, run):
    """{"report title :: check name": [cases read, per call in call order]}."""
    counts = {}
    original = Report.first_failures

    def counting(self, names, cases):
        cases, read = counted(cases)
        checks = original(self, names, cases)
        for name in names:
            counts.setdefault(f"{self.title} :: {name}", []).append(read())
        return checks

    monkeypatch.setattr(Report, "first_failures", counting)
    run()
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("run", list(RUNS))
def test_cases_read_as_recorded(run, monkeypatch):
    assert case_counts(monkeypatch, RUNS[run]) == json.loads(RECORD.read_text(encoding="utf-8"))[run]


def test_counts_the_cases_a_filtered_stream_reads(monkeypatch):
    # a check over a filtered stream reads every case when it passes, and
    # stops at the first failing case
    def run():
        rep = Report("probe", {})
        rep.first_failure("holds", (f"case {i}" for i in range(7) if i < 0))
        values = [5, 4, 3, 2, 1]
        rep.first_failure("fails at 3", (f"case {i}" for i in (x for x in values) if i == 3))

    assert case_counts(monkeypatch, run) == {"probe :: holds": [7], "probe :: fails at 3": [3]}


def render(doc):
    """One line per check, so that a change of one count is one line of diff."""
    runs = []
    for run, checks in doc.items():
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(n)}" for key, n in sorted(checks.items()))
        runs.append(f" {json.dumps(run)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(runs) + "\n}\n"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        RECORD.write_text(render({run: case_counts(mp, fn) for run, fn in RUNS.items()}), encoding="utf-8")
    print(RECORD, file=sys.stderr)
