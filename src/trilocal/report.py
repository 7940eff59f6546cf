"""Structured pass/fail reports with deterministic text and JSON views."""

from __future__ import annotations

import json

DEFAULT_SEED = 1729  # the seed of every sampled check that is given none


def dump_json(doc):
    """The one JSON rendering: sorted keys, no blanks, so it is the same on every run."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def render_doc(doc, fmt="text"):
    """The one rendering of a flat doc: JSON through dump_json, or text with
    one "key: value" line per entry, a list as "key:" and then one indented
    line per item, with an item that is itself a list in brackets."""
    if fmt == "json":
        return dump_json(doc)
    lines = []
    for key, value in doc.items():
        if isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                shown = "[" + " ".join(str(x) for x in item) + "]" if isinstance(item, list) else item
                lines.append(f"  {shown}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def to_json(self):
        out = {"name": self.name, "pass": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


class Report:
    """A named list of checks; renders identically across runs."""

    def __init__(self, title, meta, seed=None):
        self.title = title
        self.seed = seed
        self.meta = meta
        self.checks = []

    def add(self, name, passed, detail=""):
        self.checks.append(Check(name, passed, detail))
        return passed

    def first_failures(self, names, cases):
        """Add and return one check per name over a lazily read stream of
        cases, each a tuple of one entry per check: None where it holds, the
        detail text where it fails.  A check's first text fails it; cases are
        read until every check has failed or none are left."""
        details = [None] * len(names)
        for case in cases:
            details = [d if d is not None else new for d, new in zip(details, case)]
            if None not in details:
                break
        checks = [Check(name, d is None, d or "") for name, d in zip(names, details)]
        self.checks.extend(checks)
        return checks

    def first_failure(self, name, details):
        """first_failures for one check, whose details yields None or a text per case."""
        return self.first_failures((name,), ((d,) for d in details))[0].passed

    def add_report(self, name, sub):
        """Add the report sub as the one check name; on a failure its detail
        names sub's first failing check."""
        return self.add(name, sub.passed, "" if sub.passed else next(c.name for c in sub.checks if not c.passed))

    def extend(self, other):
        for c in other.checks:
            self.checks.append(Check(f"{other.title}: {c.name}", c.passed, c.detail))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def counts(self):
        ok = sum(1 for c in self.checks if c.passed)
        return ok, len(self.checks)

    def to_json(self):
        out = {"title": self.title}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.meta:
            out["meta"] = self.meta
        out["checks"] = [c.to_json() for c in self.checks]
        out["pass"] = self.passed
        return out

    def render_text(self):
        head = {"report": self.title}
        if self.seed is not None:
            head["seed"] = self.seed
        head.update((key, self.meta[key]) for key in sorted(self.meta))
        lines = [render_doc(head)]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"  {status} {c.name}"
            if c.detail:
                line += f" :: {c.detail}"
            lines.append(line)
        ok, total = self.counts()
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} ({ok}/{total})")
        return "\n".join(lines)

    def render_json(self):
        return dump_json(self.to_json())

    def render(self, fmt):
        return self.render_text() if fmt == "text" else self.render_json()
