"""Structured pass/fail reports with deterministic text and JSON views."""

from __future__ import annotations

import json


def dump_json(doc):
    """The one JSON rendering: sorted keys, no blanks, so it is the same on every run."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
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

    def __init__(self, title, seed=None, meta=None):
        self.title = title
        self.seed = seed
        self.meta = dict(meta or {})
        self.checks = []

    def add(self, name, passed, detail=""):
        self.checks.append(Check(name, passed, detail))
        return passed

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
        lines = [f"report: {self.title}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for key in sorted(self.meta):
            lines.append(f"{key}: {self.meta[key]}")
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

    def render(self, fmt="text"):
        return self.render_text() if fmt == "text" else self.render_json()
