"""Which functions of ``src/trilocal`` the shipped traffic enters, and which
slots it reads.

The traffic is what a user runs: every golden command line (``CASES``,
whose output ``tests/test_golden.py`` compares; both ``verify`` suites
included), the demos, and a few more command lines whose output nothing
compares (``EXTRA``), each reaching a path of its own.  The inventory lists every function defined in
``src/trilocal`` that the traffic never enters, except dunders, which
Python calls itself, and functions whose body (after a docstring) is a
single ``raise``, which are error paths.  It also lists every field that
a class of ``src/trilocal`` names in its ``__slots__`` and that the
traffic never reads from an instance.

Functions are keyed by file name, the first line of the ``def`` (its
first decorator's, when it has one, as a code object's
``co_firstlineno`` counts it) and the name, which every Python from 3.10
gives a code object; the inventory prints each as its qualified name.
Their first entry is seen through ``sys.monitoring`` on Python 3.12 or
newer: a ``PY_START`` callback on a free tool id records the code object
and disables itself for it, so the traffic runs at full speed after
that.  Older Pythons have no ``sys.monitoring``, and a call-only
``sys.settrace`` tracer records the code object of every call instead
(a traffic run takes about three times as long under it).  Both only
collect code objects; which of them belong to ``src/trilocal`` is
decided after the run.
Slot fields are keyed by file name, class name and field, and seen on
every Python: before the traffic runs, each field's member descriptor
is swapped for a watcher, which records the field on its first read
from an instance and puts the member back.
The helper imports only the standard library and trilocal.  Run it as a
script, from a fresh interpreter, to print both lists as JSON:

    PYTHONPATH=src python tests/traffic.py
"""

import ast
import contextlib
import importlib
import io
import json
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trilocal"
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

SCALED = '{"kind":"scaled","k":2}'
REGULAR = '{"kind":"regular","ring":"Z"}'
DOUBLE = '{"kind":"double","ring":"Q"}'
HNN = '{"kind":"hnn-free","ring":"Q","A_gens":["s","t"]}'
TENSOR = '{"kind":"tensor-free","ring":"Q","A_gens":["s","t"],"B_gens":["u","v"]}'

README_EXAMPLES = {
    "normalize": ["normalize", "--family", SCALED, "--expr", "x[3]*x[5]"],
    "rho": ["rho", "--family", SCALED, "--component", "A", "--value", "3"],
    "verify-examples": ["verify", "--suite", "examples"],
    "verify-random-7": ["verify", "--suite", "random", "--seed", "7"],
    "fraction": ["fraction", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "5*x[1]^3"],
    "factor": ["factor", "--family", REGULAR, "--a0", "2", "--b0", "2", "--expr", "5*x[1]^3"],
    "localize-ring": ["localize-ring", "--family", DOUBLE],
    "localize-module": ["localize-module", "--spec", str(GOLDEN / "module.json")],
}

# hnn-free's product both merges (h(s) with h(t,1)) and shifts (h(s,t) before h(t,1))
FREE_FAMILY_EXAMPLES = {
    "normalize-hnn-free": ["normalize", "--family", HNN, "--expr", "(x[h(s)]+x[h(s,t)])*(2*x[h(t,1)]-x[h(1,s)])"],
    "normalize-tensor-free": [
        "normalize", "--family", TENSOR, "--expr", "(x[t(s,u)]-2*x[t(1,v)])*(x[t(t,1)]+1/2*x[t(s,u*v)])",
    ],
    "rho-m-hnn-free": ["rho", "--family", HNN, "--component", "M", "--value", "2*h(s)-3*h(s,t)+h(1)-1/2*h(t,1)"],
    "rho-m-tensor-free": [
        "rho", "--family", TENSOR, "--component", "M", "--value", "3*t(s,u)-t(1,1)+1/2*t(s*t,v)-t(1,u)",
    ],
    "localize-ring-hnn-free": ["localize-ring", "--family", HNN],
}

# the examples suite run on a corrupted map: it must fail by name, with the same case counts
NEGATIVE_CONTROLS = {"verify-negative-control": ["verify", "--negative-control"]}

# the golden command lines: tests/golden/<name>.out records each one's exit code and stdout
CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in {**README_EXAMPLES, **FREE_FAMILY_EXAMPLES, **NEGATIVE_CONTROLS}.items()
    for fmt in ("text", "json")
}
CASES["verify-random-4242.text"] = ["verify", "--suite", "random", "--seed", "4242"]

# command lines whose output no golden file compares, each reaching a path the cases do not
EXTRA = [
    ["rho", "--family", TENSOR, "--component", "A", "--value", "(s+2*t)*s-t*t*s+1/2"],  # ChargedRing
    ["normalize", "--family", SCALED, "--expr", "x[3]*"],  # a parse error
    ["rho", "--family", REGULAR, "--component", "M", "--value=-2"],  # a melem scaled by M's action
    ["rho", "--family", DOUBLE, "--component", "M", "--value=-(1,2)"],
    ["localize-module", "--spec", str(GOLDEN / "module.json"), "--family", TENSOR],  # the basis() default
    ["normalize", "--family", SCALED, "--expr", "-x[3]"],  # a malformed command line: argparse's error
    ["normalize", "--help"],  # argparse's exit after the help, which main returns
    ["normalize", "--family", "@" + str(GOLDEN / "family-scaled.json"), "--expr", "x[4]*x[5]-2"],  # a family file
    ["localize-module", "--spec", str(GOLDEN / "module-double.json")],  # a "p/q" entry, and an f block left out
]


def run_main(argv):
    """(exit code, stdout) of cli.main on argv, run in-process as the console
    script runs it; stderr is discarded."""
    from trilocal.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_traffic():
    for argv in [*CASES.values(), *EXTRA]:
        run_main(argv)
    for script in DEMOS:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def is_single_raise(fn):
    """Whether fn's body, after its docstring, is one raise statement."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def definitions():
    """{(file name, first line, name): qualified name} of every function in
    src/trilocal that the inventory checks: all but dunders and single-raise
    bodies.  The first line is the first decorator's, or the def's."""
    out = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")) and not is_single_raise(child):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[file, first, name] = prefix + name
                visit(child, file, f"{prefix}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return out


def entered(run):
    """(file name, first line, name) of every src/trilocal code object that
    run() enters: through sys.monitoring where there is one, else through a
    call-only tracer."""
    codes = set()
    if hasattr(sys, "monitoring"):
        _monitor(run, codes)
    else:
        _trace(run, codes)
    prefix = str(SRC)
    return {
        (pathlib.Path(code.co_filename).name, code.co_firstlineno, code.co_name)
        for code in codes if code.co_filename.startswith(prefix)
    }


def _monitor(run, codes):
    monitoring = sys.monitoring
    tool = next(i for i in range(6) if monitoring.get_tool(i) is None)
    monitoring.use_tool_id(tool, "trilocal-traffic")

    def start(code, offset):
        codes.add(code)
        return monitoring.DISABLE

    monitoring.register_callback(tool, monitoring.events.PY_START, start)
    monitoring.restart_events()
    monitoring.set_events(tool, monitoring.events.PY_START)
    try:
        run()
    finally:
        monitoring.set_events(tool, 0)
        monitoring.register_callback(tool, monitoring.events.PY_START, None)
        monitoring.free_tool_id(tool)


def _trace(run, codes):
    def call(frame, event, arg):  # a global tracer sees only calls; None traces no lines
        codes.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)


def slot_fields():
    """(file name, class name, field) of every field a class of src/trilocal
    lists in a literal __slots__, dunders aside."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets):
                    fields = ast.literal_eval(stmt.value)
                    out += [(path.name, node.name, f) for f in fields if not f.startswith("__")]
    return out


class SlotWatcher:
    """Stands in for one slot's member descriptor: the first read from an
    instance records key in seen and puts the member back; writes and
    deletes go to the member."""

    def __init__(self, cls, field, key, seen):
        self.cls, self.field, self.key, self.seen = cls, field, key, seen
        self.member = cls.__dict__[field]

    def restore(self):
        setattr(self.cls, self.field, self.member)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.member
        self.seen.add(self.key)
        self.restore()
        return self.member.__get__(obj, owner)

    def __set__(self, obj, value):
        self.member.__set__(obj, value)

    def __delete__(self, obj):
        self.member.__delete__(obj)


def read_slots(run):
    """(file name, class name, field) of every slot field of src/trilocal
    that run() reads from an instance."""
    seen, watchers = set(), []
    for file, name, field in slot_fields():
        cls = getattr(importlib.import_module(f"trilocal.{file[:-3]}"), name)
        watchers.append(SlotWatcher(cls, field, (file, name, field), seen))
        setattr(cls, field, watchers[-1])
    try:
        run()
    finally:
        for watcher in watchers:
            if watcher.key not in seen:
                watcher.restore()
    return seen


def inventory():
    """The checked functions that the traffic never enters, as "file:qualname",
    and the slot fields it never reads, as "file:class.field", from one run of
    the traffic."""
    read = set()

    def run():
        read.update(read_slots(run_traffic))

    seen = entered(run)
    functions = [f"{key[0]}:{name}" for key, name in definitions().items() if key not in seen]
    slots = [f"{file}:{name}.{field}" for file, name, field in slot_fields() if (file, name, field) not in read]
    return {"functions": functions, "slots": slots}


if __name__ == "__main__":
    print(json.dumps(inventory(), indent=1))
