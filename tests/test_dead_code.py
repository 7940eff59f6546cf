"""No dead code in the package, checked with the standard library only.

* Every name a ``src/trilocal`` module imports (``__init__.py`` aside,
  whose imports are the public surface) is used in that module.
* Every single-underscore name defined at module or class level is
  referenced somewhere in ``src/trilocal`` outside its own definition.
* Every public function or class defined at module level, and every
  public method (a def, or a ``staticmethod(...)`` bound in the class
  body), is referenced outside its own definition somewhere in
  ``src/trilocal``, ``demos``, ``perfbench`` or the README's fenced code
  blocks.  A reference from ``tests`` alone does not count: what only a
  test reaches lives with that test.  Nor does the README's prose, its
  inline code spans included.  The re-exports of ``__init__.py`` do not
  count either: a public name with no caller gets deleted.  A method
  that overrides a method of its standard-library base class, such as
  an ``argparse.ArgumentParser`` subclass's ``error``, is called by that
  library and exempt, as dunders are.
* Every public class-level attribute, and every public field a class
  lists in ``__slots__``, is read somewhere in those places.
* A class's members are its own and those it inherits from a class of
  the same module, each checked under the class's name: moving a member
  into a shared base keeps its cases.
* Every name ``__init__.py`` re-exports is imported from ``trilocal``
  by the README or a demo: the package surface is the documented API.
* Every parameter with a default is passed, by position or keyword, by
  some call in ``src/trilocal``, ``tests``, ``demos`` or ``perfbench``:
  a setting no caller changes is a constant.
* Every parameter with a default is also left out by some call in
  ``src/trilocal``, ``demos`` or ``perfbench``: a default that every
  such caller overrides is dead code, and one that only a test leaves
  out exists only to shorten that test.  ``family_from_json``'s
  ``cls(**fields)`` leaves out each omitted descriptor field, and a
  dunder other than ``__init__`` is called by Python itself, so its
  defaults are not checked.
* ``src/trilocal/*.py`` stays within ``SOURCE_LINE_CAP`` lines, and has
  at most ``DEFAULT_CAP`` parameters with a default.
* ``tests/reference_impls.py``, the independent oracle, imports only the
  standard library.

The two rules that do not count tests, the README and override rules of
the public names, and the reference's rule, each have a negative control
on a synthetic module.

``tests/test_traffic.py`` checks the same ground from the other side: a
function whose name something keeps alive must still be entered by a
command, a demo or a workload.
"""

import ast
import importlib
import pathlib
import re
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trilocal"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def parsed(folder):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / folder).glob("*.py"))]


# the callers a user runs: the package, the demos and the benchmark
SHIPPED = [tree for module, tree in MODULES.items() if module != "__init__.py"] + parsed("demos") + parsed("perfbench")
CALLERS = SHIPPED + parsed("tests")


def references(node):
    """Names read, attributes read and names imported from a module, within node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def count_references(trees):
    return sum((references(tree) for tree in trees), Counter())


ALL_REFERENCES = count_references(MODULES.values())


def bound_names(node):
    """Names a module- or class-body statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def class_bodies(tree):
    """(class name, statements) for each module-level class: its own body,
    then the statements it inherits from bases defined in the same module,
    nearest base first, where the class binds none of their names itself."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def members(cls):
        body = list(cls.body)
        bound = {name for node in body for name in bound_names(node)}
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                for node in members(classes[base.id]):
                    names = bound_names(node)
                    if names and not bound.intersection(names):
                        body.append(node)
                        bound.update(names)
        return body

    return [(cls.name, members(cls)) for cls in classes.values()]


def private_definitions():
    """(qualified name, name, defining node) for single-underscore module-
    and class-level names."""
    out = []
    for module, tree in MODULES.items():
        scopes = [(module, tree.body)]
        scopes += [(f"{module}:{name}", body) for name, body in class_bodies(tree)]
        for scope, body in scopes:
            for node in body:
                out += [
                    (f"{scope}.{name}", name, node)
                    for name in bound_names(node)
                    if name.startswith("_") and not name.startswith("__")
                ]
    return out


def imports():
    """(module, bound name) for every import outside __init__.py."""
    out = []
    for module, tree in MODULES.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    out.append((module, (alias.asname or alias.name).split(".")[0]))
    return out


@pytest.mark.parametrize("module,name", imports(), ids=lambda v: v)
def test_import_is_used(module, name):
    used = {
        node.id for node in ast.walk(MODULES[module]) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    assert name in used, f"{module} imports {name} and never uses it"


PRIVATE = private_definitions()


@pytest.mark.parametrize("qualified,name,definition", PRIVATE, ids=[q for q, _, _ in PRIVATE])
def test_private_name_is_referenced(qualified, name, definition):
    outside = ALL_REFERENCES[name] - references(definition)[name]
    assert outside > 0, f"{qualified} is defined and nothing else in src/trilocal refers to it"


def method_names(node):
    """Names a class-body statement binds to a method: a def, or an
    assignment of ``staticmethod(...)`` such as ``add = staticmethod(operator.add)``."""
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "staticmethod":
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def standard_library_bases(definition):
    """The bases of a class definition written ``module.Class`` with module
    in the standard library, such as ``argparse.ArgumentParser``."""
    return [
        getattr(importlib.import_module(base.value.id), base.attr)
        for base in definition.bases
        if isinstance(base, ast.Attribute) and getattr(base.value, "id", None) in sys.stdlib_module_names
    ]


def public_definitions(modules):
    """(qualified name, name, defining node) for public module-level
    functions and classes and public methods of the modules, a map from
    file name to parsed source.  A method that overrides one of a
    standard-library base is left out: that library calls it."""
    out = []
    for module, tree in modules.items():
        out += [
            (f"{module}.{node.name}", node.name, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for cls, body in class_bodies(tree):
            bases = standard_library_bases(classes[cls])
            out += [
                (f"{module}:{cls}.{name}", name, member)
                for member in body
                for name in method_names(member)
                if not name.startswith("_") and not any(hasattr(base, name) for base in bases)
            ]
    return out


README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_references(readme):
    """Identifiers in the fenced code blocks of the README text readme.  An
    inline code span is prose: a name it mentions is not used."""
    code = re.findall(r"```.*?```", readme, re.S)
    return Counter(name for span in code for name in re.findall(r"[A-Za-z_]\w*", span))


SHIPPED_REFERENCES = count_references(SHIPPED) + readme_references(README)
PUBLIC = public_definitions(MODULES)


def unreferenced(qualified, name, definition, counts):
    """Why the definition is dead when counts holds no reference to name
    outside it, else None."""
    if counts[name] - references(definition)[name] <= 0:
        return f"{qualified} is defined and nothing in src, demos, perfbench or the README refers to it"
    return None


@pytest.mark.parametrize("qualified,name,definition", PUBLIC, ids=[q for q, _, _ in PUBLIC])
def test_public_name_is_referenced(qualified, name, definition):
    failure = unreferenced(qualified, name, definition, SHIPPED_REFERENCES)
    assert failure is None, failure


def test_public_name_reached_only_from_a_test_is_flagged():
    # solve is called only from a test, main from a demo
    source = ast.parse("def solve(v):\n    return v\n\n\ndef main():\n    return 0\n")
    demo = ast.parse("from pkg import main\n\nmain()\n")
    test = ast.parse("from pkg import solve\n\n\ndef test_solve():\n    assert solve(1) == 1\n")
    definitions = public_definitions({"pkg.py": source})

    def flagged(callers):
        counts = count_references(callers)
        return [failure for definition in definitions if (failure := unreferenced(*definition, counts))]

    assert flagged([source, demo, test]) == []  # counting the test as a caller hides solve
    assert flagged([source, demo]) == ["pkg.py.solve is defined and nothing in src, demos, perfbench or the README refers to it"]


def test_public_name_mentioned_only_in_readme_prose_is_flagged():
    # draw is named in an inline code span, run in a fenced block
    source = ast.parse("def draw(v):\n    return v\n\n\ndef run():\n    return 0\n")
    readme = "Call `draw(v)` for one value.\n\n```python\nfrom pkg import run\n\nrun()\n```\n"
    counts = readme_references(readme)
    assert [failure for d in public_definitions({"pkg.py": source}) if (failure := unreferenced(*d, counts))] == [
        "pkg.py.draw is defined and nothing in src, demos, perfbench or the README refers to it"
    ]


def test_only_an_override_of_a_standard_library_method_is_exempt():
    # Parser.error is argparse's to call; Base.error and its override in Report are the package's own
    source = ast.parse(
        "import argparse\n\n\n"
        "class Parser(argparse.ArgumentParser):\n    def error(self, message):\n        raise ValueError(message)\n\n\n"
        "class Base:\n    def error(self, message):\n        return message\n\n\n"
        "class Report(Base):\n    def error(self, message):\n        return message\n"
    )
    counts = count_references([source, ast.parse("Parser()\nReport()\nBase()\n")])
    assert [failure for d in public_definitions({"pkg.py": source}) if (failure := unreferenced(*d, counts))] == [
        "pkg.py:Base.error is defined and nothing in src, demos, perfbench or the README refers to it",
        "pkg.py:Report.error is defined and nothing in src, demos, perfbench or the README refers to it",
    ]


def assigned_names(node):
    """Names a class-body assignment binds; for ``__slots__ = (...)``, the
    field names its tuple lists."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if names == ["__slots__"] and isinstance(node.value, ast.Tuple):
        return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
    return names


def class_attributes():
    """(qualified name, name, defining node) for public attributes assigned
    in a class body, and for the public fields a class lists in __slots__."""
    out = []
    for module, tree in MODULES.items():
        for cls, body in class_bodies(tree):
            for node in body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    out += [
                        (f"{module}:{cls}.{name}", name, node)
                        for name in assigned_names(node)
                        if not name.startswith("_")
                    ]
    return out


ATTRIBUTES = class_attributes()


@pytest.mark.parametrize("qualified,name,definition", ATTRIBUTES, ids=[q for q, _, _ in ATTRIBUTES])
def test_class_attribute_is_read(qualified, name, definition):
    outside = SHIPPED_REFERENCES[name] - references(definition)[name]
    assert outside > 0, f"{qualified} is assigned and nothing in src, demos, perfbench or the README reads it"


def documented_imports():
    """Names imported from trilocal by the README's python blocks and the demos."""
    trees = [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", README, re.S)]
    trees += [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "demos").glob("*.py"))]
    return {
        alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "trilocal"
        for alias in node.names
    }


DOCUMENTED = documented_imports()
RE_EXPORTS = [alias.name for node in MODULES["__init__.py"].body if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("name", RE_EXPORTS)
def test_re_export_is_documented(name):
    assert name in DOCUMENTED, f"__init__.py re-exports {name}, which neither the README nor a demo imports"


def parameters_with_defaults(modules):
    """(qualified name, callee, position, parameter) for every parameter
    with a default in the modules, a map from file name to parsed source.
    callee is the name a call uses: the function's, or for __init__ its
    class's.  position counts the arguments a call passes, so a method's
    self is not one of them; it is None for a keyword-only parameter."""
    out = []
    for module, tree in modules.items():
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            cls = owner.get(id(fn))
            bound = cls is not None and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = (fn.args.posonlyargs + fn.args.args)[1 if bound else 0:]
            callee = cls.name if fn.name == "__init__" else fn.name
            scope = f"{module}:{cls.name}.{fn.name}" if cls else f"{module}.{fn.name}"
            out += [
                (f"{scope}-{arg.arg}", callee, i, arg.arg)
                for i, arg in enumerate(positional)
                if i >= len(positional) - len(fn.args.defaults)
            ]
            out += [
                (f"{scope}-{arg.arg}", callee, None, arg.arg)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
    return out


def family_classes():
    """The classes FAMILY_KINDS maps descriptor kinds to; family_from_json
    builds each one as cls(**fields), leaving every omitted field at its default."""
    kinds = next(
        node.value
        for node in MODULES["families.py"].body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FAMILY_KINDS"]
    )
    return [value.id for value in kinds.values]


def calls(trees, implicit):
    """callee name -> [(positional count, keywords, starred, double-starred)]
    for every call in the trees, and for one call that passes nothing of
    each name in implicit.  The count stops at a starred argument, which
    passes no known position."""
    out = {name: [(0, frozenset(), False, False)] for name in implicit}
    for tree in trees:
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            count = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)), len(call.args))
            keywords = frozenset(kw.arg for kw in call.keywords if kw.arg is not None)
            record = (count, keywords, count < len(call.args), any(kw.arg is None for kw in call.keywords))
            out.setdefault(name, []).append(record)
    return out


def passes(record, position, name):
    count, keywords, _, _ = record
    return name in keywords or (position is not None and count > position)


def takes_default(record, position, name):
    """Whether the call surely leaves the parameter at its default: it does
    not pass it, and no starred argument could."""
    _, _, starred, double_starred = record
    return not passes(record, position, name) and not double_starred and (position is None or not starred)


DEFAULTED = parameters_with_defaults(MODULES)
# family_from_json's cls(**fields) is a call of each family class that passes nothing
CALLS = calls(CALLERS, family_classes())
SHIPPED_CALLS = calls(SHIPPED, family_classes())


@pytest.mark.parametrize("qualified,callee,position,name", DEFAULTED, ids=[q for q, _, _, _ in DEFAULTED])
def test_default_is_overridden_somewhere(qualified, callee, position, name):
    assert any(passes(record, position, name) for record in CALLS.get(callee, [])), (
        f"{qualified}: no call in src, tests, demos or perfbench passes {name}"
    )


TAKEN = [
    (qualified, callee, position, name)
    for qualified, callee, position, name in DEFAULTED
    if not re.search(r"\.__(?!init__)\w+__-", qualified)  # dunders other than __init__ are called by Python itself
]


def default_not_taken(qualified, callee, position, name, calls):
    """Why the default is dead when no call in calls leaves it out, else None."""
    if not any(takes_default(record, position, name) for record in calls.get(callee, [])):
        return f"{qualified}: no call in src, demos or perfbench leaves {name} out, so its default serves only tests"
    return None


@pytest.mark.parametrize("qualified,callee,position,name", TAKEN, ids=[q for q, _, _, _ in TAKEN])
def test_default_is_taken_somewhere(qualified, callee, position, name):
    failure = default_not_taken(qualified, callee, position, name, SHIPPED_CALLS)
    assert failure is None, failure


def test_default_left_out_only_by_a_test_is_flagged():
    # draw's size is passed by run and left out only by the test
    source = ast.parse("def draw(rng, size=5):\n    return rng.random() * size\n\n\ndef run(rng):\n    return draw(rng, 3)\n")
    test = ast.parse("from pkg import draw\n\n\ndef test_draw(rng):\n    assert draw(rng) < 5\n")
    [default] = parameters_with_defaults({"pkg.py": source})
    assert default_not_taken(*default, calls([source, test], ())) is None  # counting the test as a caller hides it
    assert default_not_taken(*default, calls([source], ())) == (
        "pkg.py.draw-size: no call in src, demos or perfbench leaves size out, so its default serves only tests"
    )


SOURCE_LINE_CAP = 4500


def test_source_size_within_cap():
    # the line count wc -l gives over src/trilocal/*.py; a change that
    # adds code pays for it by deleting some elsewhere
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SOURCE_LINE_CAP, f"src/trilocal has {lines} lines, over the cap of {SOURCE_LINE_CAP}"


DEFAULT_CAP = 47


def test_defaults_within_cap():
    # every parameter with a default is a setting; a change that adds one
    # pays for it by making another a constant
    assert len(DEFAULTED) <= DEFAULT_CAP, (
        f"src/trilocal has {len(DEFAULTED)} parameters with a default, over the cap of {DEFAULT_CAP}"
    )


def non_stdlib_imports(tree):
    """The top-level names of the modules tree imports that are not in the
    standard library; a relative import counts as its dots."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append("." * node.level + (node.module or "").split(".")[0])
    return [name for name in out if name not in sys.stdlib_module_names]


def test_reference_imports_only_the_standard_library():
    # the oracle shares no code with trilocal, so agreeing with it is evidence
    reference = ast.parse((ROOT / "tests" / "reference_impls.py").read_text(encoding="utf-8"))
    assert non_stdlib_imports(reference) == []


def test_reference_importing_the_package_is_flagged():
    tree = ast.parse("from fractions import Fraction\nfrom trilocal.linalg import Matrix\nimport trilocal.rings\nfrom . import linalg\n")
    assert non_stdlib_imports(tree) == ["trilocal", "trilocal", "."]
