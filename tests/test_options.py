"""Every settable value of the package is set by some caller, and every
name the package defines is used.

A keyword parameter with a default that no call passes, or a field of an
options record that no call sets, is configuration that nothing runs at a
second value; it belongs in a named module constant next to the code that
reads it.  This AST scan reads every call in ``src/``, ``tests/`` and
``bench/``.  A call sets a parameter when it passes it by keyword or by
position, or when it passes ``*args`` or ``**kwargs``.  A field of an
options record (``TraceOptions``, ``StabilityBudget``) is set by a call of
the record or by a keyword of a ``replace`` call.  Calls are matched by
the called name alone: a function or method by its name, ``__init__`` by
its class name.

Exempt: the surface builders of ``catalog._BUILDERS``.  Their shape
parameters arrive from a surface spec through ``make_surface(*params)``,
a call the scan cannot resolve.

A second scan reads every function, method, class and module-level
constant the package defines, and asks for a reference to its name
somewhere in ``src/``, ``tests/`` or ``bench/`` outside its own definition:
a loaded name or attribute, an imported name, or a string equal to the
name (the benchmark's span wrappers look functions up by string).  Dunder
names are called by the language and are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

from principal_config import catalog

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "principal_config").glob("*.py"))
CALLERS = [path for top in ("src", "tests", "bench")
           for path in sorted((ROOT / top).rglob("*.py"))]
OPTION_RECORDS = ("TraceOptions", "StabilityBudget")


def _declared(tree):
    """(name, parameter, position) of every parameter with a default and
    every options-record field; the position is None for keyword-only
    parameters and does not count ``self``."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name in OPTION_RECORDS:
                    fields = [s.target.id for s in child.body
                              if isinstance(s, ast.AnnAssign)]
                    out.extend((child.name, f, i)
                               for i, f in enumerate(fields))
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                name = cls if cls and child.name == "__init__" else child.name
                skip = int(cls is not None and bool(pos)
                           and pos[0].arg in ("self", "cls"))
                first = len(pos) - len(a.defaults)
                out.extend((name, arg.arg, i - skip)
                           for i, arg in enumerate(pos) if i >= first)
                out.extend((name, arg.arg, None)
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _calls(tree):
    """(called name, positional count, keywords, splat) of every call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        if name is None:
            continue
        splat = (any(isinstance(a, ast.Starred) for a in node.args)
                 or any(k.arg is None for k in node.keywords))
        yield name, len(node.args), {k.arg for k in node.keywords}, splat


def unset_values(package_sources, caller_sources, exempt=()):
    """"name(parameter)" for each settable value that no call sets."""
    declared = [d for src in package_sources for d in _declared(ast.parse(src))
                if d[0] not in exempt]
    calls = [c for src in caller_sources for c in _calls(ast.parse(src))]
    out = []
    for name, param, pos in declared:
        is_set = any(
            (called == name and (splat or param in keywords
                                 or (pos is not None and npos > pos)))
            or (called == "replace" and name in OPTION_RECORDS
                and param in keywords)
            for called, npos, keywords, splat in calls)
        if not is_set:
            out.append(f"{name}({param})")
    return sorted(out)


def test_scan_flags_only_unset_values():
    package = (
        "class TraceOptions:\n"
        "    tol: float = 1.0\n    steps: int = 5\n    sign: int = 1\n"
        "def f(x, a=1, b=2, *, c=3, d=None):\n    return g(x, 0)\n"
        "def g(x, y=0, z=1):\n    return x\n"
        "def h(p=1, q=2):\n    return p\n"
        "class K:\n"
        "    def __init__(self, p, q=2):\n        pass\n"
        "    def m(self, r=1, s=2):\n        pass\n"
        "def build(k=1):\n    return k\n")
    callers = ("f(1, 2)\nf(1, c=4)\nh(**opts)\nK(1, 3)\nK(1).m(5)\n"
               "TraceOptions(tol=2.0)\nreplace(o, steps=3)\n")
    assert unset_values([package], [package, callers], exempt={"build"}) == [
        "TraceOptions(sign)", "f(b)", "f(d)", "g(z)", "m(s)"]


def test_every_settable_value_is_set_by_a_caller():
    builders = {fn.__name__ for fn, _ in catalog._BUILDERS.values()}
    assert unset_values([p.read_text() for p in PACKAGE],
                        [p.read_text() for p in CALLERS],
                        exempt=builders) == []


def _definitions(tree):
    """(name, node) of every function, method and class, and every name a
    module-level assignment binds."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend((child.name, child) for child in node.body
                           if isinstance(child, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.extend((t.id, node) for target in targets
                       for t in ast.walk(target) if isinstance(t, ast.Name))
    return [(name, node) for name, node in out
            if not (name.startswith("__") and name.endswith("__"))]


def _references(node):
    """Counter of the names that ``node`` reads, imports or spells out."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            refs[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            refs[n.value] += 1
    return refs


def unreferenced_names(package_sources, caller_sources):
    """Each name the package defines that nothing references outside its
    own definition."""
    refs = Counter()
    for src in caller_sources:
        refs.update(_references(ast.parse(src)))
    return sorted({name for src in package_sources
                   for name, node in _definitions(ast.parse(src))
                   if refs[name] <= _references(node)[name]})


def test_dead_name_scan_flags_only_unreferenced_names():
    package = (
        "LIMIT = 3\n_UNUSED = 4\nA, B = 1, 2\n"
        "def used(n):\n    return n if n < LIMIT else used(n - 1)\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def by_string():\n    pass\n"
        "class K:\n"
        "    def __init__(self):\n        self.m()\n"
        "    def m(self):\n        return A\n"
        "    def dead(self):\n        return B\n")
    callers = "used(1)\nK()\nSPANS = [('mod', 'by_string')]\n"
    assert unreferenced_names([package], [package, callers]) == [
        "_UNUSED", "dead", "recursive"]


def test_every_defined_name_is_referenced():
    assert unreferenced_names([p.read_text() for p in PACKAGE],
                              [p.read_text() for p in CALLERS]) == []
