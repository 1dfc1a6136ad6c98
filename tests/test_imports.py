"""Every name the package binds is used.

No linter ships with the project, so these tests walk syntax trees:

* an ``import x`` or ``from ... import`` that no expression, annotation
  or ``__all__`` entry of its module reads is dead weight;
* a top-level function, class or constant of the package, or a public
  method of one of its classes, that nothing in the package, the demos or
  the benchmark harness names, other than its own definition, is dead
  code.  Tests do not count as users;
* the package's modules import one another without a cycle, lazy
  imports inside functions included;
* a ``from m import`` inside a function, when the module already imports
  from m at top level, re-runs an import for nothing.  Lazy imports of a
  module the top level does not import (to defer a cost or break a cycle)
  stay allowed;
* a read of ``os.environ`` or ``os.getenv`` is a hidden input: the
  command-line flags are the package's only inputs;
* a parameter named ``order``, ``arity``, ``spec`` or ``fp`` threads a
  constant of the Klein setting through calls: the one monomial order, the
  plane, the field GF(8) and the footprint.  Only the call forms that the
  acceptance gate and the benchmark use keep one;
* a module other than poly.py that reads MonomialOrder.decode, or a name
  with "packed" in it from poly, knows the packed form of a polynomial,
  which only poly.divide works on;
* autosearch.py imports nothing from codes: the search scans no codewords.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kleincode"
MODULES = sorted(SRC.glob("*.py"))
USERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted(
    p for p in (ROOT / "kbench").glob("*.py") if not p.name.startswith("test_"))
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_unused_and_used_names():
    src = ("from a import used, unused\n"
           "from b import annotated\n"
           "from . import mod\n"
           "import operator\n"
           "import numpy as np\n"
           "import os.path\n"
           "def f(x: annotated):\n"
           "    return used(mod.attr, np.zeros(1), os.path.sep)\n")
    assert unused_imports(src) == [(1, "unused"), (4, "operator")]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(source: str) -> list:
    """(line, name) of each function, class and constant the module body
    defines; dunder names belong to the module protocol and are skipped."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out if not name.startswith("__")]


def referenced_names(source: str) -> set:
    """Names read as a variable, an attribute, an import, or a part of a
    dotted-name string such as the harness's "codes.min_distance"."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names |= set(node.value.split("."))
    return names


def test_dead_name_detector():
    src = ("import os\n"
           "LIMIT = 3\n"
           "UNUSED = 4\n"
           "SPANS = ['mod.traced']\n"
           "def traced(): return SPANS\n"
           "def helper(): return LIMIT\n"
           "def dead(): return os.sep\n"
           "class Dead: pass\n"
           "__version__ = '1'\n")
    defined = top_level_names(src)
    used = referenced_names(src) | referenced_names("from m import helper\n")
    assert [d for d in defined if d[1] not in used] == [(3, "UNUSED"), (7, "dead"),
                                                         (8, "Dead")]


def test_no_dead_top_level_names():
    used = set().union(*(referenced_names(p.read_text()) for p in USERS))
    dead = [f"{path.name}:{line} {name}" for path in MODULES
            for line, name in top_level_names(path.read_text()) if name not in used]
    assert dead == []


def public_methods(source: str) -> list:
    """(line, "Class.method") of each method without a leading underscore
    that a top-level class of the module defines."""
    return [(fn.lineno, f"{cls.name}.{fn.name}")
            for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("_")]


def test_dead_method_detector():
    src = ("class Ring:\n"
           "    def used(self): return self._helper()\n"
           "    def _helper(self): return 1\n"
           "    def __len__(self): return 0\n"
           "    @property\n"
           "    def size(self): return 2\n"
           "    def dead(self): return 3\n"
           "def f(r): return r.used(), r.size\n")
    used = referenced_names(src)
    assert [m for m in public_methods(src) if m[1].split(".")[1] not in used] == [
        (7, "Ring.dead")]


def test_no_dead_public_methods():
    used = set().union(*(referenced_names(p.read_text()) for p in USERS))
    dead = [f"{path.name}:{line} {name}" for path in MODULES
            for line, name in public_methods(path.read_text())
            if name.split(".")[1] not in used]
    assert dead == []


def package_imports(source: str, package: str = "kleincode") -> set:
    """The package modules that the source imports, anywhere in the file:
    relative imports and absolute ones of the package alike."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith(package + ".")}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == package:
                base = node.module if node.level else None
            elif node.module and node.module.startswith(package + "."):
                base = node.module.split(".")[1]
            else:
                continue
            # "from . import m" names modules; "from .m import x" names one
            out |= {base} if base else {alias.name for alias in node.names}
    return out


def import_cycle(graph: dict) -> list:
    """One cycle of the module graph as a path [m, ..., m], or [] if none."""
    state = {}  # 1 while on the depth-first path, 2 once finished

    def visit(m, path):
        state[m] = 1
        for n in sorted(graph.get(m, ())):
            if state.get(n) == 1:
                return path[path.index(n):] + [n]
            if n not in state:
                found = visit(n, path + [n])
                if found:
                    return found
        state[m] = 2
        return []

    for m in sorted(graph):
        if m not in state:
            found = visit(m, [m])
            if found:
                return found
    return []


def test_import_cycle_detector():
    src = ("from . import klein\n"
           "from .poly import divide\n"
           "import kleincode.gf\n"
           "from kleincode.codes import Variety\n"
           "import numpy\n"
           "def lazy():\n"
           "    from .verify import run_suites\n")
    assert package_imports(src) == {"klein", "poly", "gf", "codes", "verify"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]


def test_no_import_cycles():
    graph = {p.stem: package_imports(p.read_text()) - {p.stem} for p in MODULES}
    assert import_cycle(graph) == []


def redundant_local_imports(source: str) -> list:
    """(line, module) of each from-import inside a function whose module the
    file already imports from at top level."""
    tree = ast.parse(source)
    top = {(node.level, node.module) for node in tree.body
           if isinstance(node, ast.ImportFrom)}
    return sorted({(node.lineno, "." * node.level + (node.module or ""))
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level, node.module) in top})


def test_redundant_local_import_detector():
    src = ("from .poly import divide\n"
           "from pathlib import Path\n"
           "def parse():\n"
           "    from .poly import parse_monomial\n"
           "    from .klein import klein_order\n"
           "    def inner():\n"
           "        from pathlib import PurePath\n"
           "    return parse_monomial, klein_order, inner\n"
           "def lazy():\n"
           "    from .. import poly\n"
           "    from poly import divide\n"
           "    return poly, divide\n")
    assert redundant_local_imports(src) == [(4, ".poly"), (7, "pathlib")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    assert redundant_local_imports(path.read_text()) == []


def environment_reads(source: str) -> list:
    """(line, name) of each use of os.environ or os.getenv, whether as an
    attribute or imported by name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name in ("environ", "getenv")]
    return sorted(out)


def test_environment_read_detector():
    src = ("import os\n"
           "from os import getenv, sep\n"
           "def f():\n"
           "    return os.environ.get('X'), os.path.join(sep, 'a')\n"
           "def g():\n"
           "    return os.getenv('Y')\n")
    assert environment_reads(src) == [(2, "getenv"), (4, "environ"), (6, "getenv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


# call forms of tests/test_acceptance.py and kbench: buchberger(gens, order),
# coset_min_weight(..., order=, fp=), Polynomial(dom, 2, terms),
# enumerate_variety(gens, spec, 2), gf_rank(M, spec) and
# code_for_threshold(delta, s, fp, v)
PINNED_CALL_FORMS = {"groebner.buchberger", "codes.coset_min_weight",
                      "poly.Polynomial.__init__", "codes.enumerate_variety",
                      "codes.gf_rank", "codes.code_for_threshold"}
SETTING_PARAMETERS = ("order", "arity", "spec", "fp")


def setting_parameters(source: str, module: str) -> list:
    """(qualified name, parameter) of each function or method, nested ones
    included, with a parameter named order, arity, spec or fp."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    a = child.args
                    out.extend((name, p.arg)
                               for p in a.posonlyargs + a.args + a.kwonlyargs
                               if p.arg in SETTING_PARAMETERS)
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return sorted(out)


def test_order_arity_parameter_detector():
    src = ("def f(gens, order=None): pass\n"
           "def g(x, *, arity=2):\n"
           "    def inner(order): pass\n"
           "class C:\n"
           "    def m(self, orders, key=order, specs=None): pass\n"
           "    def n(self, arity): pass\n"
           "    def __init__(self, spec, points): self.spec = spec\n"
           "def h(M, fp, field=spec): pass\n")
    assert setting_parameters(src, "mod") == [
        ("mod.C.__init__", "spec"), ("mod.C.n", "arity"), ("mod.f", "order"),
        ("mod.g", "arity"), ("mod.g.inner", "order"), ("mod.h", "fp")]


def test_no_order_or_arity_parameters():
    found = [f"{name}({param})" for path in MODULES
             for name, param in setting_parameters(path.read_text(), path.stem)
             if name not in PINNED_CALL_FORMS]
    assert found == []


def poly_internals(source: str) -> list:
    """(line, name) of each read of MonomialOrder.decode and of each name
    containing "packed" that is imported from poly or read off it: the packed
    form of a polynomial is poly.py's business, and divide its one entry."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "MonomialOrder" and node.attr == "decode":
                out.append((node.lineno, "MonomialOrder.decode"))
            elif node.value.id == "poly" and "packed" in node.attr:
                out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "poly":
            out += [(node.lineno, alias.name) for alias in node.names
                    if "packed" in alias.name]
    return sorted(out)


def test_poly_internals_detector():
    src = ("from .poly import HEAD, MonomialOrder, divide, reduce_packed\n"
           "from kleincode.poly import packed\n"
           "from . import poly\n"
           "from .codes import pack_planes, _packed_multiples\n"
           "def f(k, p):\n"
           "    return MonomialOrder.decode(k), MonomialOrder.key(k), poly.from_packed(p)\n")
    assert poly_internals(src) == [(1, "reduce_packed"), (2, "packed"),
                                   (6, "MonomialOrder.decode"), (6, "from_packed")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_no_poly_internals_outside_poly(path):
    assert poly_internals(path.read_text()) == []


def test_autosearch_runs_no_codeword_scan():
    # The search's ceiling is data, klein.CLASS_MINIMUM; an import from
    # codes would let each search pay for an exact coset scan again.
    assert "codes" not in package_imports((SRC / "autosearch.py").read_text())
