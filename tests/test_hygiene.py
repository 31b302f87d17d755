"""Source hygiene: no module of the package imports a name it never uses,
every private helper it defines is referenced somewhere in it, every
public function it defines has a caller or a README entry, every
parameter with a default of its top-level functions is set by some call
in the package or its scripts, every ``module.name`` the README gives
exists, every brute-force oracle of the tests has a test that uses it,
and the functions that read a family's type off its roots read no family
name.  The unused-import scan also covers the tests and the scripts, and
every file of the three parses as Python 3.10."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "coxkit"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that the module never
    reads.  A name listed in ``__all__`` counts as used (a re-export)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scanner_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n\nprint(loads('1'))\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


def test_scanner_accepts_reexports_and_attribute_use():
    source = "import os.path\nfrom json import dumps\n__all__ = ['dumps']\nos.path.join('a')\n"
    assert unused_imports(source) == []


#: Every Python file of the package, its tests and its scripts.
PY_FILES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) \
    + sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_a_python_3_11_construct_is_flagged():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # CI also runs the tests on Python 3.10: no file may use later syntax
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private (single-underscore) functions and classes, methods included,
    that no module among ``sources`` (file name -> text) reads by name, as an
    attribute or in an import."""
    defined: list[tuple[str, str, int]] = []
    referenced: set[str] = set()
    for fname, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and _is_private(node.name):
                defined.append((fname, node.name, node.lineno))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return [f"{fname}: {name} (line {line})" for fname, name, line in defined
            if name not in referenced]


def test_scanner_flags_an_unreferenced_private_helper():
    hecke = "def _quotient_by_line(m, v):\n    return m\n\n\ndef _used():\n    pass\n"
    other = "from .hecke import _used\n\nclass _Box:\n    def _peek(self):\n        pass\n"
    assert unreferenced_private_defs({"hecke.py": hecke, "other.py": other}) == [
        "hecke.py: _quotient_by_line (line 1)",
        "other.py: _Box (line 3)",
        "other.py: _peek (line 4)",
    ]


def test_scanner_accepts_attribute_and_call_references():
    source = ("class _Box:\n    def _peek(self):\n        return self._peek\n\n\n"
              "def _helper():\n    return _Box()\n\n\nVALUE = _helper()\n")
    assert unreferenced_private_defs({"m.py": source}) == []


def test_no_unreferenced_private_helpers():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def unused_public_functions(module: str, users: list[str]) -> list[str]:
    """Public top-level functions of ``module`` (its source text) that no
    source text among ``users`` imports or reads by name."""
    defined = [(node.name, node.lineno) for node in ast.parse(module).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    read: set[str] = set()
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name} (line {line})" for name, line in defined if name not in read]


def test_scanner_flags_an_unused_oracle():
    module = "def used():\n    pass\n\n\ndef spare():\n    return used()\n\n\ndef _inner():\n    pass\n"
    users = ["from oracles import used\n", "import oracles\n"]
    assert unused_public_functions(module, users) == ["spare (line 5)"]


def test_every_oracle_has_a_user():
    users = [path.read_text() for path in sorted(TESTS.glob("test_*.py"))]
    assert unused_public_functions((TESTS / "oracles.py").read_text(), users) == []


def _reads(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, as a name, an attribute or an import."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            out |= {alias.name for alias in sub.names}
        elif isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def uncalled_unlisted_functions(modules: dict[str, str], scripts: list[str],
                                readme: str) -> list[str]:
    """Public top-level functions of the package ``modules`` (file name ->
    text) that no top-level statement of a module or of ``scripts`` reads,
    their own definition aside, and that ``readme`` names in no backtick
    span."""
    listed = {word for span in re.findall(r"`([^`]*)`", readme)
              for word in re.findall(r"\w+", span)}
    defined: list[tuple[str, ast.FunctionDef]] = []
    statements: list[ast.stmt] = []
    for fname, source in sorted(modules.items()):
        body = ast.parse(source).body
        defined += [(fname, node) for node in body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        statements += body
    for source in scripts:
        statements += ast.parse(source).body
    reads = [(st, _reads(st)) for st in statements]
    return [f"{fname}: {node.name} (line {node.lineno})" for fname, node in defined
            if node.name not in listed
            and not any(node.name in names for st, names in reads if st is not node)]


def test_scanner_flags_an_uncalled_unlisted_function():
    systems = ("def called():\n    return 1\n\n\ndef listed():\n    pass\n\n\n"
               "def recursive(k):\n    return recursive(k - 1)\n\n\n"
               "def spare():\n    return called()\n\n\ndef _private():\n    pass\n")
    cli = "from .systems import called\n\n\ndef main():\n    return 0\n\n\nMAIN = main\n"
    script = "from coxkit import systems\n\nsystems.called()\n"
    readme = "Also public: `systems.listed(x)`; spare is not in backticks.\n"
    assert uncalled_unlisted_functions({"systems.py": systems, "cli.py": cli}, [script],
                                       readme) == [
        "systems.py: recursive (line 9)",
        "systems.py: spare (line 13)",
    ]


def test_every_public_function_has_a_caller_or_a_readme_entry():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scripts = [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert uncalled_unlisted_functions(modules, scripts, readme) == []


def unset_parameters(modules: dict[str, str], scripts: list[str]) -> list[str]:
    """Parameters with a default, of the top-level functions of the package
    ``modules`` (file name -> text), that no call in a module or in
    ``scripts`` passes by position or by keyword.  Calls match by the called
    name, and one with ``*args`` or ``**kwargs`` passes every parameter.  A
    function that is also read as a value, not only called, is exempt."""
    trees = {fname: ast.parse(source) for fname, source in sorted(modules.items())}
    nodes = [node for tree in [*trees.values(), *map(ast.parse, scripts)]
             for node in ast.walk(tree)]
    calls: dict[str, list[ast.Call]] = {}
    for node in nodes:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    callees = {id(call.func) for found in calls.values() for call in found}
    values = {getattr(node, "id", getattr(node, "attr", None)) for node in nodes
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
              and id(node) not in callees}

    def passes(call: ast.Call, index: int | None, param: str) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args) \
                or any(kw.arg in (None, param) for kw in call.keywords):
            return True
        return index is not None and len(call.args) > index

    out = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in values:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            out += [f"{fname}: {node.name}({param}) (line {node.lineno})"
                    for index, param in defaulted
                    if not any(passes(call, index, param) for call in calls.get(node.name, []))]
    return out


def test_scanner_flags_an_unset_parameter():
    roots = ("def _unit(n, i, sign=1):\n    return sign\n\n\n"
             "def by_position(x, y=0):\n    return _unit(x, y)\n\n\n"
             "def by_keyword(x, *, key=None):\n    return by_position(x, y=key)\n\n\n"
             "def starred(x=0, y=0):\n    return x\n\n\n"
             "def read(flavor=None):\n    pass\n\n\n"
             "SUITES = {'read': read}\n\n\n"
             "class Box:\n    def method(self, k=0):\n        return starred(*self.args)\n")
    script = "from coxkit import roots\n\nroots.by_keyword(1, key=2)\n"
    assert unset_parameters({"roots.py": roots}, [script]) == ["roots.py: _unit(sign) (line 1)"]


def test_scanner_accepts_keyword_dicts_and_calls_from_scripts():
    verify = "def _sizes(total, d_first=False):\n    pass\n\n\nOPTS = {}\n_sizes(4, **OPTS)\n"
    roots = "def random_parset(system, rng, max_seed=4):\n    pass\n"
    script = "import roots\n\nroots.random_parset(None, None, 2)\n"
    assert unset_parameters({"verify.py": verify, "roots.py": roots}, [script]) == []
    assert unset_parameters({"roots.py": roots}, []) == ["roots.py: random_parset(max_seed) (line 1)"]


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scripts = [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    assert unset_parameters(modules, scripts) == []


def readme_names_missing(readme: str, modules: dict[str, object]) -> list[str]:
    """Every ``module.name`` (``coxkit.`` prefix allowed) in a backtick span
    of ``readme`` whose module is one of ``modules`` but has no such
    attribute."""
    missing = []
    for span in re.findall(r"`([^`]*)`", readme):
        for module, name in re.findall(r"(?<![\w.])(?:coxkit\.)?(\w+)\.(\w+)", span):
            if module in modules and not hasattr(modules[module], name):
                missing.append(f"{module}.{name}")
    return missing


def test_scanner_flags_a_readme_name_that_is_gone():
    linalg = types.SimpleNamespace(RowSpace=object)
    words = types.SimpleNamespace(FLAVORS={})
    readme = ("Use `words.FLAVORS`, `coxkit.linalg.RowSpace` and `linalg.rref`;\n"
              "`coxkit.words` is a module, `oracles.h_block` is not ours and\n"
              "`words.coproduct_component(vec, i)` is gone.\n")
    assert readme_names_missing(readme, {"linalg": linalg, "words": words}) \
        == ["linalg.rref", "words.coproduct_component"]


def test_every_name_readme_gives_exists():
    modules = {path.stem: importlib.import_module(f"coxkit.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    assert readme_names_missing((ROOT / "README.md").read_text(), modules) == []


def family_reads(source: str, qualnames: list[str]) -> list[str]:
    """Each read of a name or an attribute called ``family`` inside the
    functions ``qualnames`` (``name`` or ``Class.name``) of the module
    ``source``.  A name ``family`` passed on as a call argument only names
    a system, so it is not counted; comparing, indexing or branching on it
    is."""
    functions: dict[str, ast.AST] = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions |= {f"{node.name}.{item.name}": item for item in node.body
                          if isinstance(item, ast.FunctionDef)}
    out = []
    for qualname in qualnames:
        body = functions[qualname]
        passed = {id(arg) for call in ast.walk(body) if isinstance(call, ast.Call)
                  for arg in call.args if isinstance(arg, ast.Name)}
        out += [f"{qualname} (line {sub.lineno})" for sub in ast.walk(body)
                if id(sub) not in passed
                and (isinstance(sub, ast.Name) and sub.id == "family"
                     or isinstance(sub, ast.Attribute) and sub.attr == "family")]
    return out


def test_scanner_flags_a_family_read():
    source = ("class Element:\n    def length(self):\n"
              "        return 2 if self.system.family == 'B' else 1\n\n"
              "    def window(self):\n        return table(self.system.family)\n\n\n"
              "def sort(family, s, word):\n    if family == 'A':\n        return word\n"
              "    return FUND[family]\n\n\n"
              "def named(family, word):\n    return CoxeterSystem(family, len(word))\n")
    assert family_reads(source, ["Element.length", "Element.window", "sort", "named"]) == [
        "Element.length (line 3)",
        "Element.window (line 6)",
        "sort (line 10)",
        "sort (line 12)",
    ]


def private_reads(fname: str, source: str, package: set[str]) -> list[str]:
    """Each private name of another module of ``package`` (module names)
    that the module ``fname`` imports, or reads as an attribute of a name
    bound to that module."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.level or (node.module or "").split(".")[0] == "coxkit"):
            module = (node.module or "").removeprefix("coxkit").removeprefix(".")
            if not module:
                aliases |= {alias.asname or alias.name: alias.name for alias in node.names
                            if alias.name in package}
            elif module in package:
                found += [(module, alias.name) for alias in node.names if _is_private(alias.name)]
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname: alias.name.removeprefix("coxkit.") for alias in node.names
                        if alias.asname and alias.name.removeprefix("coxkit.") in package}
    found += [(aliases[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _is_private(node.attr)]
    own = fname.removesuffix(".py")
    return sorted({f"{fname}: {module}.{name}" for module, name in found if module != own})


def test_scanner_flags_a_private_read():
    package = {"systems", "words", "series"}
    series = ("from .words import FLAVORS, _shuffle\nfrom . import systems as sy\n"
              "from coxkit.systems import _store\nimport coxkit.words as wd\n\n\n"
              "def f(u):\n    return sy._root_table, sy.elements, wd._flavor, u._private\n")
    words = "from .systems import _trusted_element\n\n\ndef _flavor():\n    return _flavor\n"
    assert private_reads("series.py", series, package) == [
        "series.py: systems._root_table", "series.py: systems._store",
        "series.py: words._flavor", "series.py: words._shuffle"]
    assert private_reads("words.py", words, package) == ["words.py: systems._trusted_element"]
    assert private_reads("systems.py", "from .systems import _store\n", package) == []


#: The private names one module may read of another, each documented in the
#: README: the trusted constructor, the cap-checking cache and the root table.
PRIVATE_READS = {"words.py: systems._trusted_element", "descents.py: systems._capped_cache",
                 "hecke.py: systems._capped_cache", "hecke.py: systems._root_table"}


def test_no_module_reads_another_modules_private_names():
    package = {path.stem for path in SRC.glob("*.py")}
    reads = [read for path in sorted(SRC.glob("*.py"))
             for read in private_reads(path.name, path.read_text(), package)]
    assert [read for read in reads if read not in PRIVATE_READS] == []


#: The functions that read each family's type off its roots alone.  In the
#: group enumeration only the family rule, ``systems._family_rule``, may: the
#: windows and their lanes take the permutations and sign vectors from it; the
#: parabolic facts read the parabolic's roots alone.
ROOT_RULES = {
    "systems.py": ["Element.length", "Element.descent_set", "CoxeterSystem.coxeter_order",
                   "CoxeterSystem.generator", "descent_masks", "elements", "_family_lanes",
                   "_lane_windows", "_lanes", "_root_flags", "_unpack",
                   "_lane_masks", "_lane_lengths", "_inverse_lanes",
                   "descent_pair_counts", "root_sign_masks",
                   "parabolic_positive_roots", "in_parabolic", "normalizer_complement_order",
                   "parabolic_conjugacy_classes", "parabolic_elements", "_interval_positions",
                   "_ordered_table", "_parabolic_flags", "_mask_runs",
                   "_store", "_capped_cache", "_interval_entry", "_descent_interval",
                   "simple_image"],
    "descents.py": ["_simple_pairs", "class_rep_bounds", "_induce_counts"],
    "hecke.py": ["sorting_operator", "induce", "_descent_interval_module"],
}


def test_root_rules_read_no_family():
    assert [read for fname, names in ROOT_RULES.items()
            for read in family_reads((SRC / fname).read_text(), names)] == []
