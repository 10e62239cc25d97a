import ast
import importlib
import os
import re

import qtop


def _trees(directory, skip=None):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and name != skip:
            with open(os.path.join(directory, name)) as fh:
                yield ast.parse(fh.read(), filename=name)


def _package_trees():
    return _trees(os.path.dirname(qtop.__file__))


def test_every_private_module_function_is_used():
    """A module-level ``_name`` function that no code of the package reads,
    outside its own body, is dead and should be deleted."""
    trees = list(_package_trees())
    private = {
        node.name: node
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    owner = {id(n): name for name, fn in private.items() for n in ast.walk(fn)}
    used = set()
    for tree in trees:
        for n in ast.walk(tree):
            ref = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if ref in private and owner.get(id(n)) != ref:
                used.add(ref)
    assert sorted(set(private) - used) == []


def _defaulted_parameters(trees):
    """(called name, parameter, position) of every defaulted parameter of a
    module function or method.  A class is called by its own name for
    ``__init__``; position is None for keyword-only parameters."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                name = owner if child.name == "__init__" else child.name
                positional = child.args.posonlyargs + child.args.args
                if owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                ):
                    positional = positional[1:]  # self or cls
                first = len(positional) - len(child.args.defaults)
                found.extend((name, arg.arg, first + i)
                             for i, arg in enumerate(positional[first:]))
                found.extend((name, arg.arg, None)
                             for arg, default in zip(child.args.kwonlyargs,
                                                     child.args.kw_defaults)
                             if default is not None)
                visit(child, None)

    for tree in trees:
        visit(tree, None)
    return found


def test_every_keyword_default_is_set_somewhere():
    """A defaulted parameter that no call in the package or its tests sets,
    by keyword or by position, is a knob nobody turns: make it a constant."""
    trees = list(_package_trees())
    tests = _trees(os.path.dirname(os.path.abspath(__file__)))
    calls = {}
    for tree in trees + list(tests):
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                func = n.func
                ref = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(ref, []).append(n)

    def is_set(name, param, position):
        for call in calls.get(name, []):
            if any(k.arg in (param, None) for k in call.keywords):
                return True  # by keyword, or by **kwargs
            if any(isinstance(a, ast.Starred) for a in call.args):
                return True
            if position is not None and len(call.args) > position:
                return True
        return False

    unset = [f"{name}({param})" for name, param, position in _defaulted_parameters(trees)
             if not is_set(name, param, position)]
    assert unset == [], unset


def test_involutions_stay_inside_symbols():
    """Only symbols.py names the chiral grading and the symplectic unit;
    every other module reads its involutions from the relation table."""
    directory = os.path.dirname(qtop.__file__)
    leaks = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and name != "symbols.py":
            with open(os.path.join(directory, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            for n in ast.walk(tree):  # names, attributes and imported aliases
                ref = getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
                if ref in ("_quaternion_unit", "chiral_projector"):
                    leaks.append((name, ref))
    assert leaks == []


def _is_dataclass(node):
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", None) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """A field of a package dataclass that no code of the package or its
    tests reads as an attribute is carried for nobody: delete it."""
    trees = list(_package_trees())
    tests = list(_trees(os.path.dirname(os.path.abspath(__file__))))
    fields = [
        (cls.name, stmt.target.id)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    read = {
        n.attr
        for tree in trees + tests
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []


def _names(node, outside=None):
    """Names, attributes and imported aliases under ``node``, skipping the
    body of any function or class called ``outside``."""
    found = set()

    def visit(n):
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == outside:
            return
        ref = getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
        if isinstance(ref, str):
            found.add(ref)
        for child in ast.iter_child_nodes(n):
            visit(child)

    visit(node)
    return found


def test_every_public_name_is_reached():
    """A name of qtop.__all__ that no module of the package uses outside its
    own definition (re-exports do not count), that no acceptance test uses
    and that README does not name is API nobody reaches: delete it."""
    tests = os.path.dirname(os.path.abspath(__file__))
    trees = list(_trees(os.path.dirname(qtop.__file__), skip="__init__.py"))
    with open(os.path.join(tests, "test_acceptance.py")) as fh:
        acceptance = _names(ast.parse(fh.read()))
    with open(os.path.join(os.path.dirname(tests), "README.md")) as fh:
        readme = set(re.findall(r"\w+", fh.read()))
    unreached = [
        name for name in qtop.__all__
        if name not in acceptance and name not in readme
        and not any(name in _names(tree, outside=name) for tree in trees)
    ]
    assert unreached == [], unreached


def test_every_error_class_is_named_outside_errors():
    """An exception class that no other module raises, catches or imports
    is a failure mode nothing reports: delete it."""
    directory = os.path.dirname(qtop.__file__)
    with open(os.path.join(directory, "errors.py")) as fh:
        classes = [n.name for n in ast.parse(fh.read()).body if isinstance(n, ast.ClassDef)]
    named = set().union(*(_names(tree) for tree in _trees(directory, skip="errors.py")))
    unnamed = [c for c in classes if c not in named]
    assert unnamed == [], unnamed


def test_slice_table_has_one_reader_per_use():
    """A slice verdict leaves the slice table only through ``certify``, which
    turns a failing slice into NotFredholm; a second public reader would hand
    out raw partial indices past that check."""
    with open(os.path.join(os.path.dirname(qtop.__file__), "wiener_hopf.py")) as fh:
        tree = ast.parse(fh.read())
    (table,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_SliceTable"]
    public = sorted(n.name for n in table.body
                    if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"))
    assert public == ["certify", "factor", "open"]


def test_every_trace_target_resolves():
    """perfbench/spans.py wraps qtop functions by module and attribute name;
    one that no longer resolves would only show as a missing trace target
    in a benchmark run.  TARGETS is read by AST, without importing perfbench."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "spans.py")) as fh:
        tree = ast.parse(fh.read())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    targets = [tuple(e.value for e in row.elts[1:3]) for row in table.elts]
    assert targets
    missing = []
    for module_name, attribute in targets:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attribute}")
    assert missing == [], missing


def test_every_module_constant_is_read():
    """An UPPER_CASE module constant that no code of the package reads,
    outside its own assignment, is a setting nobody consults: delete it."""
    trees = list(_package_trees())
    constants = {
        target.id
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
    }
    read = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    assert sorted(constants - read) == []
