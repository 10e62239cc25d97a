import ast
import os

import qtop


def _package_trees():
    src = os.path.dirname(qtop.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield ast.parse(fh.read(), filename=name)


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
