"""Every top-level name in the package is reached by the package itself.

A module-level function, class or constant that no other source code
references and that `roadscene.__all__` does not export is reachable only
from its own unit tests: neither the CLI nor the documented library API can
get to it. The same holds for a method or property of a package class whose
name no other source code reads as an attribute of anything but an imported
module (`np.floor` does not read `Cuboid.floor`). Such names are deleted,
or listed in ALLOWED with the reason they stay.
"""

import ast
from pathlib import Path

import roadscene

SRC = Path(roadscene.__file__).resolve().parent

# (module, name) -> why it stays although only tests reach it
ALLOWED = {
    ("imaging", "distort_point"): "lens-model oracle: the acceptance tests "
                                  "distort synthetic trajectories with it, "
                                  "and a simulated lens would apply it",
    ("analytics", "bump"): "scalar reference that the batched deposits of "
                           "`update_heatmaps` must equal cell for cell "
                           "(tests/test_analytics.py)",
    ("cli", "_Parser.error"): "argparse calls it on a bad argument, so that "
                              "the error is a ConfigError",
    ("cli", "_Parser._print_message"): "argparse writes --help and usage "
                                       "through it; it lets an unwritable "
                                       "stdout's OSError through, which "
                                       "argparse's own swallows",
}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level names bound by a module, with the statement binding them."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defs[sub.id] = node
    return {name: node for name, node in defs.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _class_members(tree: ast.Module) -> dict[str, ast.AST]:
    """Each method and property of the module's top-level classes, as
    "Class.name", with its definition; dunder methods are left out, as
    Python calls them."""
    return {f"{cls.name}.{node.name}": node
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _references(tree: ast.AST) -> list[str]:
    """Identifiers a subtree reads: names, attributes and imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def _modules(tree: ast.Module) -> set[str]:
    """Names a module binds to modules: `import x [as y]` and
    `from . import x`."""
    return {alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module is None
            for alias in node.names}


def _attribute_reads(tree: ast.AST, modules: set[str]) -> list[str]:
    """Attributes a subtree reads off anything but one of `modules`."""
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in modules)]


def unreached(src: Path = SRC) -> set[tuple[str, str]]:
    """(module, name) pairs that only their own definition refers to."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    modules = {module: _modules(tree) for module, tree in trees.items()}
    used: dict[str, int] = {}
    read: dict[str, int] = {}
    for module, tree in trees.items():
        for name in _references(tree):
            used[name] = used.get(name, 0) + 1
        for attr in _attribute_reads(tree, modules[module]):
            read[attr] = read.get(attr, 0) + 1
    exported = set(roadscene.__all__)
    found = set()
    for module, tree in trees.items():
        for name, node in _definitions(tree).items():
            # references inside the defining statement (recursion, a class
            # naming itself in annotations) do not make a name reachable
            own = _references(node).count(name)
            if used.get(name, 0) - own == 0 and name not in exported:
                found.add((module, name))
        # a member is read as an attribute of anything but a module
        for name, node in _class_members(tree).items():
            attr = name.partition(".")[2]
            own = _attribute_reads(node, modules[module]).count(attr)
            if read.get(attr, 0) - own == 0:
                found.add((module, name))
    return found


def test_every_top_level_name_is_reached():
    found = unreached()
    stale = set(ALLOWED) - found
    assert not stale, f"allowlisted names now reached or gone: {stale}"
    assert found - set(ALLOWED) == set(), (
        "reachable only from tests; delete them or allowlist with a reason")
