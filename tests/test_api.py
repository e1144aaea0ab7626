import ast
from pathlib import Path

import symunion

# Names that left the public surface: test oracles and builders that now live
# in tests/helpers.py, and capabilities nothing in the package used.
NOT_EXPORTED = (
    "alexander_from_conway",
    "connected_sum",
    "is_monic",
    "parse_poly",
    "renumber_edges",
    "reverse",
    "reverse_strand",
    "tangle_fraction",
)


def test_every_exported_name_resolves():
    for name in symunion.__all__:
        assert hasattr(symunion, name), name


def test_exports_are_unique():
    assert len(set(symunion.__all__)) == len(symunion.__all__)


def test_test_only_names_are_not_exported():
    for name in NOT_EXPORTED:
        assert name not in symunion.__all__, name
        assert not hasattr(symunion, name), name


# The package's modules, each importing only modules before it; __init__
# re-exports them all.
LAYERS = ("poly", "diagram", "report", "tangle", "construct", "group", "invariant", "corpus", "cli")
SRC = Path(symunion.__file__).resolve().parent


def package_imports(tree):
    """(module, line) for each of the package's modules that tree imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("symunion"):
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            names = parts[:1] or [a.name for a in node.names]
            yield from ((name, node.lineno) for name in names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("symunion."):
                    yield a.name.split(".")[1], node.lineno


def test_the_layers_name_every_module():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted([*LAYERS, "__init__"])


def test_no_function_imports_at_call_time():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}:{inner[0]} imports inside {node.name}"


def test_each_module_imports_only_earlier_layers():
    for i, name in enumerate(LAYERS):
        for used, line in package_imports(ast.parse((SRC / f"{name}.py").read_text())):
            assert used in LAYERS[:i], f"{name}.py:{line} imports {used}"
