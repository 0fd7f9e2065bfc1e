import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "geoxray"


def test_every_private_module_name_is_used():
    # a module-level _function, _Class or _CONSTANT that no code in the package names besides its definition
    # is dead: a docstring mention does not count, an import, a call, a load or an attribute does
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name] += 1
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names if name.startswith("_") and not name.endswith("__")]
    assert len(defined) > 20
    assert [f"{module}: {name}" for module, name in defined if not used[name]] == []


def test_every_dataclass_field_is_read():
    # a dataclass field in the package that no code (the package, its tests, the benchmark or the scripts)
    # reads as an attribute is stored for nothing: passing it to the constructor does not count
    root = SRC.parents[1]
    read = set()
    for path in sorted(p for part in ("src", "tests", "benchmark", "scripts") for p in (root / part).rglob("*.py")):
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", ())]
            if isinstance(node, ast.ClassDef) and any(isinstance(d, ast.Name) and d.id == "dataclass"
                                                      for d in decorators):
                fields += [(path.name, node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert len(fields) > 40
    assert [f"{module}: {cls}.{name}" for module, cls, name in fields if name not in read] == []
