"""Every public function of the package has a caller outside the tests, and
every private module-level name is read somewhere in src/.

A function only tests call checks nothing the program runs, so it belongs
in tests/oracles.py, not in src/. References are read from the syntax trees
of src/, scripts/ and bench/: names, attributes and imported names, not
strings or comments. `Cls.method` credits that class alone; `obj.method`
credits every class with a method of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public defs kept without a caller, and why
ALLOWED = {
    "estimate_psw": "bench/spans.py patches it by name until the program "
                    "feeds the magnetics counters itself (ROADMAP item 2)",
    "derive_custom_mode": "the device-to-system write-mode derivation that "
                          "ROADMAP item 4 wires into a subcommand",
    "WerCurve.from_csv": "the library must be able to read the sweep.csv it writes",
}


def public_defs() -> dict[str, str]:
    """{'name' or 'Class.name': file} of the public defs under src/spinpad."""
    defs = {}
    for path in sorted((ROOT / "src" / "spinpad").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[node.name] = path.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs.update((f"{node.name}.{sub.name}", path.name) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))
    return defs


def references(classes: set[str]) -> set[str]:
    refs = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.alias):
                    refs.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Attribute):
                    owner = getattr(node.value, "id", None)
                    refs.add(f"{owner if owner in classes else '*'}.{node.attr}")
    return refs


def test_every_public_def_has_a_caller_outside_the_tests():
    defs = public_defs()
    refs = references({name.split(".")[0] for name in defs if "." in name})
    unused = sorted(
        f"{path}: {name}" for name, path in defs.items() if name not in ALLOWED
        and name not in refs and f"*.{name.rpartition('.')[2]}" not in refs)
    assert not unused, "public defs that only tests call:\n" + "\n".join(unused)


def test_allowlist_names_live_defs():
    defs = public_defs()
    assert set(ALLOWED) <= set(defs), set(ALLOWED) - set(defs)


def private_defs() -> dict[str, str]:
    """{name: file} of the private names each module under src/spinpad binds at its
    top level: defs, classes and assignment targets, dunder names aside."""
    names = {}
    for path in sorted((ROOT / "src" / "spinpad").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            names.update((name, path.name) for name in bound
                         if name.startswith("_") and not name.startswith("__"))
    return names


def test_every_private_name_is_read_in_src():
    """A private module-level name that nothing under src/ loads, as a name or as an
    attribute, is a remnant of code that is gone."""
    reads = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    defs = private_defs()
    assert defs
    unread = sorted(f"{path}: {name}" for name, path in defs.items() if name not in reads)
    assert not unread, "private names nothing in src/ reads:\n" + "\n".join(unread)
