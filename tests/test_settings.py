"""Every defaulted parameter of the library is a setting some caller sets.

The scan reads the AST of src/darwinlab for the defaulted parameters of
every function, method and class (a dataclass field with a default that
__init__ takes, or a defaulted __init__ argument), then reads every call in
src, tests, scripts and perfbench. A call counts for a name if its callee's
last name part matches; it sets a parameter by keyword, by position (past
self or cls for a method), or by unpacking (_calls). A default that no call
sets is a constant dressed as a setting, and belongs in the body instead. The frozen
constant records NumericPolicy and PhysicalConstants are exempt: their
fields are the documented constants themselves.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "scripts", "perfbench")
EXEMPT = {"NumericPolicy", "PhysicalConstants"}


def _trees(folders):
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaulted(args: ast.arguments, skip_first: bool):
    """(name, position or None) of every defaulted parameter; a
    keyword-only parameter has no position."""
    positional = args.posonlyargs + args.args
    offset = 1 if skip_first else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_is_setting(value: ast.expr | None) -> bool:
    """A dataclass field with a default that __init__ takes."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        return (bool(keywords.keys() & {"default", "default_factory"})
                and not (isinstance(init, ast.Constant) and init.value is False))
    return True


def _settings():
    """{callee name: [(qualified name, parameter, position)]} over the library."""
    found = {}

    def add(callee, qualname, params):
        for name, pos in params:
            found.setdefault(callee, []).append((qualname, name, pos))

    for path, tree in _trees(["src/darwinlab"]):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                add(node.name, node.name, _defaulted(node.args, False))
            elif isinstance(node, ast.ClassDef) and node.name not in EXEMPT:
                if _is_dataclass(node):
                    fields = [s for s in node.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    add(node.name, node.name, [(s.target.id, i) for i, s in enumerate(fields)
                                               if _field_is_setting(s.value)])
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    params = _defaulted(item.args, not static)
                    if item.name == "__init__":
                        add(node.name, node.name, params)
                    else:
                        add(item.name, f"{node.name}.{item.name}", params)
    return found


def _dict_keys(scope: ast.AST) -> set:
    """String keys of every dict display and dict(...) call inside scope."""
    keys = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Dict):
            keys |= {k.value for k in node.keys if isinstance(k, ast.Constant)}
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys |= {k.arg for k in node.keywords if k.arg}
    return keys


def _calls():
    """{callee name: [(positional count, keyword names)]} over every caller.

    A ** unpacking sets the keys of the dicts built in the same function
    (or module, outside any function); a * unpacking sets every position.
    """
    calls = {}

    def visit(scope, keys):
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node, _dict_keys(node))
                continue
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name is not None:
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    named = {k.arg for k in node.keywords if k.arg}
                    if any(k.arg is None for k in node.keywords):
                        named |= keys
                    calls.setdefault(name, []).append(
                        (float("inf") if starred else len(node.args), named))
            visit(node, keys)

    for _, tree in _trees(CALLERS):
        visit(tree, _dict_keys(tree))
    return calls


def _sets(call, name, pos) -> bool:
    n_pos, keywords = call
    return name in keywords or (pos is not None and n_pos > pos)


def test_every_setting_is_set_by_some_call():
    calls = _calls()
    unset = sorted(f"{qualname}({name})"
                   for callee, params in _settings().items()
                   for qualname, name, pos in params
                   if not any(_sets(c, name, pos) for c in calls.get(callee, ())))
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(unset)


def test_scan_sees_settings_and_calls():
    # the scan reads a known setting and a known call of it, so an empty
    # result cannot come from a scan that sees nothing
    settings = _settings()
    assert ("build_pip", "samples_per_fraction", 1) in settings["build_pip"]
    assert any(_sets(c, "samples_per_fraction", 1) for c in _calls()["build_pip"])
