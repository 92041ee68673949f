"""Static checks on the package source, read as syntax trees."""

import ast
import functools
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyco"

# keyed by one int weight, so it holds at most as many small entries as
# the largest weight a process has asked for: no bound is needed
UNBOUNDED_BY_DESIGN = {("liealg.py", "_mobius_divisors")}

RAW_CONSTRUCTORS = {"Atom", "Loop", "MapFromSusp", "Product", "Smash", "Sphere", "Susp", "Wedge"}


def _name(node) -> str | None:
    # the called name of f(...) or module.f(...)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _tree(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_lru_cache_has_a_finite_bound():
    seen, unbounded = set(), []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path.name)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in fn.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                name = _name(call.func if call else deco)
                if name not in ("lru_cache", "cache"):
                    continue
                seen.add((path.name, fn.name))
                size = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")] if call else []
                # lru_cache's default bound is 128; functools.cache has none
                if name == "cache" or size and not (isinstance(size[0], ast.Constant) and type(size[0].value) is int):
                    unbounded.append((path.name, fn.name))
    assert ("scomplex.py", "homology") in seen and UNBOUNDED_BY_DESIGN <= seen  # the walk sees them
    assert sorted(set(unbounded) - UNBOUNDED_BY_DESIGN) == []


def test_every_memo_is_a_bounded_lru_cache():
    """The decorators above are not the only way to write a memo: every
    module value of the package with a cache_clear, as the benchmark finds
    the memos it clears, is an lru_cache wrapper with a finite maxsize,
    save the Moebius table, read at run time."""
    memos = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__main__":  # which runs the command line
            module = importlib.import_module(f"polyco.{path.stem}" if path.stem != "__init__" else "polyco")
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)):
                    memos[(f"{value.__module__.rsplit('.', 1)[-1]}.py", value.__qualname__)] = value
    assert ("scomplex.py", "homology") in memos and ("decomp.py", "_coproduct_groups") in memos
    assert memos[("spacexpr.py", "_normal_node")].cache_parameters()["maxsize"] <= 1024  # normalize's memo
    wrong = [key for key, memo in memos.items() if not isinstance(memo, functools._lru_cache_wrapper)
             or (memo.cache_parameters()["maxsize"] is None) != (key in UNBOUNDED_BY_DESIGN)]
    assert wrong == []


def test_decomp_builds_expressions_only_through_the_normal_form_helpers():
    """No raw constructor is called in decomp, apart from the Wedge of
    _display_wedge, which keeps named contractible atoms for display, and no
    normalize wraps a constructor call: every expression decomp makes comes
    from spacexpr's normal-form helpers, and normalize meets only inputs."""
    tree = _tree("decomp.py")
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_display_wedge":
            allowed = {id(node) for node in ast.walk(fn)}
    assert allowed
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    raw = [(node.lineno, _name(node.func)) for node in calls
           if _name(node.func) in RAW_CONSTRUCTORS and id(node) not in allowed]
    assert raw == []
    wrapped = [node.lineno for node in calls if _name(node.func) == "normalize"
               and any(isinstance(a, ast.Call) and _name(a.func) in RAW_CONSTRUCTORS for a in node.args)]
    assert wrapped == []
