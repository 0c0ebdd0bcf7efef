"""Structural rules of the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "darcais"


def test_no_private_names_imported_across_modules():
    # each module's underscore names are its own; a shared helper belongs
    # in the public kernel of the module that owns it
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("darcais"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []


def _called_names(func: ast.FunctionDef) -> set[str]:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _package_reach():
    """reach(name): every package function or class name that the top-level
    function `name` calls, directly or through other package functions;
    plus a predicate telling functions from classes."""
    defined: dict[str, ast.AST] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, node)

    def reach(name: str) -> set[str]:
        seen: set[str] = set()
        todo = [name]
        while todo:
            node = defined[todo.pop()]
            if not isinstance(node, ast.FunctionDef):
                continue  # classes count as one name, not followed
            for called in _called_names(node) & defined.keys():
                if called not in seen:
                    seen.add(called)
                    todo.append(called)
        return seen

    def is_function(name: str) -> bool:
        return isinstance(defined[name], ast.FunctionDef)

    return reach, is_function


def test_series_oracle_shares_no_code_with_the_recursion():
    # euler_series_poly is the oracle the divisor-sum recursion is checked
    # against; any package function both reach (directly or through other
    # package functions) would let one bug pass both routes
    reach, _ = _package_reach()
    recursion = reach("_ensure_scaled")
    oracle = reach("euler_series_poly")
    assert "_ensure_sigma" in recursion  # the walk does see package calls
    assert recursion & oracle == set()


def test_partition_routes_share_no_function_with_the_baseline():
    # verify_identity compares every partition-sum route against q_poly;
    # a package function reached by both could make a wrong route agree.
    # Both build an ExactPoly at the end, so only functions count.
    reach, is_function = _package_reach()
    baseline = {name for name in reach("q_poly") if is_function(name)}
    assert {"q_scaled_coeffs", "shift_by_one", "_ensure_scaled"} <= baseline
    for route in ("_hook_sum", "binomial_sum"):
        reached = reach(route)
        assert "enumerate_partitions" in reached  # the walk sees the route's calls
        assert {name for name in reached if is_function(name)} & baseline == set(), route
