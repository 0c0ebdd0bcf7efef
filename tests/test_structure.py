"""Structural rules of the package source."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import darcais

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "darcais"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# Where the program starts: `python -m darcais.cli` runs main, the
# `darcais` console script (pyproject.toml) runs entry, which calls main.
ROOTS = ("cli.main", "cli.entry")

# Definitions kept although the CLI does not reach them, one reason each.
# They are walk roots too, so what they call counts as reached.
TRACER = "perfbench tracer wraps it by name (ROADMAP item 3)"
ALLOWED = {
    "rootcert.SturmChain.build": TRACER,
    "rootcert.SturmChain.members": TRACER,
    "rootcert.SturmChain.variations_at": TRACER,
    "partitions.Partition.hooks": TRACER,
    "partitions.enumerate_partitions": TRACER,
}


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(nodes) -> tuple[set[str], set[str]]:
    """Names and attribute names the nodes read, calls or not: a function
    handed on (`set_defaults(func=cmd_poly)`) is live as much as one called."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                attrs.add(sub.attr)
    return names, attrs


def _package_reach(into_classes: bool = True):
    """reach(*keys): the given package definitions and every one they
    reference, directly or through others; plus a predicate telling
    functions and methods from classes and tables; plus all keys.

    Keys are "module.name" for module-level functions, classes and assigned
    names (tables such as _ROUTE_FUNCS), "module.Class.method" for methods.
    A name resolves to every module-level definition so named in any
    module; an attribute `obj.x` also to every method called x.  That
    over-approximates: it can miss dead code, never flag live code.

    A reached class makes its class-level statements and its dunder methods
    live, since Python calls those implicitly; other methods are reached
    by attribute.  With into_classes=False a class counts as one name and
    nothing inside it is followed.
    """
    body: dict[str, list[ast.AST]] = {}
    functions: set[str] = set()
    by_name: dict[str, set[str]] = defaultdict(set)
    methods: dict[str, set[str]] = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and stmt.value is not None:
                        key = f"{path.stem}.{target.id}"
                        body[key] = [stmt.value]
                        by_name[target.id].add(key)
                continue
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            key = f"{path.stem}.{stmt.name}"
            by_name[stmt.name].add(key)
            if isinstance(stmt, ast.FunctionDef):
                body[key] = [stmt]
                functions.add(key)
                continue
            live_with_class = stmt.decorator_list + stmt.bases
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    method = f"{key}.{item.name}"
                    body[method] = [item]
                    functions.add(method)
                    if not _is_dunder(item.name):
                        methods[item.name].add(method)
                        continue
                live_with_class.append(item)
            body[key] = live_with_class if into_classes else []

    def reach(*keys: str) -> set[str]:
        seen: set[str] = set(keys)
        todo = list(keys)
        while todo:
            names, attrs = _references(body[todo.pop()])
            found = set()
            for name in names | attrs:
                found |= by_name.get(name, set())
            for attr in attrs:
                found |= methods.get(attr, set())
            for key in found - seen:
                seen.add(key)
                todo.append(key)
        return seen

    return reach, functions.__contains__, set(body)


def test_everything_in_the_package_is_reached_from_the_cli():
    # the CLI is the product: a definition it never reaches is either an
    # oracle (tests/oracles.py) or dead code.  Every function, class,
    # method and module-level name is checked, public or not; dunder
    # methods are outside the walk, Python calls them implicitly.
    reach, _, keys = _package_reach()
    reached = reach(*ROOTS, *ALLOWED)
    checked = {key for key in keys if not _is_dunder(key.rsplit(".", 1)[1])}
    assert sorted(checked - reached) == []
    # and the package exports nothing the walk does not see
    defined = {key.split(".")[1] for key in checked}
    assert sorted(set(darcais.__all__) - defined) == []


def test_allowed_entries_exist_and_stay_few():
    reach, _, keys = _package_reach()
    assert set(ALLOWED) <= keys
    assert all(reason.strip() for reason in ALLOWED.values())
    # an entry is needed only for a name the walk checks and the CLI
    # does not reach: the walk never checks dunders
    assert [key for key in ALLOWED if _is_dunder(key.rsplit(".", 1)[1])] == []
    assert sorted(set(ALLOWED) & reach(*ROOTS)) == []
    assert len(ALLOWED) <= 5


def test_series_oracle_references_no_package_code_but_exact_poly():
    # euler_series_poly (tests/oracles.py) is the oracle the pentagonal
    # recurrence is checked against; sharing any package code but the
    # ExactPoly container would let one bug pass both
    reach, _, _ = _package_reach()
    assert "polynomials._extend_table" in reach("polynomials._ensure_scaled")
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("darcais")
        for alias in node.names
    }
    assert "ExactPoly" in imported
    defined = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    seen, todo, used = set(), ["euler_series_poly"], set()
    while todo:
        names, attrs = _references([defined[todo.pop()]])
        used |= names | attrs
        for name in names & defined.keys() - seen:
            seen.add(name)
            todo.append(name)
    assert "darcais" not in used
    assert used & imported == {"ExactPoly"}


def test_root_counts_never_reach_the_sturm_chain():
    # tests/oracles.py counts roots with SturmChain to check the Descartes
    # bisection; if the bisection reached the chain, one bug could pass both
    reach, _, _ = _package_reach()
    for entry in ("rootcert.count_real_roots", "rootcert.isolate_real_roots"):
        reached = reach(entry)
        assert "rootcert._unit_roots" in reached  # the walk sees the bisection
        assert "exactnum.poly_gcd" in reached  # and the square-free fallback
        assert {key for key in reached if "SturmChain" in key} == set(), entry


def test_minor_search_never_reaches_rootcert():
    # pf_test takes its PF verdict from rootcert's root count and its
    # witness from Toeplitz minors; the two certificates stay independent
    # only while the minor search reaches nothing in rootcert
    reach, _, _ = _package_reach()
    reached = reach("pf_tnn._minor_search")
    # the walk sees the bordered eliminations and the fresh fallback
    assert {"pf_tnn._leading_minors", "pf_tnn.toeplitz_minor",
            "pf_tnn._det_bareiss"} <= reached
    assert sorted(key for key in reached if key.startswith("rootcert.")) == []
    assert "rootcert.is_real_rooted" in reach("pf_tnn.pf_test")


def test_root_certificates_never_reach_exact_poly():
    # below the parse/print boundary rootcert and pf_tnn compute on
    # integer coefficient tuples, and never build or call an ExactPoly
    reach, _, _ = _package_reach()
    for entry in (
        "rootcert.is_square_free",
        "rootcert.square_free_part",
        "rootcert.count_real_roots",
        "rootcert.all_real_roots_negative",
        "rootcert.isolate_real_roots",
        "rootcert.is_real_rooted",
        "rootcert.hurwitz_stable",
        "pf_tnn.pf_test",
    ):
        reached = reach(entry)
        assert "rootcert._primitive" in reached, entry  # the walk sees the normalizer
        assert sorted(k for k in reached if k.startswith("exactnum.ExactPoly")) == [], entry


def test_partition_routes_share_no_function_with_the_baseline():
    # verify_identity compares every partition-sum route against q_poly;
    # a package function reached by both could make a wrong route agree.
    # Both build an ExactPoly at the end, so only functions count.
    reach, is_function, _ = _package_reach(into_classes=False)
    baseline = {key for key in reach("polynomials.q_poly") if is_function(key)}
    assert {"polynomials.q_scaled_coeffs", "polynomials._extend_table"} <= baseline
    # Q_n comes from its own recurrence, with no Taylor shift of P_n
    assert "exactnum.shift_by_one" not in reach("polynomials.q_scaled_coeffs")
    for route in ("polynomials._hook_sum", "polynomials.binomial_sum"):
        reached = reach(route)
        assert "partitions.grow_rows" in reached  # the walk sees the route's calls
        assert {key for key in reached if is_function(key)} & baseline == set(), route
        # the routes grow each partition row by row; the convolve oracles in
        # tests/oracles.py enumerate them with enumerate_partitions and take
        # Partition.hooks, so those are an independent enumeration only while
        # no route reaches them
        assert "partitions.enumerate_partitions" not in reached, route
        assert "partitions.Partition.hooks" not in reached, route


def test_the_cli_imports_no_dataclasses():
    # every CLI job is a fresh process, and dataclasses with what it
    # loads was a large part of each one's start-up; the record classes
    # are written over __slots__ (darcais/plain.py) instead
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    script = f"import darcais.cli, sys; print(*[m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.split() == []
