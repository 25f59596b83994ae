"""Source hygiene of the package, read with ast rather than run, and the
names the benchmark looks up in it."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "omegapoly"


def _modules(root=SRC):
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(root.glob("*.py"))}


def test_no_assert_statements():
    # every check, in the package and in the demos, must still hold under
    # python -O, which strips asserts
    found = ["%s:%d" % (name, node.lineno)
             for root in (SRC, ROOT / "demos")
             for name, tree in _modules(root).items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _package_imports(tree) -> set[str]:
    """The package modules a module imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("omegapoly."):
                found.add(node.module.split(".")[1])
            elif node.module == "omegapoly":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("omegapoly."))
    return found


def _outside_imports(tree) -> set[str]:
    """The top-level names of the modules outside the package that a
    module imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def test_the_kernel_layers_import_only_what_they_rest_on():
    # the integer kernel and the input rules stand alone, so a checker
    # can import them without the double description or the simplex
    modules = _modules()
    imports = {name[:-3]: _package_imports(tree)
               for name, tree in modules.items()}
    assert imports["exact"] == set()
    assert imports["guards"] == set()
    assert imports["dd"] == {"exact"}
    assert imports["simplex"] == {"exact"}
    # the kernels run on ints alone; Fractions are made only at the
    # boundary in polyhedra, which writes no JSON
    for kernel in ("exact.py", "dd.py", "simplex.py"):
        assert "fractions" not in _outside_imports(modules[kernel]), kernel
    assert "json" not in _outside_imports(modules["polyhedra.py"])


def test_json_text_is_parsed_only_by_parse_json():
    # parse_json turns too-deep nesting into a one-line error; a second
    # json.loads would bypass it
    modules = _modules()
    calls = [(name, node.lineno) for name, tree in modules.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "loads" in _referenced(node.func)]
    (parse_json,) = [func for qualname, func in
                     _functions(modules["guards.py"])
                     if qualname == "parse_json"]
    assert [(name, parse_json.lineno <= line <= parse_json.end_lineno)
            for name, line in calls] == [("guards.py", True)]
    # and no module or demo reaches json.loads under another name
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "json"
                   for root in (SRC, ROOT / "demos")
                   for tree in _modules(root).values()
                   for node in ast.walk(tree))


def test_json_readers_are_used_only_where_a_json_format_is_read():
    # omega_core holds the vertex geometry alone; JSON is read only by
    # the modules whose format a command reads and by the certificate
    # reader
    modules = _modules()
    readers = {name for name, _ in _functions(modules.pop("guards.py"))
               if name == "parse_json" or name.startswith("json_")}
    users = {name for name, tree in modules.items()
             if readers & _referenced(tree)}
    assert users == {"cli.py", "graph2p.py", "neighborly.py"}
    assert "json" not in _outside_imports(modules["omega_core.py"])


def _referenced(node) -> set[str]:
    """Every name node refers to: bare names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_definition_is_used_in_the_package():
    # a private helper that only tests call is dead code; each one must
    # be referenced from some top-level statement of src/ other than its
    # own definition
    private, uses = [], []
    for name, tree in _modules().items():
        for node in tree.body:
            uses.append((node, _referenced(node)))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                private.append((name, node))
    unused = ["%s:%s" % (name, node.name) for name, node in private
              if not any(node.name in refs
                         for other, refs in uses if other is not node)]
    assert unused == []


def test_every_public_definition_is_exported_or_used():
    # a public function or class is in omegapoly.__all__ or is referenced
    # from another top-level statement of the package, the demos or the
    # benchmark; one that only tests call belongs in the tests
    import omegapoly
    public, uses = [], []
    for root in (SRC, ROOT / "demos", ROOT / "perfbench"):
        for name, tree in _modules(root).items():
            for node in tree.body:
                uses.append((node, _referenced(node)))
                if (root == SRC and isinstance(node, (ast.FunctionDef,
                                                      ast.ClassDef))
                        and not node.name.startswith("_")):
                    public.append((name, node))
    unused = ["%s:%s" % (name, node.name) for name, node in public
              if node.name not in omegapoly.__all__
              and not any(node.name in refs
                          for other, refs in uses if other is not node)]
    assert unused == []


def _functions(tree, prefix=""):
    """(qualified name, node) of every module-level function and method
    in tree; a nested function is part of the one that holds it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def test_points_are_cleared_to_integers_only_by_the_vrep_cache():
    # a VRep clears its points once, on first use, and keeps (Q, D); any
    # other function that calls _clear_matrix on a .points attribute
    # would clear them again on every call
    callers = set()
    for name, tree in _modules().items():
        for qualname, func in _functions(tree):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and "_clear_matrix" in _referenced(node.func)
                        and any(isinstance(sub, ast.Attribute)
                                and sub.attr == "points"
                                for arg in node.args
                                for sub in ast.walk(arg))):
                    callers.add("%s:%s" % (name, qualname))
    assert callers == {"polyhedra.py:VRep._integers"}


def _transposes(node) -> bool:
    """Does node hold a zip(*...) call, the transpose of a matrix?"""
    return any(isinstance(sub, ast.Call) and "zip" in _referenced(sub.func)
               and any(isinstance(arg, ast.Starred) for arg in sub.args)
               for sub in ast.walk(node))


def test_affine_dependencies_are_found_only_by_the_vrep_cache():
    # the dependency RREF is the one taken with the points as columns; a
    # VRep takes it once, on first use, and keeps its null vectors, and
    # only is_face's dependency screen reads them, so no query redoes it
    builders, readers = set(), set()
    for name, tree in _modules().items():
        for qualname, func in _functions(tree):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and "_int_rref" in _referenced(node.func)
                        and any(map(_transposes, node.args))):
                    builders.add("%s:%s" % (name, qualname))
                if (isinstance(node, ast.Attribute)
                        and node.attr == "_dependencies"):
                    readers.add("%s:%s" % (name, qualname))
    assert builders == {"polyhedra.py:VRep._dependencies"}
    assert readers == {"polyhedra.py:_dependency_screen"}


def _updates_a_row(node) -> bool:
    """Is node a Gauss-Jordan row update: a comprehension over zip(...)
    whose element is a - f * b on the zipped entries or the Bareiss
    (a * p - f * b) // den, or an entry update row[j] -= f * b (or
    f * b // den)?  The double description's ray combinations
    dv * u - du * v scale both rays and divide by nothing, so they are
    not row updates."""
    def multiple(expr):
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.FloorDiv):
            expr = expr.left
        return isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult)

    if isinstance(node, ast.AugAssign):
        return (isinstance(node.op, ast.Sub)
                and isinstance(node.target, ast.Subscript)
                and multiple(node.value))
    if not (isinstance(node, (ast.ListComp, ast.GeneratorExp))
            and any("zip" in _referenced(gen.iter)
                    for gen in node.generators)):
        return False
    elt = node.elt
    if isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.FloorDiv):
        elt = elt.left
        return isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Sub)
    return (isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Sub)
            and isinstance(elt.left, ast.Name) and multiple(elt.right))


def test_rows_are_eliminated_only_in_the_exact_kernel():
    # one exact kernel: RREF, the simplex's pivots and its pricing all
    # run _int_pivot's updates, so no other function updates a row
    holders = {"%s:%s" % (name, qualname)
               for name, tree in _modules().items()
               for qualname, func in _functions(tree)
               for node in ast.walk(func) if _updates_a_row(node)}
    assert holders == {"exact.py:_int_pivot", "exact.py:_unit_pivot"}


def test_one_2sat_core_runs_the_scc():
    # find_clique and solve_2sat both go through _solve_implications; a
    # second caller of _tarjan_scc would be a second 2SAT path
    callers = {"%s:%s" % (name, qualname)
               for name, tree in _modules().items()
               for qualname, func in _functions(tree)
               for node in ast.walk(func)
               if isinstance(node, ast.Call)
               and "_tarjan_scc" in _referenced(node.func)}
    assert callers == {"graph2p.py:_solve_implications"}


def test_certificates_import_only_graphs_and_guards():
    # the certificate layer reads and checks with ints alone; a checker
    # built on it must not pull in the double description or the simplex
    imports = _package_imports(_modules()["neighborly.py"])
    assert imports == {"graph2p", "guards"}


def _callers(name: str) -> set[str]:
    """module:function for each function of the package that calls name."""
    return {"%s:%s" % (module, qualname)
            for module, tree in _modules().items()
            for qualname, func in _functions(tree)
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and name in _referenced(node.func)}


def test_find_clique_takes_its_clauses_from_to_2cnf():
    # one clause encoder: the 2SAT core is reached from find_clique and
    # solve_2sat alone, and find_clique hands it what to_2cnf writes, so
    # no second copy of the literal codes can drift from the first
    assert _callers("_solve_implications") == {
        "graph2p.py:find_clique", "graph2p.py:solve_2sat"}
    find = dict(_functions(_modules()["graph2p.py"]))["find_clique"]
    args = [node.args for node in ast.walk(find)
            if isinstance(node, ast.Call)
            and "_solve_implications" in _referenced(node.func)]
    assert [(isinstance(clauses, ast.Call)
             and _referenced(clauses.func) == {"to_2cnf"})
            for _, clauses in args] == [True]


def test_hull_masks_are_read_by_the_hull_and_the_census_alone():
    # the facet tight masks are private to polyhedra; outside it, only
    # edges_via_hull reads them.  facet_census runs its own tangent-cone
    # route, so the full hull stays an independent check of the census
    assert _callers("_hull_with_masks") == {
        "polyhedra.py:convex_hull_facets", "omega3_census.py:edges_via_hull"}


def test_double_description_runs_for_the_hull_and_the_census_alone():
    # two routes reach the DD kernel: the hull of a point set, and the
    # tangent cone at one vertex behind the census
    assert _callers("_dd_extreme_rays") == {
        "polyhedra.py:_hull_with_masks", "omega3_census.py:_census_facets"}


def test_table_entries_are_filled_by_the_dd_alone():
    # a DD table holds None for an entry of two or more bits until the
    # adjacency test first reads it; _table_entry fills it, recursing on
    # the rest of the byte, and no other code may read an unfilled table
    assert _callers("_table_entry") == {
        "dd.py:_dd_extreme_rays", "dd.py:_table_entry"}


def test_vertices_are_walked_as_codes():
    # graph2p defines the vertex code, and every 2^n loop runs over
    # range(1 << n): no other module reads a part through rho(), none
    # walks itertools.product((1, 2), ...), and an Assignment is built
    # only where assignments are the result
    rho_callers, products, builders = set(), [], set()
    for name, tree in _modules().items():
        for qualname, func in _functions(tree):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                called = node.func
                if isinstance(called, ast.Attribute) and called.attr == "rho":
                    rho_callers.add(name)
                if ("product" in _referenced(called) and node.args
                        and isinstance(node.args[0], ast.Tuple)
                        and [getattr(e, "value", None)
                             for e in node.args[0].elts] == [1, 2]):
                    products.append("%s:%d" % (name, node.lineno))
                if {"Assignment", "from_code"} & _referenced(called):
                    builders.add("%s:%s" % (name, qualname))
    assert rho_callers <= {"graph2p.py"}
    assert products == []
    assert builders == {
        "graph2p.py:assignment_from_text", "graph2p.py:enumerate_cliques",
        "graph2p.py:solve_2sat", "graph2p.py:find_clique",
        "omega_core.py:all_assignments", "omega_core.py:independent_family",
        "neighborly.py:certificate_from_dict"}


def test_only_verify_certificate_evaluates_alpha():
    # construction records the closed form of F; the scan of alpha at all
    # 2^n codes is the check, reached through verify_certificate alone
    callers = {}
    for name, tree in _modules().items():
        for qualname, func in _functions(tree):
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    for called in ({"_evaluations", "evaluate_alpha"}
                                   & _referenced(node.func)):
                        callers.setdefault(called, set()).add(
                            "%s:%s" % (name, qualname))
    assert callers == {"_evaluations": {"neighborly.py:verify_certificate"},
                       "evaluate_alpha": {"neighborly.py:_evaluations"}}


def _perfbench_names() -> list[tuple[str, str]]:
    """(module, name) of every omegapoly function or class the benchmark
    looks up: the LAYERS it traces, the OpClock bounds and the
    omegapoly.<module>.<name> references of its workloads."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # it imports the standard library only
    names = [(mod, fn) for mod, fn, _ in layers.LAYERS]
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in ast.walk(workloads):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "OpClock"):
            mod, *fns = [arg.value for arg in node.args[:3]]
            names += [(mod, fn) for fn in fns]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id == "omegapoly"):
            names.append((node.value.attr, node.attr))
    return names


def test_every_name_the_benchmark_reaches_resolves():
    # the benchmark finds what it traces and runs by name, so a renamed or
    # deleted function would fail only a benchmark run, not this suite
    names = _perfbench_names()
    assert {("graph2p", "to_2cnf"), ("graph2p", "solve_2sat"),
            ("neighborly", "edge_certificate"), ("cli", "main"),
            ("polyhedra", "is_face"), ("polyhedra", "VRep")} <= set(names)
    missing = ["%s.%s" % (mod, name) for mod, name in names
               if not callable(getattr(
                   importlib.import_module("omegapoly." + mod), name, None))]
    assert missing == []


def test_the_count_rule_is_written_out_in_guards_alone():
    # check_count holds the count rule's two message formats, and every
    # other check of a part count or a dimension calls it; a copy of the
    # rule in another module drifts from it, as check_ints and
    # omega_core._int_n did before they were deleted
    formats = ("must be an integer, got", "must be at least")
    holders = {"%s:%s" % (name, qualname)
               for name, tree in _modules().items()
               for qualname, func in _functions(tree)
               for node in ast.walk(func)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)
               and any(text in node.value for text in formats)}
    assert holders == {"guards.py:check_count"}
    names = set()
    for tree in _modules().values():
        names |= _referenced(tree) | {qualname.split(".")[-1]
                                      for qualname, _ in _functions(tree)}
    assert not {"check_ints", "_int_n"} & names
