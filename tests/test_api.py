"""The package's public surface: `__all__` names exactly what the package
imports, so a deleted name cannot linger in it, every public function
of a traced layer stays a plain function, which the bench tracer can wrap,
and the package imports nothing beyond its declared dependencies."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path
from types import ModuleType

import hahnpoly

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SRC = TRACING.parents[1] / "src" / "hahnpoly"


def test_all_names_resolve():
    for name in hahnpoly.__all__:
        assert hasattr(hahnpoly, name), name


def test_all_lists_exactly_the_imported_public_names():
    imported = {name for name, obj in vars(hahnpoly).items()
                if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert len(hahnpoly.__all__) == len(set(hahnpoly.__all__))
    assert set(hahnpoly.__all__) == imported | {"__version__"}


def test_public_functions_of_traced_layers_are_plain():
    # bench/tracing.py wraps only `inspect.isfunction` objects; a cache
    # decorator on a public function would silently drop its span
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {f"hahnpoly.{layer}" for layer in tracing.LAYERS}
    checked = set()
    for name in hahnpoly.__all__:
        obj = getattr(hahnpoly, name)
        if isinstance(obj, type) or getattr(obj, "__module__", None) not in traced:
            continue
        checked.add(name)
        assert inspect.isfunction(obj), (
            f"hahnpoly.{name} is a {type(obj).__name__}, not a plain function: the "
            "bench tracer would not wrap it; cache through a private helper instead")
    assert {"gauss_legendre_rule", "norm_sq_closed", "project"} <= checked


def test_imports_only_declared_dependencies():
    # scipy and mpmath are not dependencies, the float code computes no
    # eigendecomposition and draws no numpy random numbers: numpy.linalg
    # and numpy.random stay out of src/, imported or reached as an
    # attribute of numpy
    allowed = set(sys.stdlib_module_names) | {"numpy", "click", "hahnpoly"}
    refused = ("numpy.linalg", "numpy.random")
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        # the names the module binds to numpy itself, `np` as a rule; the
        # stdlib `random` module is not one of them
        numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import)
                       for alias in node.names if alias.name == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                if isinstance(node, ast.Attribute):
                    assert node.attr != "linalg", (path.name, node.lineno)
                    assert not (node.attr == "random" and isinstance(node.value, ast.Name)
                                and node.value.id in numpy_names), (path.name, node.lineno)
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
                assert not name.startswith(refused), (path.name, name)


def test_hahn_forms_no_matrix_product():
    # `_twisted_grid` promises bits that no BLAS build changes: hahn.py has
    # no `@` and names none of numpy's BLAS-backed products, as a function
    # or as a method
    refused = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}
    tree = ast.parse((SRC / "hahn.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), node.lineno
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        assert name not in refused, node.lineno


def test_hahn_assembles_no_constant_in_dd():
    # the recurrence constants have one source, hahn._integer_steps, and
    # each float constant is an integer quotient rounded once: hahn.py
    # reads from _compensated only the exact quotient and the sweeps, so
    # no dd arithmetic can build a second copy of the constants
    allowed = {"_quotient", "dd_three_term_sweep", "dd_clenshaw_sweep"}
    tree = ast.parse((SRC / "hahn.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.name.endswith("_compensated")}
    assert modules == {"dd"}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").endswith("_compensated"), node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            used.add(node.attr)
    assert used and used <= allowed, used - allowed


def test_dd_products_split_only_through_split():
    # Dekker's constant is read by `_compensated.split` alone, which scales
    # an operand above 2^996 before splitting it: no sweep of _compensated.py
    # splits inline, unscaled, where a level past 1e300 would turn NaN
    tree = ast.parse((SRC / "_compensated.py").read_text())
    owner = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "split")
    inside = {id(node) for node in ast.walk(owner)}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "_SPLIT" and isinstance(node.ctx, ast.Load)]
    assert reads
    assert [node.lineno for node in reads if id(node) not in inside] == []


def test_fsum_is_called_only_by_exact_sum():
    # a bare math.fsum raises on -inf + inf, and on a partial sum past the
    # double range depending on term order; `_compensated.exact_sum` owns
    # what such a sum is, so no other code in src/ may call fsum
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        math_names = {alias.asname or alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.Import)
                      for alias in node.names if alias.name == "math"}
        owner = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "exact_sum"
                 and path.name == "_compensated.py"]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                hit = any(alias.name in ("fsum", "*") for alias in node.names)
            else:
                hit = (isinstance(node, ast.Attribute) and node.attr == "fsum"
                       and isinstance(node.value, ast.Name) and node.value.id in math_names)
            if hit:
                calls.append((path.name, node.lineno))
                assert any(a <= node.lineno <= b for a, b in owner), (path.name, node.lineno)
    assert [name for name, _ in calls] == ["_compensated.py"]


def test_row_sums_go_through_the_kernel():
    # a projection, a node value and a Legendre coefficient are row sums,
    # and `_compensated.exact_row_sums` owns them: expansion.py and
    # legendre_ref.py call exact_sum in no loop and no comprehension
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for name in ("expansion.py", "legendre_ref.py"):
        tree = ast.parse((SRC / name).read_text())
        for loop in ast.walk(tree):
            if isinstance(loop, loops):
                for node in ast.walk(loop):
                    if isinstance(node, ast.Call):
                        func = getattr(node.func, "attr", getattr(node.func, "id", None))
                        assert func != "exact_sum", (name, node.lineno)


def test_checks_project_through_one_owner():
    # a projection of grid functions, with project's refusals before it,
    # is expansion._project_rows: checks.py sums no rows and checks no
    # norms of its own
    tree = ast.parse((SRC / "checks.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = getattr(node.func, "attr", getattr(node.func, "id", None))
            assert func not in ("exact_row_sums", "_check_norms"), node.lineno


def test_checks_measure_defects_through_one_owner():
    # a check's value, the worst |lhs - rhs| / scale, is checks._defect:
    # outside it checks.py takes no |a - b| or |a + b|, subtracts through no
    # numpy call and reduces no defect with _worst
    tree = ast.parse((SRC / "checks.py").read_text())
    owner = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_defect")
    inside = {id(node) for node in ast.walk(owner)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = getattr(node.func, "attr", getattr(node.func, "id", None))
            assert func not in ("_worst", "subtract"), node.lineno
            if func in ("abs", "fabs", "absolute"):
                assert not any(isinstance(a, ast.BinOp) and isinstance(a.op, (ast.Sub, ast.Add))
                               for a in node.args), node.lineno


def test_checks_run_no_forward_sweep():
    # the checks read node values from the grid rows and the exact oracle,
    # and `eval` reads `eval_expansion`: neither checks.py nor cli.py calls
    # a forward sweep of hahn
    for module in ("checks.py", "cli.py"):
        tree = ast.parse((SRC / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert func not in ("hahn_eval_all", "hahn_eval_recurrence"), (module, node.lineno)


def test_diff_is_called_only_in_discrete_calculus():
    # the grid differences and the operator built on them have one owner
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import)
                       for alias in node.names if alias.name == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                assert not any(alias.name in ("diff", "*") for alias in node.names), path.name
            elif (isinstance(node, ast.Attribute) and node.attr == "diff"
                  and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
                calls.append(path.name)
    assert set(calls) == {"discrete_calculus.py"}


def test_cli_exits_only_through_the_contract():
    # a command that exits by itself would skip --out, the finite rule or
    # the one-line error: exit code 2 belongs to _emit, 3 and 4 to the
    # contract, and every registered command is the contract's wrapper
    from hahnpoly import cli

    exits = []
    for top in ast.parse((SRC / "cli.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("exit", "SystemExit"):
                    exits.append((getattr(top, "name", None), ast.literal_eval(node.args[0])))
    assert sorted(exits) == [("_contract", 3), ("_contract", 4), ("_emit", 2)]
    wrapper = cli._contract(lambda: []).__code__
    for command in cli.main.commands.values():
        assert command.callback.__code__ is wrapper, command.name


def test_clenshaw_sum_reads_one_convention():
    # `expansion.eval_expansion` makes a classical vector orthonormal once,
    # for the nodes and the sweeps alike: `clenshaw_sum` takes no convention
    # argument, and no name in _compensated.py is `normalized`
    tree = ast.parse((SRC / "_compensated.py").read_text())
    (sweep,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "clenshaw_sum"]
    args = sweep.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert "normalized" not in params, params
    # a variable, a parameter or keyword argument, or an attribute
    uses = [node.lineno for node in ast.walk(tree) if "normalized" in
            (getattr(node, "id", None), getattr(node, "arg", None), getattr(node, "attr", None))]
    assert uses == []


def test_no_module_defines_a_top_level_name_twice():
    # a second `def` or `class` of a name silently replaces the first, so a
    # test or helper that reads the first would run the second
    root = SRC.parents[1]
    files = sorted([*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "tools").glob("*.py")])
    assert len(files) > len(list(SRC.glob("*.py")))
    for path in files:
        seen = {}
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                assert node.name not in seen, (path.name, node.name, seen.get(node.name), node.lineno)
                seen[node.name] = node.lineno


def test_cli_parses_a_target_only_through_checked_target():
    # the four commands that sample a target vet --fn, the families and
    # --interval in one helper, so each names the first bad flag alike
    from hahnpoly import cli

    tree = ast.parse((SRC / "cli.py").read_text())
    callers = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callers.setdefault(node.func.id, []).append(getattr(top, "name", None))
    assert callers["_parse_fn"] == ["_checked_target"]
    targets = {cli.main.commands[name].callback.__wrapped__.__name__
               for name in ("project", "runge", "decay", "compare-legendre")}
    assert sorted(callers["_checked_target"]) == sorted(targets)
