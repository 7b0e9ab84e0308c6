"""Package surface: the public names and the documented exit codes."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import coneasym
from coneasym import cli


def test_public_names_unique_and_resolvable():
    assert len(coneasym.__all__) == len(set(coneasym.__all__))
    for name in coneasym.__all__:
        assert getattr(coneasym, name) is not None, name


def test_every_exit_code_is_documented():
    epilog = cli.build_parser().epilog
    assert epilog == cli._EXIT_DOC
    documented = {int(code) for code in re.findall(r"^  (\d+) ", epilog, re.M)}
    assert documented == set(cli.EXIT_CODES.values()) | {0}


def test_number_policy_has_one_home():
    """spectra, weights, templates, fitrecover, recovery and acceptance take the
    exact-or-float policy (TOL, MERGE_TOL and the helpers) from indicial:
    none defines a tolerance of its own or imports numbers.Rational to
    branch on.  weights and templates, whose comparisons are all exact or
    float by the policy, assign no module-level name containing TOL."""
    for name in ("spectra", "weights", "templates", "fitrecover", "recovery", "acceptance"):
        module = importlib.import_module(f"coneasym.{name}")
        assert not hasattr(module, "_TOL") and not hasattr(module, "_MERGE_TOL"), name
        source = Path(module.__file__).read_text()
        assert not re.search(r"^\s*(from numbers import|import numbers)", source, re.M), name
        if name in ("weights", "templates"):
            assigned = [target.id for node in ast.parse(source).body if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                        if isinstance(target, ast.Name)]
            assert not [a for a in assigned if "TOL" in a], (name, assigned)


def test_power_and_dimension_rules_have_one_home():
    """template and recover check k >= 2 through weights.require_power and
    the cross-section dimension through spectra.require_dimension: no other
    module raises KTooSmall or words the dimension rule itself."""
    package = Path(coneasym.__file__).resolve().parent
    for path in package.glob("*.py"):
        source = path.read_text()
        assert ("raise KTooSmall" in source) == (path.name == "weights.py"), path.name
        assert ("dimension must be a positive integer" in source) == (path.name == "spectra.py"), path.name


def test_tile_geometry_has_one_home():
    """The reference level (n+1)/2 of the tiles J_m is formed in weights
    alone: the remainder exponent is -weights.tile_edge(n, gamma, k), not a
    second sum that rounds differently for a float gamma."""
    package = Path(coneasym.__file__).resolve().parent
    for path in package.glob("*.py"):
        assert ("Fraction(n + 1, 2)" in path.read_text()) == (path.name == "weights.py"), path.name


def test_cell_engine_has_one_home(monkeypatch):
    """_kernels.cell_fits is the one adaptive engine.  No other module
    assigns its limits (_CHOP_TOL, _MAX_OPEN, _MAX_SPLITS) or forms the
    Chebyshev-Lobatto points, the bisection engine's names (adaptive,
    gl_panels, _MAX_DEPTH) no longer resolve, and a heat_mode point that
    takes the quadrature and a resolvent_mode call both run on it, the
    resolvent in one call for both of its branches."""
    from coneasym import _kernels, conesolve
    from coneasym.conesolve import ModeProblem, RadialProfile, heat_mode, resolvent_mode

    package = Path(coneasym.__file__).resolve().parent
    for path in package.glob("*.py"):
        source = path.read_text()
        assigned = {name.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assign)
                    for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)}
        home = path.name == "_kernels.py"
        assert bool(assigned & {"_CHOP_TOL", "_MAX_OPEN", "_MAX_SPLITS"}) == home, path.name
        assert ("np.cos(np.pi" in source) == home, path.name
    for module in (_kernels, conesolve):
        assert not [name for name in ("adaptive", "gl_panels", "_MAX_DEPTH") if hasattr(module, name)], module
    calls, engine = [], _kernels.cell_fits

    def counted(fn, rows, *args):
        calls.append(rows.size)
        return engine(fn, rows, *args)

    monkeypatch.setattr(_kernels, "cell_fits", counted)
    monkeypatch.setattr(conesolve, "cell_fits", counted)
    bump = RadialProfile("bump", 1.0, 2.0)
    heat_mode(ModeProblem(n=1, lam=0.0, t=1e-3, profile=bump), [1.5])  # z = x hi / (4t) = 750: the quadrature
    assert len(calls) == 1
    resolvent_mode(1, -4.0, 1.0 + 1.0j, bump, [1.5])  # phi f and psi f on the same cells
    assert len(calls) == 2


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_README = _PERFBENCH.parent / "README.md"


def test_readme_python_quick_start_prints_what_it_says(capsys):
    """README's Python quick start runs, and each line it prints is the
    comment of its print call, up to the first comma."""
    block = re.search(r"```python\n(.*?)```", _README.read_text(), re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    claims = [line.split("#", 1)[1].split(",")[0].strip() for line in prints]
    assert claims
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == claims


def test_benchmark_wrapped_names_resolve():
    """Every name the benchmark wraps (perfbench/tracing.py SPANS and
    COUNTED) still resolves: a renamed one would silently drop its layer
    metrics from a traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [entry[0] for entry in tracing.SPANS + tracing.COUNTED]
    assert "coneasym.fitrecover.least_squares" in targets
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module_name), attr)), target


def test_benchmark_called_names_resolve():
    """Every ``self.cs.<name>`` and ``self.errors.<name>`` the benchmark's
    workloads call resolves on coneasym.conesolve and coneasym.errors."""
    source = (_PERFBENCH / "workloads.py").read_text()
    for alias, module_name in (("cs", "coneasym.conesolve"), ("errors", "coneasym.errors")):
        names = set(re.findall(rf"\bself\.{alias}\.(\w+)", source))
        assert names, alias
        module = importlib.import_module(module_name)
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"


def _referenced_names(path):
    """Names a module reads, imports or takes as an attribute; the names it
    only defines or assigns are not among them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_public_name_only_tests_reach():
    """Every name in coneasym.__all__ is used by the package itself, outside
    __init__.py, or by the benchmark: a public name that only tests reach
    is a second home for some rule."""
    package = Path(coneasym.__file__).resolve().parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"] + list(_PERFBENCH.glob("*.py"))
    used = set().union(*(_referenced_names(p) for p in paths))
    assert sorted(set(coneasym.__all__) - used) == []


def _passed_arguments(paths):
    """For each called name, the keywords passed to it and the largest
    number of positional arguments of one call (a starred one counts as
    any number)."""
    keywords, positions = {}, {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
    return keywords, positions


def test_no_option_only_tests_set():
    """Every parameter with a default, of every callable in coneasym.__all__,
    is passed by some call in the package (outside __init__.py) or in the
    benchmark: an option that only tests set has one value in use."""
    package = Path(coneasym.__file__).resolve().parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"] + list(_PERFBENCH.glob("*.py"))
    keywords, positions = _passed_arguments(paths)
    unset = []
    for name in coneasym.__all__:
        value = getattr(coneasym, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, BaseException):
            continue
        params = list(inspect.signature(value).parameters.values())
        for index, param in enumerate(params):
            if param.default is inspect.Parameter.empty or param.kind is param.VAR_KEYWORD:
                continue
            by_position = param.kind is not param.KEYWORD_ONLY and positions.get(name, 0) > index
            if not by_position and param.name not in keywords.get(name, ()):
                unset.append(f"{name}.{param.name}")
    assert unset == []


def test_value_types_are_named_tuples():
    """No module of the package imports dataclasses: the value types are
    collections.namedtuple subclasses, so ``template`` and ``recover``
    never load dataclasses and the inspect it imports."""
    package = Path(coneasym.__file__).resolve().parent
    for path in package.glob("*.py"):
        imported = [node.module if isinstance(node, ast.ImportFrom) else alias.name
                    for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names]
        assert "dataclasses" not in imported, path.name


def test_solver_input_checks_have_one_home():
    """The x_eval and rel_tol checks are each worded once in the package."""
    package = Path(coneasym.__file__).resolve().parent
    for sentence in ("x_eval must be a nonempty 1-d array", "rel_tol must be finite and positive"):
        count = sum(path.read_text().count(sentence) for path in package.glob("*.py"))
        assert count == 1, sentence


def test_one_exception_class_per_exit_code():
    """Every ConeAsymError class has its own row of cli._EXITS: it appears
    in exactly one row, and no row lists two of them."""
    from coneasym import errors

    classes = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.ConeAsymError)}
    rows = [[cls for cls in row[3] if cls in classes] for row in cli._EXITS]
    assert all(len(row) <= 1 for row in rows), rows
    assert sorted(cls.__name__ for row in rows for cls in row) == sorted(cls.__name__ for cls in classes)


def test_json_kind_check_has_one_home():
    """cli and recovery read outside JSON through jsonio.require: neither
    makes an isinstance check against bool, dict or list of its own."""
    package = Path(coneasym.__file__).resolve().parent
    for name in ("cli.py", "recovery.py"):
        tree = ast.parse((package / name).read_text())
        own = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
               and {"bool", "dict", "list"} & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}]
        assert own == [], (name, own)
        assert "jsonio.require" in ast.unparse(tree), name
