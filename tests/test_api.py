"""Package surface: the public names and the documented exit codes."""

import ast
import importlib
import importlib.util
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
    """spectra, weights, templates, fitrecover and acceptance take the
    exact-or-float policy (TOL, MERGE_TOL and the helpers) from indicial:
    none defines a tolerance of its own or imports numbers.Rational to
    branch on."""
    for name in ("spectra", "weights", "templates", "fitrecover", "acceptance"):
        module = importlib.import_module(f"coneasym.{name}")
        assert not hasattr(module, "_TOL") and not hasattr(module, "_MERGE_TOL"), name
        source = Path(module.__file__).read_text()
        assert not re.search(r"^\s*(from numbers import|import numbers)", source, re.M), name


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
