"""The package's public names, and the names its modules import."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import diracsplit


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from diracsplit import *", namespace)
    assert set(diracsplit.__all__) <= namespace.keys()


def test_every_public_name_resolves_once():
    names = diracsplit.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(diracsplit, n)]
    assert missing == []


def test_names_the_benchmark_reaches():
    """perfbench's set-up, workloads and independent oracle call these names."""
    import importlib

    from diracsplit import cli, kernels

    importlib.import_module("diracsplit.projectors")
    spinor = diracsplit.build_rep("spinor")
    assert diracsplit.build_projectors(spinor).p
    assert isinstance(kernels.IMPLEMENTATION, str)
    assert callable(cli.main)
    for name in ("u_spinor", "weyl_spinor", "split", "field_of"):
        assert callable(getattr(diracsplit, name)), name
    assert callable(diracsplit.FourMomentum.on_shell)
    assert callable(diracsplit.FourMomentum.exact)
    # the independent oracle reads these attributes of a split
    p = diracsplit.FourMomentum.exact((3, 2, 2, 0), 1)
    sr = diracsplit.split(diracsplit.field_of(diracsplit.u_spinor(p, spinor, 1), spinor), p.mass)
    for f, ncomp in ((sr.psi, 4), (sr.psi1, 4), (sr.psi2, 4), (sr.xi1_pair, 2), (sr.xi2_pair, 2)):
        assert len(f.terms[0].amplitude) == ncomp
    # and each basis's gammas and gamma5, entry by entry through Matrix.rows()
    for name in ("spinor", "standard", "majorana"):
        rep = diracsplit.build_rep(name)
        assert len(rep.gammas) == 4
        for m in rep.gammas + (rep.gamma5,):
            rows = m.rows()
            assert len(rows) == 4 and [x for row in rows for x in row] == list(m.entries)
            for x in m.entries:
                complex(float(x.re), float(x.im))  # as the oracle converts each entry


def test_names_the_benchmark_traces():
    """perfbench times these functions and counts calls of these methods by name.

    A rename would make its per-layer metrics read 0 without failing.
    """
    from diracsplit import (cli, fields, kernels, lorentz, matrices, projectors, scalars,
                            subsolutions, suites)

    functions = {kernels: ("mul", "mul_vec", "max_abs"),
                 cli: ("main",), fields: ("dirac_matrix",), subsolutions: ("split",),
                 lorentz: ("spinor_transform",), projectors: ("build_projectors",),
                 suites: ("run",) + tuple(f"_run_{suite}" for suite in (
                     "clifford", "projectors", "split", "weyl", "majorana", "covariance"))}
    for module, names in functions.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for cls, name in ((matrices.Matrix, "__matmul__"), (matrices.Matrix, "to_float"),
                      (scalars.GaussianRational, "to_complex"),
                      (fields.PlaneWaveField, "__init__")):
        assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"


def _imported_names(tree) -> dict:
    """name -> line of each name a module's import statements bind, ``__future__`` aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_no_library_module_imports_a_name_it_never_uses():
    """Every name a module of ``src/diracsplit`` imports is read in that module.

    ``__init__.py`` imports to re-export, so it is left out.  A name read
    only inside a quoted annotation counts as read.
    """
    unused = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree).items() if name not in read]
    assert unused == []


def _package_imports(node, scope=()):
    """(scope, node, names) of each import under ``node``, scope the enclosing def names.

    A call of ``importlib.import_module`` or ``__import__`` counts as an
    import of the package: its module name is computed, so it is taken
    to be one.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _package_imports(child, scope + (child.name,))
            continue
        if isinstance(child, ast.ImportFrom):
            yield scope, child, [child.module or ""] if not child.level else ["diracsplit"]
        elif isinstance(child, ast.Import):
            yield scope, child, [alias.name for alias in child.names]
        elif isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None)) in ("import_module", "__import__"):
                yield scope, child, ["diracsplit"]
        yield from _package_imports(child, scope)


def test_every_package_import_sits_at_module_level():
    """No module of ``src/diracsplit`` imports one of the package's modules inside a function.

    Such an import is how a lower layer reaches a module built on it: a
    cycle the module-level imports would refuse.  The one deferred import
    is the package root's ``__getattr__``, which imports the module that
    defines a public name on its first read; no module reads the root's
    names (the next test), so it closes no cycle.
    """
    nested = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for scope, node, names in _package_imports(tree):
            if ((scope or isinstance(node, ast.stmt) and id(node) not in top)
                    and any(n.partition(".")[0] == "diracsplit" for n in names)):
                nested.append((path.name, ".".join(scope), node.lineno))
    assert [(name, scope) for name, scope, _ in nested] == [("__init__.py", "__getattr__")]


def test_no_module_reads_the_package_root():
    """Modules import each other's names from the defining module, never from the root."""
    package = Path(diracsplit.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "diracsplit" if not node.level else node.module is None):
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name not in modules]
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}: import diracsplit"
                          for alias in node.names if alias.name == "diracsplit"]
    assert found == []


def test_a_fresh_interpreter_imports_no_dataclasses_inspect_or_typing():
    """The package and its CLI import none of these modules, which a cold start would pay for.

    ``-S`` keeps ``site`` from importing them first and so hiding an
    import; no module of ``src/diracsplit`` names them in an import
    statement, run or not.
    """
    banned = {"dataclasses", "inspect", "typing"}
    code = f"import sys, diracsplit, diracsplit.cli; print(sorted({banned!r} & set(sys.modules)))"
    src = Path(diracsplit.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
    named = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module] if isinstance(node, ast.ImportFrom) else [])
            named += [f"{path.name}:{node.lineno}" for m in modules
                      if (m or "").partition(".")[0] in banned]
    assert named == []


def test_the_library_import_compiles_no_verifier():
    """``import diracsplit`` leaves ``suites`` and ``cli`` unimported.

    The verifier's entry points are imported from ``diracsplit.suites``.
    """
    code = ("import sys, diracsplit\n"
            "print(sorted({'diracsplit.suites', 'diracsplit.cli'} & set(sys.modules)))\n"
            "from diracsplit.suites import DEFAULT_SEED, RunConfig, run")
    src = Path(diracsplit.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
    assert not {"DEFAULT_SEED", "RunConfig", "run"} & set(diracsplit.__all__)


_COLD_START = """\
import json, sys
import diracsplit
def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules if m.startswith("diracsplit."))
out = {"dir": sorted(set(diracsplit.__all__) - set(dir(diracsplit)))}
reps = [diracsplit.build_rep(n) for n in ("spinor", "standard", "majorana")]
sets = [diracsplit.build_projectors(r) for r in reps]
out["set-up"] = loaded()
diracsplit.split
out["split"] = sorted(set(loaded()) - set(out["set-up"]))
from diracsplit import cli
out["cli"] = [cli.__name__, callable(cli.main)]
try:
    diracsplit.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def test_a_cold_start_imports_the_modules_it_reads():
    """The root imports a module on the first read of a name it defines, and no other.

    Set-up (``perfbench``'s: import the package, then build the three
    bases and their projectors) loads the eight modules it runs, not
    ``fields``, ``lorentz``, ``subsolutions``, ``suites`` or ``cli``.
    ``-S`` keeps ``site`` from importing modules first.
    """
    src = Path(diracsplit.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-S", "-c", _COLD_START], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["dir"] == []
    assert out["set-up"] == ["errors", "gamma", "kernels", "matrices", "projectors", "reports",
                             "scalars", "values"]
    assert out["split"] == ["fields", "subsolutions"]
    assert out["cli"] == ["diracsplit.cli", True]
    assert "'no_such_name'" in out["unknown"]


def test_a_cold_set_up_imports_no_json():
    """Building the three bases and their projectors imports no ``json``; a report does.

    ``Report.to_json`` imports the escaper when it is called, so set-up
    pays for no ``json`` import.  ``-S`` keeps ``site`` from importing
    modules first.
    """
    code = ("import sys, diracsplit\n"
            "reps = [diracsplit.build_rep(n) for n in ('spinor', 'standard', 'majorana')]\n"
            "sets = [diracsplit.build_projectors(r) for r in reps]\n"
            "print('json' in sys.modules)\n"
            "from diracsplit.reports import Report\n"
            "Report({'seed': 0}).to_json()\n"
            "print('json' in sys.modules)\n")
    src = Path(diracsplit.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_a_resolved_name_is_bound_in_the_root():
    """After its first read a name is a plain attribute of the root, the defining module's own."""
    from diracsplit import subsolutions

    assert diracsplit.split is subsolutions.split
    assert vars(diracsplit)["split"] is subsolutions.split


def test_every_library_error_is_public():
    """Each ``DiracSplitError`` subclass of ``errors`` is a public name, so callers can catch it."""
    from diracsplit import errors

    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.DiracSplitError)}
    assert classes - set(diracsplit.__all__) == set()


def test_only_values_defines_immutability():
    """Every frozen class refuses assignment and deletion through ``values.Value``.

    No other module defines ``__setattr__`` or ``__delattr__``, or reads
    ``object.__setattr__``: a frozen value's ``__init__`` stores with
    ``values.store``.
    """
    hooks = ("__setattr__", "__delattr__")
    found = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        if path.name == "values.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in hooks
                    or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id in hooks
                    or isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _calls_of(name, node, scope=()):
    """(scope, line) of each call of ``name`` under ``node``, scope the enclosing def names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_of(name, child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield ".".join(scope), child.lineno
        yield from _calls_of(name, child, scope)


def test_only_reports_builds_a_residual_report():
    """Relations are measured by ``residual_report``; no module assembles a report by hand."""
    built = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        if path.name != "reports.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            built += [(path.stem, scope) for scope, _ in _calls_of("ResidualReport", tree)]
    assert built == []


def test_only_reports_judges_a_residual():
    """One module decides every verdict: outside ``reports`` no module reads whether a residual
    is zero or calls a judge, so basis validations and preconditions go through
    ``reports.demand`` and records through ``reports.judged``."""
    judges = ("within", "all_within", "all_exact_zero", "passes", "max_residual")
    outside = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        if path.name != "reports.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            outside += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and node.attr in ("exact_zero", "is_zero")]
            outside += [f"{path.stem}.{scope}" for name in judges
                        for scope, _ in _calls_of(name, tree)]
    assert outside == []


def test_gamma_measures_only_its_validations():
    """``gamma`` measures residuals only to validate: every other record is built in ``suites``."""
    tree = ast.parse(Path(diracsplit.gamma.__file__).read_text(encoding="utf-8"))
    scopes = sorted(scope for name in ("residual_report", "residual_entry")
                    for scope, _ in _calls_of(name, tree))
    assert scopes == ["_conjugation_matrix", "_family_residuals"]


def test_only_gamma_and_suites_read_an_intertwiner():
    """No field or relation changes basis: ``gamma`` derives M with an intertwiner, ``suites``
    states and records their relations, and no other module calls ``intertwiner(``."""
    outside = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        if path.stem not in ("gamma", "suites"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            outside += [f"{path.stem}.{scope}" for scope, _ in _calls_of("intertwiner", tree)]
    assert outside == []


def test_only_gamma_and_fields_read_the_lowered_gammas():
    """Every gamma.p - m is ``fields.dirac_matrix``: ``gamma`` builds gamma_mu, ``fields``
    contracts them with a momentum, and no other module reads ``.gammas_lower``."""
    outside = []
    for path in sorted(Path(diracsplit.__file__).parent.glob("*.py")):
        if path.stem not in ("gamma", "fields"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            outside += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr == "gammas_lower"]
    assert outside == []


def _reads(module, functions, names) -> tuple:
    """(the defs of ``functions`` found at ``module``'s top level, each "def:name" they read).

    A def reads a name of ``names`` as a variable, an attribute or a parameter.
    """
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    defs, reads = set(), []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            defs.add(node.name)
            for child in ast.walk(node):
                name = (child.id if isinstance(child, ast.Name)
                        else child.attr if isinstance(child, ast.Attribute)
                        else child.arg if isinstance(child, ast.arg) else None)
                if name in names:
                    reads.append(f"{node.name}:{name}")
    return defs, reads


def test_no_term_statement_names_a_backend():
    """The term statements take their scalars as they come.

    ``GaussianRational`` and ``complex`` refuse each other, so no
    statement needs a backend to keep them apart: the split, Weyl and
    Majorana statements and the amplitude algebra read no backend, build
    no backend scalar and coerce nothing, and the Dirac symbol builds no
    scalar and coerces no mass.
    """
    backend_names = {"backend", "EXACT", "FLOAT", "SCALAR_TYPE", "coerce_scalar", "coerce_real"}
    statements = {"split_term", "split_relations", "_projector_forms", "weyl_relations",
                  "majorana_relations"}
    algebra, symbol = {"_add", "_sub", "_scaled"}, {"dirac_matrix", "_gamma_dot"}
    checks = ((diracsplit.subsolutions, statements, backend_names),
              (diracsplit.fields, algebra, backend_names),
              (diracsplit.fields, symbol, {"SCALAR_TYPE", "coerce_scalar"}))
    missing, found = [], []
    for module, functions, names in checks:
        defs, reads = _reads(module, functions, names)
        missing += sorted(functions - defs)
        found += reads
    assert missing == [] and found == []


def test_the_readme_library_example_runs(capsys):
    """The README's "Library use" code block runs as written, and its run passes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    passed, failed = capsys.readouterr().out.split()
    assert int(passed) > 0 and failed == "0"


def test_the_readme_library_section_names_every_public_name():
    """README "Library use" is the contract of ``__all__``: it names each public name as code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]+)`+", section))))
    assert [name for name in diracsplit.__all__ if name not in named] == []
