import ast
import subprocess
import sys
from pathlib import Path

import oqrw


def _run(code: str) -> str:
    """Run code in a fresh interpreter that imports this source tree."""
    src = str(Path(oqrw.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # no module of the package imports scipy, so neither starting the command
    # line nor `limits.ex5_alpha` behind `oqrw asym` pays for it; tests use
    # scipy only as a reference
    code = (
        "import sys\n"
        "from oqrw import cli, limits\n"
        "limits.ex5_alpha(600)\n"
        "assert cli.main(['asym', '--n', '30', '--window', '3']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run(code).splitlines()[-1] == "[]"


def test_cli_imports_only_the_engines_a_subcommand_runs(tmp_path):
    # a cold `oqrw` process pays to import the engines its subcommand runs,
    # and no other
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,p\n0,1.0\n")
    b.write_text("x,p\n0,1.0\n")
    engines = "('dual', 'lattice', 'limits', 'trajectory')"
    loaded = f"[e for e in {engines} if 'oqrw.' + e in sys.modules]"
    code = (
        "import sys\n"
        "from oqrw import cli\n"
        f"print({loaded})\n"
        f"assert cli.main(['compare', {str(a)!r}, {str(b)!r}]) == 0\n"
        f"print({loaded})\n"
    )
    lines = _run(code).splitlines()  # the compare report lies between
    assert (lines[0], lines[-1]) == ("[]", "[]")
    code = (
        "import sys\n"
        "from oqrw import cli\n"
        "assert cli.main(['sample', '--example', 'ex5', '--steps', '3', '--traj', '5', '--seed', '1']) == 0\n"
        f"print({loaded})"
    )
    assert _run(code).splitlines()[-1] == "['trajectory']"


def test_closed_form_leaves_scipy_stats_unloaded():
    # the closed-form binomials are formed with numpy, not scipy.stats
    code = (
        "import sys\n"
        "from oqrw import catalog\n"
        "for ident in ('ex1', 'ex3', 'ex4'):\n"
        "    catalog.closed_form(catalog.ExampleSpec(ident), (0.5, 0.5), 40)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy.stats' or m.startswith('scipy.stats.')))"
    )
    assert _run(code) == "[]"


def test_distribution_module_is_not_shadowed():
    import oqrw.distribution as m
    from oqrw import distribution

    assert distribution is m
    assert m.__name__ == "oqrw.distribution"
    assert hasattr(m, "Distribution")


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(oqrw.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def test_only_core_imports_integral():
    # the integer rule lives in core.check_integer and core.check_seed alone;
    # a module that imports numbers.Integral is writing a check of its own
    found = []
    for path in sorted(Path(oqrw.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found += [path.name for alias in node.names if alias.name == "Integral"]
            elif isinstance(node, ast.Import):
                found += [path.name for alias in node.names if alias.name == "numbers"]
    assert found == ["core.py"]


def _package_imports(path: Path) -> set[str]:
    """The modules of oqrw that a module imports anywhere in its body, by their
    short names: `from . import dual`, `from .dual import x`, `import oqrw.dual`
    and `from oqrw import dual` all give "dual"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("oqrw.") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                module = module.removeprefix("oqrw").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
    return found


def test_exact_engines_do_not_import_each_other():
    # the lattice and dual engines check each other, so neither may use the other
    package = Path(oqrw.__file__).resolve().parent
    assert "dual" not in _package_imports(package / "lattice.py")
    assert "lattice" not in _package_imports(package / "dual.py")


def test_engines_do_not_import_the_oracle_or_the_limit_code():
    # catalog and limits check the engines, so no engine may use them
    package = Path(oqrw.__file__).resolve().parent
    for engine in ("lattice.py", "dual.py", "trajectory.py"):
        assert not {"catalog", "limits"} & _package_imports(package / engine)


def test_trajectory_engine_is_independent_of_the_exact_engines():
    # the sampled law checks both exact laws, so no engine may use another
    package = Path(oqrw.__file__).resolve().parent
    assert not {"lattice", "dual"} & _package_imports(package / "trajectory.py")
    for exact in ("lattice.py", "dual.py"):
        assert "trajectory" not in _package_imports(package / exact)
