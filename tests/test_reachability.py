"""Every function of the package is called by a CLI run, or is allow-listed.

The battery below runs in process under `sys.setprofile`: every
registered experiment at its defaults, `smatrix --order 2`, `fswap-cycle`
at (N, M) = (2, 1) and one `--config FILE --csv` run whose file sets a
real-valued key.  A function of `src/sqmlab` (methods and closures
included) that none of these calls feeds no verdict, so it must either
leave the package or appear in ALLOWED with the reason it stays.  The
allow-list must match the unreached set exactly: a function that
becomes reachable leaves it, and a new unreached one fails the test.
"""

import ast
import sys
from pathlib import Path

import sqmlab
from sqmlab.cli import main
from sqmlab.experiments import DEFAULTS

SRC = Path(sqmlab.__file__).resolve().parent

_DENSE_FERMION = "perfbench reads the dense fermion views"

# module.qualname -> why it stays although no CLI run calls it
ALLOWED = {
    "fermions.FermionLayout.leg": _DENSE_FERMION,
    "fermions.jw_annihilator": _DENSE_FERMION,
    "fermions.parity_operator": _DENSE_FERMION,
    "spacetime.power_and_pseudoentropy.<locals>.power":
        "perfbench unpacks the (power, trace) pair",
}


def defined_functions(source: str) -> set[str]:
    """Qualified names of every def in `source`, as code objects name them."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return names


def called_functions(run) -> set[str]:
    """module.qualname of every package function that run() calls."""
    codes = {}

    def hook(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}"
            for code in codes.values() if Path(code.co_filename).resolve().parent == SRC}


def reachability_problems(defined: set[str], called: set[str], allowed) -> tuple[list, list]:
    """(unreached functions not allowed, allowed entries that are reached or gone)."""
    unreached = defined - called
    return sorted(unreached - set(allowed)), sorted(set(allowed) - unreached)


def test_checker_finds_closures_and_methods():
    source = (
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
        "def outer():\n"
        "    if True:\n"
        "        def nested():\n"
        "            pass\n"
        "    return lambda: 0\n"
    )
    assert defined_functions(source) == {
        "Box.size", "Box.size.<locals>.inner", "outer", "outer.<locals>.nested",
    }


def test_checker_flags_new_unreached_and_stale_entries():
    defined = {"m.used", "m.kept", "m.dropped"}
    called = {"m.used"}
    assert reachability_problems(defined, called, {"m.kept": "", "m.dropped": ""}) == ([], [])
    # a function nobody calls that the allow-list does not name
    assert reachability_problems(defined, called, {"m.kept": ""}) == (["m.dropped"], [])
    # an entry whose function is called now, and one whose function is gone
    allowed = {"m.kept": "", "m.dropped": "", "m.used": "", "m.deleted": ""}
    assert reachability_problems(defined, called, allowed) == ([], ["m.deleted", "m.used"])


def test_every_function_is_reached_or_allowed(tmp_path, capsys):
    config = tmp_path / "paw.cfg"
    config.write_text("eps = 0.25\ncases = 5\n")
    runs = [[name] for name in sorted(DEFAULTS)] + [
        ["smatrix", "--order", "2"],
        ["fswap-cycle", "--N", "2", "--M", "1"],
        ["paw-conditioning", "--config", str(config), "--csv"],
    ]
    # a CLI run starts with empty functools caches; earlier tests in this
    # process may have filled them, and a cache hit calls no function
    for name, module in list(sys.modules.items()):
        if name.startswith("sqmlab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    exits = []
    called = called_functions(
        lambda: exits.extend(main([*argv, "--out", str(tmp_path)]) for argv in runs))
    assert exits == [0] * len(runs)
    defined = {f"{path.stem}.{name}"
               for path in sorted(SRC.glob("*.py")) for name in defined_functions(path.read_text())}
    assert reachability_problems(defined, called, ALLOWED) == ([], [])
