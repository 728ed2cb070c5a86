"""Faults that a default CLI verdict must catch.

Each mutant wraps one function of a package module (a monkeypatch, no
source rewriting) and names the run whose verdict must then turn from
exit code 0 into exit code 1.
"""

import pytest

from sqmlab import fermions, fock, gaussian
from sqmlab.cli import main

# name -> (module, function, wrapper making the faulty version, CLI run)
MUTANTS = {
    # the Dirac oracles form m^2 - i eps_i themselves, so a wrong slab mass shows
    "regulated_mass conjugated": (
        fermions, "regulated_mass",
        lambda f: lambda m, eps_i: f(m, eps_i).conjugate(),
        ["dirac-propagator"],
    ),
    # the two sides of the doubling ratio agree to ~1e-15, and tol_ratio is 1e-12
    "predicted_mismatch_ratio x 1.01": (
        fock, "predicted_mismatch_ratio",
        lambda f: lambda N: 1.01 * f(N),
        ["anomaly-scan"],
    ),
    # feynman_propagator_grid reads the line that order 2 sums, and ED is its oracle
    "line table conjugated": (
        gaussian, "line_table",
        lambda f: lambda *args: f(*args).conj(),
        ["propagator"],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_a_default_verdict(name, monkeypatch, tmp_path, capsys):
    module, attr, mutate, argv = MUTANTS[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert "[FAIL]" in capsys.readouterr().out
