"""Every accepted override moves the cases of its report, or is pinned.

Each DEFAULTS key of each experiment gets the same fixed steps for its
type: a bool negated; an int +1; a float x1.01, x2 and x0.5; a tuple
with its last entry dropped, then with every entry stepped as above.
The steps run `run_experiment` in process, in that order and until
one moves, each compared with the defaults on the rendered `cases`
alone (the report's `params` echo moves with every override).
`smatrix` keys are tried at order 1, then at order 2, each against the
defaults of that order: a key moves if it moves at either.  A key
that no step moves needs a reason: in NO_EFFECT if some step was
accepted, in REFUSED if every step was refused (the CLI's exit 2).
Both must match the sweep exactly, as ALLOWED does in
`tests/test_reachability.py`.
"""

import itertools

import pytest

from sqmlab.cli import render_json
from sqmlab.experiments import DEFAULTS, run_experiment

_DRAWS_NOTHING = "the experiment draws nothing from its seed; perfbench passes --seed to every run"

# (experiment, key) -> why an accepted step leaves every case as it was
NO_EFFECT = {
    ("anomaly-scan", "seed"): _DRAWS_NOTHING,
    ("dirac-nogo", "seed"): _DRAWS_NOTHING,
    ("dirac-propagator", "seed"): _DRAWS_NOTHING,
    ("fswap-cycle", "seed"): _DRAWS_NOTHING,
    ("propagator", "seed"): _DRAWS_NOTHING,
    ("smatrix", "seed"): _DRAWS_NOTHING,
    ("propagator", "ed_n_max"):
        "the free vacuum two-point function lives in the one-particle sector, exact at "
        "n_max >= 1; the key sizes the ED cap check, which perfbench reads",
}

# (experiment, key) -> why every step is refused
REFUSED = {
    ("smatrix", "M_sites"): "the four externals fill the four site classes: only 4 is accepted",
}

# the orders each experiment runs at: smatrix at both, the others at their defaults
ORDERS = {name: [{"order": 1}, {"order": 2}] if name == "smatrix" else [{}] for name in DEFAULTS}


def steps(value) -> list:
    """The fixed overrides tried for one DEFAULTS value, by its type."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, float):
        return [value * 1.01, value * 2, value * 0.5]
    return [value[:-1], *(tuple(s) for s in zip(*(steps(v) for v in value)))]


def _cases(name: str, params: dict) -> str:
    return render_json({"cases": run_experiment(name, params)["cases"]})


def sweep(name: str) -> tuple[set[str], set[str]]:
    """(keys some step is accepted for but none moves, keys every step is refused for)."""
    no_effect, refused = set(), set()
    bases = [(base, _cases(name, base)) for base in ORDERS[name]]
    for key, default in DEFAULTS[name].items():
        accepted = False
        for (base, cases), value in itertools.product(bases, steps(default)):
            try:
                stepped = _cases(name, {**base, key: value})
            except (ValueError, ArithmeticError):
                continue
            accepted = True
            if stepped != cases:
                break
        else:
            (no_effect if accepted else refused).add(key)
    return no_effect, refused


def test_steps_are_fixed_per_type():
    assert steps(True) == [False]
    assert steps(4) == [5]
    assert steps(0.5) == [0.505, 1.0, 0.25]
    assert steps((2, 3)) == [(2,), (3, 4)]
    assert steps((1.0, 2.0)) == [(1.0,), (1.01, 2.02), (2.0, 4.0), (0.5, 1.0)]


def test_pinned_keys_are_experiment_keys_with_reasons():
    for name, key in {**NO_EFFECT, **REFUSED}:
        assert key in DEFAULTS[name]
    assert all(NO_EFFECT.values()) and all(REFUSED.values())
    assert not set(NO_EFFECT) & set(REFUSED)


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_every_override_moves_the_cases_or_is_pinned(name):
    no_effect, refused = sweep(name)
    assert no_effect == {key for exp, key in NO_EFFECT if exp == name}
    assert refused == {key for exp, key in REFUSED if exp == name}
