"""Tests for the command-line entry point and report serialization."""

import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqmlab.cli import (
    _collect_params,
    _parse_scalar,
    build_parser,
    main,
    parse_config,
    render_json,
    write_csv,
)
from sqmlab.experiments import DEFAULTS, _case, run_experiment


# ---------------------------------------------------------------------------
# config parsing


def test_parse_scalar_types():
    assert _parse_scalar("true") is True
    assert _parse_scalar("False") is False
    assert _parse_scalar("3") == 3
    assert isinstance(_parse_scalar("3"), int)
    assert _parse_scalar("0.5") == 0.5
    assert _parse_scalar(" 2to2 ") == "2to2"


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "cases = 7   # trailing comment\n"
        "eps=0.25\n"
        "process = 2to2\n"
        "dims = 2, 3\n"
        "strict = true\n"
    )
    params = parse_config(cfg)
    assert params == {
        "cases": 7,
        "eps": 0.25,
        "process": "2to2",
        "dims": (2, 3),
        "strict": True,
    }


def test_parse_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cases = 7\nnot a pair\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        parse_config(cfg)


# ---------------------------------------------------------------------------
# serialization


def _rendered(value):
    return json.loads(render_json({"v": value}))["v"]


def test_render_json_canonical_forms():
    assert _rendered(1.5 - 2.0j) == [1.5, -2.0]
    assert _rendered(np.complex128(3.0 + 4.0j)) == [3.0, 4.0]
    assert _rendered(np.float64(0.25)) == 0.25
    assert isinstance(_rendered(np.int64(7)), int)
    assert _rendered(np.bool_(True)) is True
    assert _rendered(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert _rendered(np.array([1.0 + 2.0j])) == [[1.0, 2.0]]
    assert _rendered((1, 2)) == [1, 2]
    assert _rendered({"k": (1.0 + 1.0j,)}) == {"k": [[1.0, 1.0]]}
    assert render_json({"x": np.float64(0.1)}) == render_json({"x": 0.1})


def test_render_json_rejects_what_it_cannot_encode():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        render_json({"v": {1, 2}})


def test_render_json_is_deterministic_and_sorted():
    report = {"b": 1, "a": {"z": 2.0 + 1.0j, "y": (1, 2)}}
    text = render_json(report)
    assert text == render_json(dict(reversed(report.items())))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"z": [2.0, 1.0], "y": [1, 2]}}


def test_write_csv_layout(tmp_path):
    report = {
        "cases": [
            {"case": "k[0]", "value": 1.0 + 0.5j, "oracle": 1.0 + 0.0j,
             "abs_err": 0.5, "rel_err": 0.5, "tol": 1e-2, "pass": False},
        ]
    }
    path = tmp_path / "table.csv"
    write_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "case,value_re,value_im,oracle_re,oracle_im,abs_err,rel_err,tol,pass"
    assert lines[1].startswith("k[0],1.0,0.5,1.0,0.0,")
    assert lines[1].endswith(",0")


def _strict_json(text: str):
    """json.loads that refuses the non-JSON tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_zero_oracle_has_no_relative_error(tmp_path):
    # abs_err / 1e-300 would be inf, which json.dumps writes as Infinity
    case = _case("zero[0]", {}, 1e9, 0.0, 1.0)
    assert case["rel_err"] is None
    loaded = _strict_json(render_json({"cases": [case]}))
    assert loaded["cases"][0]["rel_err"] is None
    assert loaded["cases"][0]["abs_err"] == 1e9
    assert _case("unit[0]", {}, 1.5, 2.0, 1.0)["rel_err"] == 0.25
    path = tmp_path / "table.csv"
    write_csv({"cases": [case]}, path)
    row = path.read_text().splitlines()[1]
    assert row == "zero[0],1000000000.0,0.0,0.0,0.0,1000000000.0,,1.0,0"


def test_zero_oracle_report_is_strict_json(tmp_path, capsys):
    assert main(["constraint-theorem", "--cases", "4", "--out", str(tmp_path)]) == 0
    report = _strict_json((tmp_path / "constraint-theorem.json").read_text())
    assert [case["rel_err"] for case in report["cases"]] == [None] * 4


# ---------------------------------------------------------------------------
# argument handling


def test_seed_range_is_validated(tmp_path, capsys):
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64-bit"):
            run_experiment("fswap-cycle", {"seed": seed})
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"seed = {seed}\n")
        for source in (["--seed", str(seed)], ["--config", str(cfg)]):
            assert main(["fswap-cycle", *source, "--out", str(tmp_path / "reports")]) == 2
            assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
    assert run_experiment("fswap-cycle", {"seed": 2**64 - 1})["summary"]["all_pass"]


def _as_text(value) -> str:
    """How a user writes a DEFAULTS value on the command line."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(_as_text, value)) + ","
    return str(value)


@pytest.mark.parametrize("name, key", [
    (name, key) for name in sorted(DEFAULTS) for key in sorted(DEFAULTS[name])
])
def test_key_flag_overrides_that_key(name, key):
    default = DEFAULTS[name][key]
    args, overrides = build_parser().parse_known_args([name, f"--{key}", _as_text(default)])
    params = _collect_params(args, overrides)
    assert params == {key: default}
    assert repr(params[key]) == repr(default)


def test_negative_value_parses_as_a_value():
    args, overrides = build_parser().parse_known_args(["propagator", "--eps_i", "-0.05"])
    assert _collect_params(args, overrides) == {"eps_i": -0.05}


@pytest.mark.parametrize("argv", [
    ["smatrix", "--order"],
    ["smatrix", "order", "2"],
    ["smatrix", "--o", "2"],
])
def test_malformed_overrides_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "reports"]) == 2
    err = capsys.readouterr().err
    assert "sqmlab: error:" in err and "Traceback" not in err
    # `--o` is not an abbreviation of `--out`: no report is written anywhere
    assert list(tmp_path.iterdir()) == []


def test_unknown_experiment_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-experiment"])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_registry_rejects_unknown_name():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("no-such-experiment")


def test_every_experiment_has_a_seeded_default():
    for name, params in DEFAULTS.items():
        assert "seed" in params, name


# ---------------------------------------------------------------------------
# end-to-end runs


def test_main_writes_passing_json_report(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["fswap-cycle", "--N", "2", "--M", "1", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "[pass]" in captured.out
    assert "0 failures" in captured.out

    report = json.loads((out / "fswap-cycle.json").read_text())
    assert report["schema"] == 1
    assert report["experiment"] == "fswap-cycle"
    assert report["params"]["N"] == 2
    assert report["summary"]["all_pass"] is True
    assert report["summary"]["failures"] == 0
    keys = [case["case"] for case in report["cases"]]
    assert keys == sorted(keys)
    assert {"case", "inputs", "value", "oracle", "abs_err", "rel_err",
            "tol", "pass"} <= set(report["cases"][0])


def test_main_csv_output(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["fswap-cycle", "--N", "2", "--M", "1", "--csv",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = (out / "fswap-cycle.csv").read_text().splitlines()
    assert lines[0].startswith("case,")
    assert len(lines) >= 4


def test_same_seed_reruns_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("cases = 3\n")
    argv = ["causality-witness", "--config", str(cfg), "--seed", "11"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "causality-witness.json").read_bytes()
    second = (tmp_path / "b" / "causality-witness.json").read_bytes()
    assert first == second

    assert main(argv[:-2] + ["--seed", "12", "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    third = json.loads((tmp_path / "c" / "causality-witness.json").read_text())
    assert json.loads(first)["cases"] != third["cases"]


def test_too_strict_tolerance_fails_honestly(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("cases = 2\n")
    code = main(["causality-witness", "--config", str(cfg), "--tol", "1e-30",
                 "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL]" in captured.out
    report = json.loads((tmp_path / "r" / "causality-witness.json").read_text())
    assert report["summary"]["all_pass"] is False


@pytest.mark.parametrize("argv", [
    ["fswap-cycle", "--json"],
    ["fswap-cycle", "--seed=7"],
    ["--seed", "7", "fswap-cycle"],
])
def test_removed_flags_exit_2(argv, tmp_path):
    """--seed is a DEFAULTS key set after the experiment name, and JSON needs no flag."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([*argv, "--out", str(tmp_path)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("sites", [2, 6])
def test_smatrix_needs_four_sites(order, sites, tmp_path, capsys):
    argv = ["smatrix", "--order", str(order), "--M_sites", str(sites), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"need M_sites = 4, got {sites}: the four externals fill the four site classes" in err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["fswap-cycle", "--seed", "-4"]) == 2
    assert main(["smatrix", "--order", "7", "--out", str(tmp_path)]) == 2
    assert main(["fswap-cycle", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert "sqmlab: error:" in err


def _refuse_past(f, size, limit=10**7):
    """f, refusing any call whose result would hold more than `limit` elements."""
    def guarded(*args, **kwargs):
        if size(*args) > limit:
            raise AssertionError(f"{f.__name__} of {size(*args)} elements")
        return f(*args, **kwargs)
    return guarded


def _arange_size(*args):
    """len(np.arange(*args)) for the (stop), (start, stop) and (start, stop, step) forms."""
    start, stop, step = (0, args[0], 1) if len(args) == 1 else (*args, 1)[:3]
    return max(0, math.ceil((stop - start) / step))


# (argv, what its message names: the cap, and the key that sized the input past it)
OVERSIZED = [
    # a 201^2-state ED lattice: the oracle's cap on its basis states
    (["propagator", "--ed_n_max", "200"], ("ed_n_max", "exceeds cap 4096")),
    # 40000 legs: a 1.6e9-amplitude sector vector without the cap
    (["anomaly-scan", "--slice_counts", "40000,"], ("exceeds cap 1024",)),
    # T/tau = 8e6, 2e301 and 1.5e8 slices: N-long line tables without the cap
    (["propagator", "--T", "400000"], ("exceeds cap 1048576",)),
    (["propagator", "--T", "1e300"], ("exceeds cap 1048576",)),
    (["smatrix", "--order", "2", "--tau2", "1e-5"], ("exceeds cap 1048576",)),
]


@pytest.mark.parametrize("argv, named", OVERSIZED, ids=[" ".join(argv) for argv, _ in OVERSIZED])
def test_oversized_input_exits_2_before_allocating(argv, named, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "zeros", _refuse_past(np.zeros, lambda shape, *_: np.prod(shape)))
    monkeypatch.setattr(np, "kron", _refuse_past(np.kron, lambda a, b: np.size(a) * np.size(b)))
    monkeypatch.setattr(np, "arange", _refuse_past(np.arange, _arange_size))
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sqmlab: error:") and all(part in err for part in named)
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# parameter validation: nothing silently ignored, no vacuous verdict


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("tua2 = 0.05\n")
    assert main(["smatrix", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "'tua2'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="tua2"):
        run_experiment("smatrix", {"tua2": 0.05})


@pytest.mark.parametrize("argv", [
    ["trace-theorem", "--N", "3"],
    ["dirac-nogo", "--M", "2"],
    ["propagator", "--process", "2to2"],
    ["smatrix", "--process", "2to2"],
    ["fswap-cycle", "--tau-sweep"],
])
def test_flag_for_a_missing_key_exits_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["propagator", "smatrix", "dirac-propagator", "anomaly-scan"])
def test_tol_without_a_tol_key_exits_2(name, tmp_path, capsys):
    assert main([name, "--tol", "1e-30", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    tol_keys = [key for key in DEFAULTS[name] if key.startswith("tol_")]
    assert tol_keys and all(key in err for key in tol_keys)


@pytest.mark.parametrize("cases", [0, -3])
def test_nonpositive_cases_exit_2(cases, tmp_path, capsys):
    cfg = tmp_path / "cases.cfg"
    cfg.write_text(f"cases = {cases}\n")
    assert main(["trace-theorem", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "cases" in capsys.readouterr().err


@pytest.mark.parametrize("name, line", [
    ("trace-theorem", "tol = nan"),
    ("trace-theorem", "tol = inf"),
    ("trace-theorem", "tol = -1e-3"),
    ("propagator", "tol_ed = -inf"),
    pytest.param("trace-theorem", "tol = 1" + "0" * 400, id="trace-theorem-tol = 10**400"),
])
def test_bad_tolerance_exits_2(name, line, tmp_path, capsys):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(line + "\n")
    assert main([name, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "sqmlab: error:" in capsys.readouterr().err


def test_negative_tol_flag_exits_2(tmp_path, capsys):
    assert main(["trace-theorem", "--tol", "-1", "--out", str(tmp_path)]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_mistyped_values_exit_2(tmp_path, capsys):
    for name, line in [("trace-theorem", "cases = 2.5"), ("trace-theorem", "dims = 2"),
                       ("fswap-cycle", "N = true"), ("smatrix", "lam = fast")]:
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(line + "\n")
        assert main([name, "--config", str(cfg), "--out", str(tmp_path)]) == 2, line
    capsys.readouterr()


@pytest.mark.parametrize("name, line, int_flags, float_flags", [
    ("causality-witness", "tol = 1", ["--tol", "1"], ["--tol", "1.0"]),
    ("dirac-propagator", "p_moving = 1, 0, 0, 0", ["--p_moving", "1,0,0,0"],
     ["--p_moving", "1.0,0.0,0.0,0.0"]),
])
def test_int_for_a_real_key_gives_the_same_report(name, line, int_flags, float_flags,
                                                  tmp_path, capsys):
    cfg = tmp_path / "int.cfg"
    cfg.write_text(line + "\n")
    runs = {"int": int_flags, "float": float_flags, "config": ["--config", str(cfg)]}
    cases = ["--cases", "2"] if "cases" in DEFAULTS[name] else []
    for label, flags in runs.items():
        assert main([name, *cases, *flags, "--out", str(tmp_path / label)]) == 0
    capsys.readouterr()
    reports = {(tmp_path / label / f"{name}.json").read_bytes() for label in runs}
    assert len(reports) == 1


def test_run_without_cases_exits_2(tmp_path, capsys):
    # k_max = 1 asks no Renyi order k >= 2 of any draw
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("k_max = 1\n")
    assert main(["pseudo-entropy", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "no cases" in capsys.readouterr().err


@pytest.mark.parametrize("name, key", [
    ("trace-theorem", "dims"),
    ("anomaly-scan", "slice_counts"),
    ("propagator", "grid_energies"),
    ("propagator", "ed_slices"),
    ("dirac-propagator", "p_moving"),
    ("st-state-marginals", "dims"),
])
def test_empty_list_override_exits_2(name, key, tmp_path, capsys):
    assert main([name, f"--{key}", ",", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sqmlab: error:") and f"{key!r}" in err and "at least one" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, case", [
    (["propagator", "--ed_slices", "1,1"], "feynman_vs_ed[dt=001]"),
    (["anomaly-scan", "--slice_counts", "8,8"], "contraction_density[N=008]"),
])
def test_repeated_case_name_exits_2(argv, case, tmp_path, capsys):
    # a report's case names identify its cases: a repeated entry would list one twice
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sqmlab: error:") and f"{case!r} twice" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# fuzz over the DEFAULTS keys of every experiment

FUZZ_EXPERIMENTS = sorted(DEFAULTS)
# small or degenerate values of every shape a config line can carry; sizes
# stay small (at most 3 slices, sites or legs per override) so no run is slow
FUZZ_INTS = st.integers(-2, 3)
FUZZ_FLOATS = st.sampled_from([0.0, -0.5, 0.05, 0.37, 2.5, math.nan, math.inf, -math.inf])
FUZZ_STRINGS = st.sampled_from(["2to2", "x"])


def _values_like(default):
    """Values of the default's own type; bool before int, as bool is an int."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return FUZZ_INTS
    if isinstance(default, float):
        return FUZZ_FLOATS
    if isinstance(default, str):
        return FUZZ_STRINGS
    return st.lists(_values_like(default[0]), max_size=4).map(tuple)


FUZZ_ANY = st.one_of(*(_values_like(v) for v in (True, 0, 0.0, "", (0,), (0.0,))))


def _config_line(key, value) -> str:
    if isinstance(value, tuple):
        return f"{key} = {', '.join(map(repr, value))},"
    return f"{key} = {str(value).lower() if isinstance(value, bool) else value!r}".replace("'", "")


@st.composite
def _fuzz_runs(draw):
    name = draw(st.sampled_from(FUZZ_EXPERIMENTS))
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS[name])), min_size=1, max_size=2,
                         unique=True))
    params = {key: draw(st.one_of(_values_like(DEFAULTS[name][key]), FUZZ_ANY)) for key in keys}
    if "cases" in DEFAULTS[name] and "cases" not in params:
        params["cases"] = 2
    return name, params


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fuzz_runs())
def test_fuzzed_config_exits_cleanly(run):
    name, params = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("".join(_config_line(k, v) + "\n" for k, v in params.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([name, "--config", str(cfg), "--out", tmp])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            report = json.loads((Path(tmp) / f"{name}.json").read_text())
            assert report["summary"]["cases"] >= 1


@pytest.mark.parametrize("order, key, value", [
    (2, "T", "30.0"), (2, "n_a", "3"), (2, "n_b", "4"), (2, "eps_i", "0.1"),
    (2, "tau", "0.1"), (2, "sweep_points", "4"), (2, "tol_volume", "1e-30"),
    (2, "tol_tdpt", "1e-30"),
    (1, "T2", "750.0"), (1, "n_a2", "40"), (1, "n_b2", "100"), (1, "eps_i2", "0.01"),
    (1, "tau2", "0.2"), (1, "tol_pair", "1e-30"), (1, "tol_stability", "1e-30"),
])
def test_smatrix_key_of_the_other_order_exits_2(order, key, value, tmp_path, capsys):
    argv = ["smatrix", "--order", str(order), f"--{key}", value, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "sqmlab: error:" in err and key in err.split()


@pytest.mark.parametrize("name, line", [
    ("dirac-nogo", "T = 0"),
    ("anomaly-scan", "slice_counts = 4, 0"),
    ("propagator", "tau_grid = 0.0"),
    ("smatrix", "M_sites = 0"),
    ("smatrix", "sweep_points = 1"),
    ("dirac-propagator", "p_moving = 1.0,"),
    # every smatrix tolerance scales with lam: 0 against an oracle of 0 at tol 0
    ("smatrix", "lam = 0.0"),
    pytest.param("smatrix", "order = 2\nlam = 0.0", id="smatrix-order = 2, lam = 0.0"),
    # too few sweep points drop the limit or order-ratio cases
    ("propagator", "sweep_points = 0"),
    ("propagator", "sweep_points = 1"),
    ("dirac-propagator", "sweep_points = 0"),
    ("dirac-propagator", "sweep_points = 1"),
    ("st-state-marginals", "k_max = 0"),
    # an oracle lattice that holds no particle would fail as physics
    ("propagator", "ed_n_max = 0"),
])
def test_degenerate_values_exit_2_without_traceback(name, line, tmp_path, capsys):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(line + "\n")
    assert main([name, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "sqmlab: error:" in capsys.readouterr().err


# (argv, config file text or None, error kind, parameters named in the message)
OUT_OF_RANGE = [
    (["propagator", "--gap", "0", "--eps_i", "0"], None, "ZeroDivisionError", "gap=0, eps_i=0"),
    # the leg constants meet the Bose law's pole, a ZeroDivisionError subclass
    (["smatrix", "--eps_i", "1e-300"], None, "PoleError", "eps_i=1e-300"),
    (["dirac-nogo", "--T", "1e-300"], None, "OverflowError", "T=1e-300"),
    # the dispersion energy stays finite; the gap squared overflows, not an
    # inf energy that would read inf <= inf as on shell
    (["dirac-nogo", "--mass", "1e200"], None, "OverflowError", "mass=1e+200"),
    (["smatrix", "--seed", "7"], "eps_i = 1e-300", "PoleError", "eps_i=1e-300, seed=7"),
    # the Dirac slab refuses a regulated mass that is not finite, and a phase
    # tau * K past linalg.unitary's rule, before the inverse or any NaN
    (["dirac-propagator", "--mass", "1e200"], None, "FloatingPointError", "mass=1e+200"),
    (["dirac-propagator", "--p0_rest", "1e200"], None, "FloatingPointError", "p0_rest=1e+200"),
    # the slab refuses a moving momentum past the phase rule before its oracle
    # squares it; at a tau that lets the slab through, the oracle's p^2 overflows
    (["dirac-propagator", "--p_moving", "1e200,0,0,0"], None, "FloatingPointError",
     "p_moving=(1e+200, 0, 0, 0)"),
    (["dirac-propagator", "--p_moving", "1e200,0,0,0", "--tau", "1e-300"], None,
     "FloatingPointError", "p_moving=(1e+200, 0, 0, 0), tau=1e-300"),
    # exp(-i eps H) refuses a phase eps * lambda whose last-place unit is a
    # radian or more (linalg.unitary): the slab step and the oracles alike
    (["trace-theorem", "--eps", "1e308"], None, "FloatingPointError", "eps=1e+308"),
    (["causality-witness", "--eps", "1e308"], None, "FloatingPointError", "eps=1e+308"),
    (["paw-conditioning", "--eps", "1e308"], None, "FloatingPointError", "eps=1e+308"),
    # a NaN case value has no JSON form: no report rather than a NaN token
    (["smatrix", "--lam", "1e308"], None, "FloatingPointError", "lam=1e+308"),
]


@pytest.mark.parametrize(
    "argv, config, kind, keys", OUT_OF_RANGE,
    ids=[" ".join(argv) + (f" --config [{config}]" if config else "") + f"-{kind}"
         for argv, config, kind, _ in OUT_OF_RANGE])
def test_out_of_range_arithmetic_exits_2(argv, config, kind, keys, tmp_path, capsys):
    out = tmp_path / "reports"
    if config:
        cfg = tmp_path / "range.cfg"
        cfg.write_text(config + "\n")
        argv = argv + ["--config", str(cfg)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []  # refused before any arithmetic warns
    err = capsys.readouterr().err
    assert err.startswith("sqmlab: error: parameters out of numeric range")
    assert kind in err
    assert err.rstrip().endswith(f"[overrides: {keys}]")
    assert not out.exists()


DEFAULT_RUNS = [[name] for name in sorted(DEFAULTS)] + [["smatrix", "--order", "2"]]


@pytest.mark.parametrize("argv", DEFAULT_RUNS, ids=" ".join)
def test_every_experiment_passes_at_its_defaults(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert " 0 failures" in capsys.readouterr().out


# at T = 7 the masses 6 pi / 7 and sqrt((10 pi / 7)^2 - pi^2) put the grid
# frequencies of (3, 0) and (5, 1) on the dispersion; the modes dirac-nogo
# leaves to the dispersion, (0, 1) and (-1, 0), stay off shell at any mass
@pytest.mark.parametrize(
    "mass", [0.0, 6 * math.pi / 7, math.sqrt((10 * math.pi / 7) ** 2 - math.pi**2)])
def test_dirac_nogo_passes_at_every_mass(mass, tmp_path, capsys):
    assert main(["dirac-nogo", "--mass", repr(mass), "--out", str(tmp_path)]) == 0
    assert " 0 failures" in capsys.readouterr().out


# run -> (case count, sha256 of the sorted [case key, inputs] pairs) at the
# defaults.  Inputs come from RNG integers and scalar Python arithmetic,
# never from BLAS, so the table holds on any machine; it pins what every
# run draws and in which order, apart from the computed values.
CASE_DRAWS = {
    "anomaly-scan": (16, "048c266501a34dc8778a8639cdde7c8987ed1cac2f059733761b9603388391dc"),
    "causality-witness": (25, "d3b8be6a306d95ff44c600a1f92699af4350864d8c628f058d8c018070272797"),
    "constraint-theorem": (50, "a6d34a2f9dfb6f45b490c646b24d86ad4bf0b989e8f48267cae547d6b268069e"),
    "dirac-nogo": (8, "80e6c3b09af8f6ec4149007fef6b42402d3bf00d72052e2f4f0c424e54876f30"),
    "dirac-propagator": (8, "338d7409551b8c673a8008e262be8430c5a88f7df7bb5a7ca4c4df52e96fbfbb"),
    "fswap-cycle": (7, "cc9c6fbf1387c01df16681d9a5299b53f4379bd5ed4a00293177732b08b818cf"),
    "paw-conditioning": (50, "11a2b077124bde0785eb0df7d43f4051d383589728241d98652c0b1eb8c6a211"),
    "propagator": (11, "a6df1f21a1a3e9626053b78ac2519b13aabdc957dd7a11eea4aa988c035bedae"),
    "pseudo-entropy": (50, "171eac167624ee49253da74ef1bf5e74305d08231226963e54c83e3562c54648"),
    "smatrix": (7, "41fca4d8cfbcd682af23f7f838db1a95296adf8b0281fbc30def9bd3b4210ba3"),
    "smatrix --order 2": (2, "accb5ad99f63cccd5d253d23917a90640d9defa87f49b64408191cb47c86d18e"),
    "st-state-marginals": (80, "05b3465db9bce7eafd967aaea490d0a464b7909070564fc474fd3a51267c68dd"),
    "trace-theorem": (50, "282b9ec696acdc5a5409a46f2efdf20524f9b7d76fdc860fc221d94a612767f3"),
}


def test_case_draws_are_pinned():
    drawn = {}
    for argv in DEFAULT_RUNS:
        params = {"order": int(argv[2])} if len(argv) > 1 else {}
        cases = run_experiment(argv[0], params)["cases"]
        text = json.dumps([[c["case"], c["inputs"]] for c in cases], sort_keys=True)
        drawn[" ".join(argv)] = (len(cases), hashlib.sha256(text.encode()).hexdigest())
    assert drawn == CASE_DRAWS


# the experiments whose cases the seed draws; the others report the same
# cases at every seed, so CI reruns only these at the reference seeds
SEEDED = {"causality-witness", "constraint-theorem", "paw-conditioning",
          "pseudo-entropy", "st-state-marginals", "trace-theorem"}
UNSEEDED = {"anomaly-scan", "dirac-nogo", "dirac-propagator", "fswap-cycle",
            "propagator", "smatrix"}


def test_seeded_experiments_are_pinned_in_ci():
    moved = set()
    for argv in DEFAULT_RUNS:
        params = {"order": int(argv[2])} if len(argv) > 1 else {}
        seven, other = (run_experiment(argv[0], {**params, "seed": seed})["cases"]
                        for seed in (7, 123))
        if seven != other:
            moved.add(argv[0])
    assert moved == SEEDED
    assert set(DEFAULTS) - moved == UNSEEDED
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    listed = re.search(r'seeded="([^"]*)"', workflow.read_text()).group(1)
    assert set(listed.split()) == SEEDED


@pytest.mark.parametrize("order, key", [(1, "tau"), (1, "eps_i"), (2, "tau2"), (2, "eps_i2")])
def test_smatrix_degenerate_window_names_its_key(order, key, tmp_path, capsys):
    argv = ["smatrix", "--order", str(order), f"--{key}", "0.0", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"need {key} > 0," in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value, least", [
    ("propagator", "ed_n_max", "0", 1),
    ("propagator", "sweep_points", "1", 2),
    ("st-state-marginals", "k_max", "0", 1),
])
def test_too_small_count_names_its_key(name, key, value, least, tmp_path, capsys):
    assert main([name, f"--{key}", value, "--out", str(tmp_path)]) == 2
    assert f"need {key} >= {least} for " in capsys.readouterr().err


# an empty draw range would reach numpy as a bare "low >= high" (or worse)
@pytest.mark.parametrize("argv, key", [
    (["constraint-theorem", "--n_max_slices", "1"], "n_max_slices"),
    (["st-state-marginals", "--n_max_slices", "1"], "n_max_slices"),
    (["causality-witness", "--n_max_slices", "1"], "n_max_slices"),
    (["pseudo-entropy", "--n_max_slices", "1"], "n_max_slices"),
    (["paw-conditioning", "--n_max_slices", "1"], "n_max_slices"),
    (["trace-theorem", "--n_max_slices", "0"], "n_max_slices"),
    (["paw-conditioning", "--d_min", "3", "--d_max", "2"], "d_max"),
    (["paw-conditioning", "--d_min", "0"], "d_min"),
    (["trace-theorem", "--max_inserts", "-1"], "max_inserts"),
], ids=" ".join)
def test_empty_draw_range_names_its_key(argv, key, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "sqmlab: error:" in err and f"need {key} >= " in err
