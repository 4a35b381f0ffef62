import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughtaylor import cli, fbm, harness
from roughtaylor.cli import _parse_seeds, build_parser, main

# 2^1024, 309 digits: no float holds it, and no file system takes it as a name
_PAST_FLOAT = str(2**1024)


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if a command samples a driver path; returns the
    failing stand-in, for other work a refused command must not start."""

    def sample(*_):
        raise AssertionError("a refused command must not start its work")

    monkeypatch.setattr(harness, "sample_fbm", sample)
    monkeypatch.setattr(cli, "sample_fbm", sample)
    return sample


def test_sample_fbm_writes_csv(tmp_path, capsys):
    out = tmp_path / "fbm.csv"
    code = main(["sample-fbm", "--hurst", "0.75", "--n", "16", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == 18


def test_sample_fbm_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["sample-fbm", "--hurst", "0.3,0.6", "--n", "8", "--seed", "1", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.filterwarnings("error")
def test_sample_fbm_rejects_infinite_horizon(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sample-fbm", "--hurst", "0.5", "--n", "8", "--seed", "0", "--out", str(out), "--T", "inf"])
    assert code == 2
    assert "final time must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_sample_fbm_rejects_malformed_hurst(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sample-fbm", "--hurst", "0.5,x", "--n", "8", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "--hurst expects numbers, got '0.5,x'" in capsys.readouterr().err
    assert not out.exists()


def test_run_study_command(tmp_path, capsys):
    code = main(
        [
            "run",
            "--problem", "example1",
            "--scheme", "implicit_euler",
            "--hurst", "0.5",
            "--steps", "4..5",
            "--ref", "8",
            "--seeds", "2",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean average EOC" in out
    assert (tmp_path / "example1_implicit_euler_aggregate.csv").exists()
    assert (tmp_path / "example1_implicit_euler_seed1.csv").exists()


def test_run_rejects_bad_reference(capsys):
    code = main(
        [
            "run",
            "--problem", "example1",
            "--scheme", "implicit_euler",
            "--steps", "5..8",
            "--ref", "8",
            "--seeds", "1",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_incompatible_scheme(capsys):
    code = main(
        [
            "run",
            "--problem", "example1",
            "--scheme", "simplified_milstein",
            "--steps", "4..5",
            "--ref", "8",
            "--seeds", "1",
        ]
    )
    assert code == 2


def test_run_rejects_unknown_scheme(capsys):
    code = main(
        [
            "run",
            "--problem", "example1",
            "--scheme", "implicit_eular",
            "--steps", "4..5",
            "--ref", "8",
            "--seeds", "1",
        ]
    )
    assert code == 2
    assert "unknown scheme 'implicit_eular'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--steps", "5,5", "step exponents must be distinct, got (5, 5)"),
        ("--seeds", "0,0", "seeds must be distinct, got (0, 0)"),
        ("--seeds", "7,", "--seeds expects integers, got '7,'"),
        ("--seeds", "two", "--seeds expects integers, got 'two'"),
        ("--steps", "5..6..7", "--steps expects integers, got '5..6..7'"),
        ("--hurst", "0.5,", "--hurst expects numbers, got '0.5,'"),
        # compared as an int, never taken to a float
        pytest.param(
            "--steps", f"5,{_PAST_FLOAT}", "reference exponent 8 must exceed every step exponent",
            id="--steps-past-float-range",
        ),
    ],
)
def test_run_rejects_duplicates(flag, value, message, capsys):
    args = {"--steps": "4..5", "--seeds": "1"}
    args[flag] = value
    code = main(
        [
            "run",
            "--problem", "example1",
            "--scheme", "implicit_euler",
            "--ref", "8",
            *(tok for item in args.items() for tok in item),
        ]
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_run_refuses_ill_posed_step_before_any_draw(tmp_path, monkeypatch, capsys):
    # h = 1 on example1 (C_b = 1) fails the implicit gate: exit 2, no file written
    def no_sampling(*_):
        raise AssertionError("an ill-posed study must not sample a path")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "sample_fbm", no_sampling)
    command = "run --problem example1 --scheme implicit_euler --steps 0..2 --ref 5 --out gate"
    assert main(command.split()) == 2
    assert "C_b*h < 1, got C_b=1.0 and h=1.0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, n",
    [
        ("run --problem example1 --scheme implicit_euler --steps 3 --ref 13", 8192),
        ("sample-fbm --hurst 0.5 --n 4097 --seed 0 --out x.csv", 4097),
        # the sampler compares the cap by log2 of the step count
        ("stability --h 1e-300 --out stab", "2^996.5784285"),
        # before FbmConfig takes T/N, which no float holds
        pytest.param(
            f"sample-fbm --hurst 0.5 --n {_PAST_FLOAT} --seed 0 --out x.csv", "2^1024", id="--n-past-float-range"
        ),
    ],
)
def test_grid_cap_refused_before_any_factor(command, n, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    fbm._chol_cache.clear()
    assert main(command.split()) == 2
    assert f"grid has N={n} steps, above the sampler's limit of 4096" in capsys.readouterr().err
    assert not fbm._chol_cache
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, size",
    [
        ("run --problem example1 --scheme implicit_euler --steps 5 --ref 1030", "N=2^1030 steps"),
        ("run --problem example1 --scheme implicit_euler --steps 5 --ref 100000", "N=2^100000 steps"),
        ("run --problem example1 --scheme implicit_euler --steps 5 --ref 1000000000", "N=2^1000000000"),
        pytest.param(
            f"run --problem example1 --scheme implicit_euler --steps 5 --ref {_PAST_FLOAT}",
            f"N=2^{_PAST_FLOAT} steps",
            id="--ref-past-float-range",
        ),
    ],
)
def test_huge_grid_refused_by_size_alone(command, size, tmp_path, monkeypatch, capsys, no_sampling):
    # a study compares the cap with its reference exponent, so 2^ref is never built
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert f"grid has {size}" in err and "above the sampler's limit of 4096" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("T, variance", [("1e308", "inf"), ("5e-324", "0.0")])
def test_sample_fbm_increment_variance_refused(T, variance, tmp_path, capsys, no_sampling):
    out = tmp_path / "x.csv"
    command = ["sample-fbm", "--hurst", "0.75", "--n", "64", "--seed", "0", "--out", str(out), "--T", T]
    assert main(command) == 2
    assert f"error: increment variance h^2H = {variance} for h=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        "sample-fbm --hurst 0.9999999999999999 --n 64 --seed 0 --out x.csv",
        "run --problem example1 --scheme implicit_euler --hurst 0.9999999999999999 "
        "--steps 3..4 --ref 6 --out study",
    ],
)
def test_failing_factor_names_hurst_and_size(command, tmp_path, monkeypatch, capsys):
    # a Hurst parameter this close to 1 makes the increment covariance singular
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert "H=0.9999999999999999 on N=64 steps is not positive definite" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seeds", "99999999999999999999999"),
        ("--seeds", "0..99999999999999999999999"),
        ("--steps", "4..99999999999999999999999"),
    ],
)
def test_count_or_range_too_long_refused(flag, value, capsys, no_sampling):
    # a count or range with more values than a tuple holds is refused by name
    command = "run --problem example1 --scheme implicit_euler --steps 4..5 --ref 8"
    assert main([*command.split(), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} '{value}' gives more than" in err and "values" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--seeds", "6"), ("--seeds", "10..15"), ("--steps", "1..6")],
)
def test_count_or_range_above_the_cap_refused(flag, value, capsys, monkeypatch, no_sampling):
    # a small cap stands in for the real one, so no huge count runs here: a count
    # or range above the cap is refused by name, one at the cap is parsed
    monkeypatch.setattr(cli, "_MAX_VALUES", 5)
    command = "run --problem example1 --scheme implicit_euler --steps 4..5 --ref 8"
    assert main([*command.split(), flag, value]) == 2
    assert f"error: {flag} '{value}' gives more than 5 values" in capsys.readouterr().err
    assert _parse_seeds("5") == _parse_seeds("0..4") == (0, 1, 2, 3, 4)


@pytest.mark.parametrize(
    "command, message",
    [
        ("run --problem example1 --scheme implicit_euler --steps 4 --ref 6 --out /dev/null/x",
         "cannot write /dev/null: Not a directory"),
        ("run --problem example1 --scheme implicit_euler --steps 4 --ref 6 --out file",
         "cannot write file: Not a directory"),
        ("stability --h 0.0625 --out file/stab", "cannot write file: Not a directory"),
        ("probe-local --scheme euler --out folder", "cannot write folder: Is a directory"),
        ("sample-fbm --hurst 0.5 --n 16 --seed 0 --out folder", "cannot write folder: Is a directory"),
        # the largest seed names the study file with the longest name
        pytest.param(
            f"run --problem example1 --scheme implicit_euler --steps 4 --ref 6 --seeds 0,{_PAST_FLOAT} "
            "--out out",
            f"cannot write out/example1_implicit_euler_seed{_PAST_FLOAT}.csv: File name too long",
            id="seed-file-name-too-long",
        ),
    ],
)
def test_impossible_output_refused_before_any_work(
    command, message, tmp_path, monkeypatch, capsys, no_sampling
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    (tmp_path / "folder").mkdir()
    monkeypatch.setattr(harness, "local_error_probe", no_sampling)
    assert main(command.split()) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "folder"]
    assert (tmp_path / "file").read_text() == "" and not list((tmp_path / "folder").iterdir())


def test_os_error_without_a_path_is_not_a_write_error(monkeypatch):
    # only an OSError naming a path is reported as an output that cannot be written
    def broken(*_):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(harness, "local_error_probe", broken)
    with pytest.raises(BrokenPipeError):
        main(["probe-local", "--scheme", "euler"])


def test_stability_command(capsys):
    code = main(["stability", "--h", "0.03125"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("h = 0.03125: forward drift map |1 - 70h| = 1.1875 -> UNSTABLE\n")
    assert "UNSTABLE" in out
    assert "implicit Euler" in out


def test_stability_out_creates_missing_directories(tmp_path, capsys):
    out = tmp_path / "missing" / "stab"
    assert main(["stability", "--h", "0.0625", "--out", str(out)]) == 0
    for name in ("stability_explicit.csv", "stability_implicit.csv"):
        assert (out / name).read_text().startswith("t,y1\n")
    assert f"wrote {out / 'stability_explicit.csv'}" in capsys.readouterr().out


def test_stability_rejects_bad_step(capsys):
    # 0.3 does not divide T; 0 and nan are rejected before any division
    for h in ("0.3", "0", "nan"):
        assert main(["stability", "--h", h]) == 2
        assert "error: step size" in capsys.readouterr().err
    # T/h = 4096.13 does not divide T either, whatever the sampler's cap;
    # T/h = inf is refused with or without noise
    for args, message in [
        (["--h", "0.00024413"], "step size 0.00024413 does not divide the horizon T=1.0"),
        (["--h", "5e-324"], "step size 5e-324 gives no finite number of steps over T=1.0"),
        (["--h", "5e-324", "--zero-noise"], "step size 5e-324 gives no finite number"),
    ]:
        assert main(["stability", *args]) == 2
        assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("h, n", [("1e-300", "2^996.5784285"), ("1e-7", "10000000")])
def test_zero_noise_grid_cap_refused_before_any_allocation(h, n, monkeypatch, capsys, no_sampling):
    # a zero-noise run samples nothing, so stability_demo checks the cap itself
    monkeypatch.setattr(harness, "make_grid", no_sampling)
    assert main(["stability", "--h", h, "--zero-noise"]) == 2
    err = capsys.readouterr().err
    assert f"error: grid has N={n} steps, above the sampler's limit of 4096" in err


def test_probe_local_command(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    code = main(["probe-local", "--scheme", "milstein", "--out", str(out)])
    assert code == 0
    assert "log-log slope" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,error"
    assert len(lines) >= 3


def test_probe_local_choices_follow_probe_table(capsys):
    for scheme in harness._PROBE_SCHEMES:
        assert build_parser().parse_args(["probe-local", "--scheme", scheme]).scheme == scheme
    with pytest.raises(SystemExit):
        main(["probe-local", "--scheme", "heun"])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["probe-local", "--scheme", "euler"],
        ["sample-fbm", "--hurst", "0.75", "--n", "16", "--seed", "3"],
    ],
)
def test_out_file_creates_missing_directories(command, tmp_path, capsys):
    out = tmp_path / "missing" / "nested" / "out.csv"
    assert main([*command, "--out", str(out)]) == 0
    assert out.read_text().startswith(("h,error\n", "t,x1\n"))
    assert f"wrote {out}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, seeds",
    [
        ("3", (0, 1, 2)),
        ("13..13", (13,)),
        ("3..5", (3, 4, 5)),
        ("7,2", (7, 2)),
    ],
)
def test_seeds_count_range_and_list(text, seeds):
    assert _parse_seeds(text) == seeds


def test_run_reruns_one_explicit_seed(tmp_path, capsys):
    args = ["run", "--problem", "example1", "--scheme", "implicit_euler", "--hurst", "0.5"]
    args += ["--steps", "4..5", "--ref", "8"]
    assert main([*args, "--seeds", "2..3", "--out", str(tmp_path / "both")]) == 0
    assert main([*args, "--seeds", "3..3", "--out", str(tmp_path / "one")]) == 0
    assert "1 seed(s)" in capsys.readouterr().out
    name = "example1_implicit_euler_seed3.csv"
    assert sorted(p.name for p in (tmp_path / "one").glob("*_seed*.csv")) == [name]
    assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "both" / name).read_bytes()


# Edge values of the CLI grammar.  Every command built from them either is
# refused or runs a small problem: `--ref` is at most 8 or above the cap of
# 12, `--n` at most 64 or above 4096, `--h` gives at most 64 steps or is
# refused, and a count or range of seeds or steps has at most 5 values or
# more than 2^63.
_HUGE = "99999999999999999999999"  # 23 digits: above 2^63, within float range
_INTS = ["0", "3", "-1", _HUGE, "-" + _HUGE, _PAST_FLOAT, "-" + _PAST_FLOAT]
_FLOATS = [
    "0", "-0.0", "-1", "inf", "-inf", "nan", "5e-324", "2.2250738585072014e-308",
    "1e-308", "1e308", "-1e308", "0.25", "0.5", "0.03125", _HUGE,
]
_MALFORMED = ["", ",", "1,", "..", "1..", "..3", "a", "1..2..3", "0.5,x", "1.5"]


def _int_list():
    one = st.sampled_from(_INTS)
    return st.one_of(
        one,
        st.builds(lambda lo, hi: f"{lo}..{hi}", one, one),
        st.lists(one, min_size=2, max_size=3).map(",".join),
        st.sampled_from(_MALFORMED),
    )


def _float_list():
    one = st.sampled_from(_FLOATS)
    return st.one_of(st.lists(one, min_size=1, max_size=2).map(",".join), st.sampled_from(_MALFORMED))


def _command(name, base, edges):
    """argv for ``name``: a command that runs, drawn from ``base``, with up
    to three of its flags set to edge values (None drops the flag, True
    passes it bare)."""

    def argv(flags):
        return [name, *(k if v is True else f"{k}={v}" for k, v in flags.items() if v is not None)]

    replaced = st.sets(st.sampled_from(sorted(edges)), max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({k: edges[k] for k in keys})
    )
    return st.tuples(base, replaced).map(lambda flags: argv({**flags[0], **flags[1]}))


_VALID_STUDIES = [
    (problem, scheme)
    for problem in sorted(harness.EXAMPLES)
    for scheme in (
        harness.ADDITIVE_SCHEMES
        if harness.example_problem(problem)[0].additive
        else harness.MULTIPLICATIVE_SCHEMES
    )
]
_RUN = _command(
    "run",
    st.sampled_from(_VALID_STUDIES).map(
        lambda study: {"--problem": study[0], "--scheme": study[1], "--steps": "2..3", "--ref": "6", "--seeds": "2"}
    ),
    {
        "--scheme": st.sampled_from([*harness.ADDITIVE_SCHEMES, *harness.MULTIPLICATIVE_SCHEMES, "euler", None]),
        "--steps": _int_list(),
        "--ref": st.sampled_from(
            ["-1", "0", "1", "8", "13", "1030", _HUGE, "-" + _HUGE, _PAST_FLOAT, "-" + _PAST_FLOAT]
        ),
        "--seeds": _int_list(),
        "--hurst": _float_list(),
        "--out": st.just("out"),
    },
)
_ARGV = st.one_of(
    _RUN,
    _RUN,
    _command(
        "stability",
        st.fixed_dictionaries({"--h": st.sampled_from(["0.0625", "0.03125", "0.015625"])}),
        {
            "--h": st.sampled_from(_FLOATS),
            "--seed": st.sampled_from(_INTS),
            "--zero-noise": st.just(True),
            "--out": st.just("out"),
        },
    ),
    _command(
        "probe-local",
        st.fixed_dictionaries({"--scheme": st.sampled_from(sorted(harness._PROBE_SCHEMES))}),
        {"--scheme": st.sampled_from(["heun", None]), "--out": st.just("probe.csv")},
    ),
    _command(
        "sample-fbm",
        st.fixed_dictionaries(
            {
                "--hurst": st.sampled_from(["0.5", "0.3,0.7"]),
                "--n": st.just("64"),
                "--seed": st.just("0"),
                "--out": st.just("path.csv"),
            }
        ),
        {
            "--hurst": _float_list(),
            "--n": st.sampled_from(
                ["0", "1", "4097", "-1", _HUGE, "-" + _HUGE, _PAST_FLOAT, "-" + _PAST_FLOAT]
            ),
            "--seed": st.sampled_from(_INTS),
            "--T": st.sampled_from(_FLOATS),
            "--out": st.none(),
        },
    ),
)


@pytest.fixture
def counted_sampling(monkeypatch):
    """The seeds of the driver paths commands sample, each recorded once the
    sampler returns it; unlike ``no_sampling``, the paths are still drawn.
    A sampler that refuses its config (such as a grid above the cap) has
    drawn no path."""
    draws, sample = [], harness.sample_fbm

    def counted(config):
        path = sample(config)
        draws.append(config.seed)
        return path

    monkeypatch.setattr(harness, "sample_fbm", counted)
    monkeypatch.setattr(cli, "sample_fbm", counted)
    return draws


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
def test_property_every_command_exits_0_or_2(argv, tmp_path, monkeypatch, capsys, counted_sampling):
    # whatever the command line, the CLI runs (0) or refuses with a message (2),
    # and refuses before it samples a path: never a traceback
    monkeypatch.chdir(tmp_path)
    counted_sampling.clear()
    try:
        code = main(argv)
    except SystemExit as exit:  # argparse refuses a malformed command line with status 2
        code = exit.code
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert code == 0 or not counted_sampling, err
