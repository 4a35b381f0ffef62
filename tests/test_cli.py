import pytest

from roughtaylor import cli, fbm, harness
from roughtaylor.cli import _parse_seeds, build_parser, main


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
    ],
)
def test_huge_grid_refused_by_size_alone(command, size, tmp_path, monkeypatch, capsys, no_sampling):
    # a study compares the cap with its reference exponent, so 2^ref is never built
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert f"grid has {size}" in err and "above the sampler's limit of 4096" in err
    assert not list(tmp_path.iterdir())


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
