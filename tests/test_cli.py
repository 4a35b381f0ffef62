import pytest

from roughtaylor import harness
from roughtaylor.cli import _parse_seeds, build_parser, main


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


def test_stability_command(capsys):
    code = main(["stability", "--h", "0.03125"])
    assert code == 0
    out = capsys.readouterr().out
    assert "UNSTABLE" in out
    assert "implicit Euler" in out


def test_stability_rejects_bad_step(capsys):
    # 0.3 does not divide T; 0 and nan are rejected before any division
    for h in ("0.3", "0", "nan"):
        assert main(["stability", "--h", h]) == 2
        assert "error: step size" in capsys.readouterr().err


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
