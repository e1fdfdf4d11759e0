"""Report serialization and the command-line entry point."""

import json
import os
import subprocess
import sys

import pytest

from sccckit import cli, from_json, run_suite, fdhilb, suites
from sccckit.cli import build_parser, main
from sccckit.report import CheckResult, VerificationReport
from sccckit.errors import InvariantViolation


def small_report():
    return run_suite("born", fdhilb(), trials=5, seed=1, max_dim=2)


def test_report_round_trips_through_json():
    rep = small_report()
    again = from_json(rep.to_json())
    assert again.to_dict() == rep.to_dict()
    assert again.schema == 1


def test_report_text_mentions_every_check():
    rep = small_report()
    text = rep.to_text()
    for r in rep.results:
        assert r.check_name in text


def test_report_counts_and_ok():
    rep = small_report()
    counts = rep.counts()
    assert counts["fail"] == 0
    assert sum(counts.values()) == len(rep.results)
    assert rep.ok


def test_empty_report_is_valid():
    rep = VerificationReport(suite="born", model="fdhilb", seed=0,
                             tolerance=1e-9, trials=0, results=[])
    assert rep.ok
    assert from_json(rep.to_json()).to_dict() == rep.to_dict()


def test_failures_must_carry_witnesses():
    with pytest.raises(InvariantViolation):
        CheckResult("x", "law", "fail", None)
    with pytest.raises(InvariantViolation):
        CheckResult("x", "law", "meh", {})


def test_cli_verify_runs_green(capsys):
    rc = main(["verify", "sccc", "--model", "fdhilb", "--trials", "5",
               "--max-dim", "3", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite=sccc" in out and "fail" in out  # the counts line


def test_cli_text_report_ends_with_one_newline(capsys):
    main(["verify", "born", "--model", "rel", "--trials", "3", "--max-dim", "2"])
    out = capsys.readouterr().out
    assert out.endswith("expected-fail\n") and not out.endswith("\n\n")


def test_cli_json_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "wproj", "--model", "fdhilb", "--trials", "5",
            "--max-dim", "2", "--seed", "3", "--json"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    assert parsed["schema"] == 1 and parsed["suite"] == "wproj"


def test_cli_json_to_stdout(capsys):
    rc = main(["verify", "born", "--model", "rel", "--trials", "4",
               "--max-dim", "2", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    rep = from_json(out)
    assert rep.model == "rel" and rep.ok


def test_cli_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SCCCKIT_SEED", "42")
    assert main(["verify", "born", "--trials", "4", "--max-dim", "2",
                 "--json"]) == 0
    seeded = json.loads(capsys.readouterr().out)
    assert seeded["seed"] == 42


def test_cli_rejects_non_integer_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SCCCKIT_SEED", "banana")
    assert main(["verify", "born", "--trials", "4", "--max-dim", "2"]) == 2
    assert "SCCCKIT_SEED" in capsys.readouterr().err
    # an explicit --seed does not read the environment
    assert main(["verify", "born", "--trials", "4", "--max-dim", "2",
                 "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3


NEGATIVE_SEED_RUNS = [["verify", "sccc", "--trials", "1", "--max-dim", "1"],
                      ["verify", "ortho", "--trials", "1", "--max-dim", "1"],
                      ["protocol", "teleport"]]


@pytest.mark.parametrize("argv", NEGATIVE_SEED_RUNS, ids=" ".join)
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_cli_refuses_a_negative_seed_naming_the_flag(capsys, argv, seed):
    assert main(argv + ["--seed", seed]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and seed in err


@pytest.mark.parametrize("argv", NEGATIVE_SEED_RUNS, ids=" ".join)
def test_cli_refuses_a_negative_env_seed_naming_it(monkeypatch, capsys, argv):
    monkeypatch.setenv("SCCCKIT_SEED", "-3")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "SCCCKIT_SEED" in err and "-3" in err
    # an explicit non-negative --seed does not read the environment
    assert main(argv + ["--seed", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_rejects_trials_below_one(capsys, trials):
    assert main(["verify", "sccc", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("max_dim", ["0", "-1"])
def test_cli_rejects_max_dim_below_one(capsys, max_dim):
    assert main(["verify", "ortho", "--max-dim", max_dim]) == 2
    assert "--max-dim" in capsys.readouterr().err


def test_cli_report_echoes_effective_tolerance(capsys):
    args = ["verify", "born", "--trials", "2", "--max-dim", "2", "--json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-9
    assert main(args + ["--tolerance", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-6


@pytest.mark.parametrize("suite", ["sccc", "wproj", "prep-state", "ortho", "equivalence"])
def test_cli_refuses_nu_outside_born(capsys, suite):
    # even the default value: a report cannot say it honoured a flag it never read
    assert main(["verify", suite, "--model", "rel", "--trials", "2", "--nu", "1"]) == 2
    captured = capsys.readouterr()
    assert "--nu" in captured.err
    assert captured.out == ""


def test_cli_born_reads_a_missing_nu_as_one(capsys):
    argv = ["verify", "born", "--model", "rel", "--trials", "2", "--max-dim", "2", "--json"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--nu", "1"]) == 0
    assert capsys.readouterr().out == default


def test_cli_rejects_unknown_model(capsys):
    assert main(["verify", "sccc", "--model", "nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err
    assert "--model" in err


def test_cli_runs_plain_suites_on_the_quotient(capsys):
    assert main(["verify", "sccc", "--model", "wproj:fdhilb"]) == 0
    assert "model=wproj:fdhilb" in capsys.readouterr().out


def test_cli_reports_failures_in_exit_code(monkeypatch, capsys):
    bad = VerificationReport(
        suite="born", model="fdhilb", seed=0, tolerance=1e-9, trials=1,
        results=[CheckResult("broken", "law", "fail", {"why": "forced"})])
    monkeypatch.setattr("sccckit.suites.run_suite",
                        lambda *a, **kw: bad)
    assert main(["verify", "born"]) == 1


def test_cli_teleport_with_custom_state(capsys):
    rc = main(["protocol", "teleport", "--state", "[[0,0],[1,0]]", "--json"])
    assert rc == 0
    rep = from_json(capsys.readouterr().out)
    assert rep.suite == "teleport" and rep.ok


def test_cli_teleport_rejects_bad_state(capsys):
    for state in ("[[1,0]]", "not json", "[[NaN,0],[1,0]]",
                  "[[1,0],[0,Infinity]]", "[[0,0],[0,0]]",
                  f"[[1{'0' * 400},0],[0,0]]", "[" * 100_000 + "]" * 100_000):
        assert main(["protocol", "teleport", "--state", state]) == 2, state
        assert "--state" in capsys.readouterr().err, state


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sccckit", "verify", "born", "--model", "rel",
         "--trials", "3", "--max-dim", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "suite=born" in proc.stdout


def test_module_entry_point_teleport_smoke():
    # the protocol is imported only when the command runs, and only a fresh
    # process runs that import for real
    proc = subprocess.run(
        [sys.executable, "-m", "sccckit", "protocol", "teleport", "--seed", "1",
         "--json", "-"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = from_json(proc.stdout)
    assert rep.suite == "teleport" and rep.ok


def test_the_parsers_suite_names_are_the_tables():
    assert cli._SUITES == suites.SUITE_NAMES
    for name in suites.SUITE_NAMES:
        assert build_parser().parse_args(["verify", name]).suite == name


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("form", [[], ["--json", "-"], ["--json", "PATH"]],
                         ids=["text", "json-stdout", "json-file"])
def test_a_closed_stdout_keeps_the_verdict_and_the_json_file(tmp_path, unbuffered, form):
    argv = ["verify", "prep-state", "--model", "weights", "--seed", "1", "--trials", "5"]
    want = tmp_path / "want.json"
    code = main(argv + ["--json", str(want)])
    got = tmp_path / "got.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the run writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sccckit", *argv,
             *[str(got) if a == "PATH" else a for a in form]],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")
    if "PATH" in form:
        assert got.read_text() == want.read_text()


def test_cli_teleport_refuses_non_complex_model(capsys):
    for model in ("rel", "weights", "wproj:rel"):
        assert main(["protocol", "teleport", "--model", model]) == 2, model
        assert "--model" in capsys.readouterr().err, model
    assert main(["protocol", "teleport", "--model", "wproj:fdhilb"]) == 0


@pytest.mark.parametrize("suite", ["sccc", "ortho"])
def test_cli_runs_sccc_and_ortho_on_the_quotient(capsys, suite):
    assert main(["verify", suite, "--model", "wproj:rel"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_library_error_inside_a_run_exits_one(monkeypatch, capsys):
    def broken(*a, **kw):
        raise InvariantViolation("forced defect")
    monkeypatch.setattr("sccckit.suites.run_suite", broken)
    assert main(["verify", "born"]) == 1
    err = capsys.readouterr().err
    assert "InvariantViolation" in err and "forced defect" in err


@pytest.mark.parametrize("tolerance", ["-1", "-1e-9", "nan", "inf", "-inf"])
def test_cli_rejects_bad_tolerance(capsys, tolerance):
    assert main(["verify", "sccc", "--model", "rel", "--trials", "2",
                 f"--tolerance={tolerance}"]) == 2
    assert "--tolerance" in capsys.readouterr().err


def test_cli_accepts_zero_tolerance(capsys):
    assert main(["verify", "prep-state", "--model", "rel", "--trials", "2",
                 "--tolerance", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0


@pytest.mark.parametrize("flag", [["--trials", "7"], ["--tolerance", "0.5"],
                                  ["--max-dim", "9"]])
def test_cli_teleport_has_no_verify_only_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "teleport"] + flag)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag[0] in err
    # the teleport parser refuses them under its own usage line
    assert err.startswith("usage: sccckit protocol teleport ")
    assert "sccckit protocol teleport: error: unrecognized arguments" in err


@pytest.mark.parametrize("selector", ["wproj:nope", "wproj:"])
def test_cli_rejects_unknown_quotient_base(capsys, selector):
    assert main(["verify", "wproj", "--model", selector]) == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "born", "--model", "wproj:wproj:fdhilb", "--trials", "2",
     "--max-dim", "2"],
    ["verify", "wproj", "--model", "wproj:wproj:rel"],
    ["protocol", "teleport", "--model", "wproj:wproj:fdhilb"],
])
def test_cli_refuses_nested_quotient(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--model" in captured.err
    assert captured.out == ""


def test_cli_teleport_refuses_weights_outside_the_float_range(capsys):
    # |1e200|^2 overflows to inf, so every branch comparison was NaN (exit 1);
    # |1e-200|^2 underflows to 0, so every comparison held as 0 = 0 (exit 0)
    for state in ("[[0,0],[1e200,0]]", "[[1e-200,0],[0,0]]", "[[1e-160,0],[0,0]]"):
        assert main(["protocol", "teleport", "--state", state]) == 2, state
        assert "--state" in capsys.readouterr().err, state


def test_cli_teleport_runs_weights_near_the_float_limits(capsys):
    for state in ("[[1.3e154,0],[0,0]]", "[[1.5e-154,0],[0,0]]"):
        assert main(["protocol", "teleport", "--state", state]) == 0, state


def test_cli_refuses_a_directory_as_json_path(tmp_path, capsys):
    assert main(["verify", "sccc", "--model", "rel", "--trials", "2",
                 "--json", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "--json" in captured.err
    assert captured.out == ""


def test_cli_refuses_an_empty_json_path(tmp_path, monkeypatch, capsys):
    # an empty PATH once ran the whole table, printed the text report and
    # then died opening "" (exit 1)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "equivalence", "--model", "fdhilb", "--trials", "2",
                 "--json", ""]) == 2
    captured = capsys.readouterr()
    assert "--json" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_refuses_a_json_path_in_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert main(["protocol", "teleport", "--json", str(target)]) == 2
    captured = capsys.readouterr()
    assert "--json" in captured.err
    assert captured.out == ""
    assert not target.parent.exists()


def test_cli_parser_is_reused_without_carrying_state(capsys):
    assert build_parser() is build_parser()
    base = ["verify", "born", "--model", "wproj:fdhilb", "--trials", "3", "--json", "-"]
    assert main(base[:4] + ["--nu", "2", "--tolerance", "1e-6"] + base[4:]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["tolerance"] == 1e-6
    # the flags of the first call do not leak into the second
    assert main(base) == 0
    warm = capsys.readouterr().out
    fresh = subprocess.run([sys.executable, "-m", "sccckit", *base],
                           capture_output=True, text=True, timeout=300)
    assert fresh.returncode == 0, fresh.stderr
    assert warm == fresh.stdout
    assert json.loads(warm)["tolerance"] == 1e-9
    # and verify-only flags stay refused on protocol after a verify run
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "teleport", "--trials", "3"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


# -- each command is parsed by its own parser --------------------------------

PARSED = [
    ["verify", "sccc"],
    ["verify", "wproj", "--model", "wproj:rel", "--seed", "3"],
    ["verify", "prep-state", "--trials", "3", "--json"],
    ["verify", "ortho", "--max-dim", "2", "--json", "-"],
    ["verify", "born", "--nu", "1/2", "--tolerance", "1e-6"],
    ["verify", "equivalence", "--json", "r.json"],
    ["verify", "--model", "rel", "--trials", "3", "sccc"],
    ["verify", "sccc", "--mod", "rel", "--tri", "2", "--js"],
    ["verify", "sccc", "--seed=4", "--model=weights", "--json=-"],
    ["verify", "--", "born"],
    ["verify", "sccc", "--seed", "-1"],
    ["protocol", "teleport"],
    ["protocol", "teleport", "--state", "[[1,0],[0,0]]", "--seed", "5", "--json", "-"],
    ["protocol", "teleport", "--st", "[[0,0],[1,0]]", "--mod", "wproj:fdhilb"],
    ["protocol", "teleport", "--json"],
]


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_a_command_parses_as_the_tree_does(argv):
    assert cli._parse(list(argv)) == build_parser().parse_args(argv)


def _exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"], ["protocol", "-h"],
                                  ["protocol", "teleport", "-h"],
                                  ["verify", "sccc", "--help"]], ids=" ".join)
def test_help_at_every_level_is_the_trees(capsys, argv):
    code, out, err = _exit_of(capsys, main, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: sccckit")
    assert (code, out, err) == _exit_of(capsys, build_parser().parse_args, argv)


REFUSED = [
    ([], "command"),
    (["nope"], "nope"),
    (["verif", "sccc"], "verif"),
    (["--model", "rel", "verify", "sccc"], "rel"),
    (["protocol"], "protocol"),
    (["protocol", "tele"], "tele"),
    (["verify"], "suite"),
    (["verify", "nope"], "nope"),
    (["verify", "sccc", "--trials", "x"], "x"),
    (["verify", "sccc", "--trials"], "--trials"),
    (["verify", "born", "--nu", "3"], "3"),
    (["protocol", "teleport", "--seed", "x"], "x"),
    (["protocol", "teleport", "--model"], "--model"),
    (["verify", "sccc", "--bogus"], "--bogus"),
    (["verify", "sccc", "extra"], "extra"),
    (["protocol", "teleport", "--", "x"], "x"),
]


@pytest.mark.parametrize("argv,word", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_a_refusal_exits_two_and_names_the_word(capsys, argv, word):
    code, out, err = _exit_of(capsys, main, argv)
    assert (code, out) == (2, "")
    assert word in err.splitlines()[-1]
    tree = _exit_of(capsys, build_parser().parse_args, argv)
    if "unrecognized arguments" in err:
        # the command's own parser reports them, under its own usage line
        prog = "sccckit " + " ".join(argv[:1 if argv[0] == "verify" else 2])
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1] == tree[2].splitlines()[-1].replace(
            "sccckit:", f"{prog}:")
    else:
        assert (code, out, err) == tree


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sccckit", "verify", "born", "--model", "rel",
                                      "--trials", "2", "--max-dim", "2", "--json"])
    assert main() == 0
    assert from_json(capsys.readouterr().out).model == "rel"
    monkeypatch.setattr(sys, "argv", ["sccckit", "protocol", "teleport", "--seed", "x"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
