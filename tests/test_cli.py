"""End-to-end runs of the command line interface."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from rigidconn import chevalley
from rigidconn.cli import build_parser, main, parse_group
from rigidconn.errors import ValidationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- matrix

def test_matrix_text_small_sym(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--group", "sl2",
                           "--rep", "sym:1")
    assert code == 0
    lines = out.splitlines()
    assert "[0  t]" in lines
    assert "[1  0]" in lines


def test_matrix_json_sl4(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--group", "sl", "--rank", "4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "v1"
    assert payload["job"]["group"] == "A3"
    assert payload["job"]["matrix_family"] == "sl4"
    conn = payload["connection"]
    assert conn["dimension"] == 4
    assert conn["entries"]["1,0"] == {"0": "1"}
    assert conn["entries"]["0,3"] == {"1": "1"}


def test_matrix_g2_seven(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--group", "g2",
                           "--rep", "dim7")
    assert code == 0
    assert "(dimension 7, h = 6)" in out


# ------------------------------------------------------------- scalar

def test_scalar_renderings(capsys):
    for argv, expected in [
        (("scalar", "--group", "sl5"), "theta^5 + t"),
        (("scalar", "--group", "sp4"), "theta^4 - t"),
        (("scalar", "--group", "so5"), "theta^5 - 2*t*theta - t"),
        (("scalar", "--group", "g2", "--rep", "dim7"),
         "theta^7 - 2*t*theta - t"),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert expected in out


def test_scalar_json(capsys):
    code, out, _ = run_cli(capsys, "scalar", "--group", "sl3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rendered"] == "theta^3 + t"
    assert "theta_coefficients" in payload["operator"]


# --------------------------------------------------------- cohomology

def test_cohomology_e6_adjoint(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--group", "e6",
                           "--rep", "adjoint")
    assert code == 0
    assert "h0 0, h1 0, h2 0" in out
    assert "folded E6 -> F4; V restricts as 52 + 26" in out


def test_cohomology_json_deterministic(capsys):
    argv = ("cohomology", "--group", "a2", "--rep", "adjoint",
            "--format", "json")
    code1, first, _ = run_cli(capsys, *argv)
    assert code1 == 0
    code2, second, _ = run_cli(capsys, *argv)
    assert code2 == 0
    assert first == second
    payload = json.loads(first)
    report = payload["report"]
    assert report["irr"] == 2
    assert report["h1"] == 0
    assert report["galois_group"] == "A2"


def test_cohomology_so3_standard(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--group", "so3",
                           "--rep", "standard", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["job"]["highest"] == [2]
    assert payload["report"]["lambda"] == [2]
    assert payload["report"]["h1"] == 0


def test_cohomology_needs_no_home_and_writes_nothing(tmp_path):
    """cohomology computes in memory: with HOME below a regular file it
    prints what it prints with a usable HOME, and neither run creates a
    file.  The removed --cache-dir is an unknown option (exit 2)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    blocker = tmp_path / "file"
    blocker.write_text("")
    home = tmp_path / "home"
    home.mkdir()

    def run(home_dir, *extra):
        env = dict(os.environ, PYTHONPATH=src, HOME=str(home_dir))
        return subprocess.run([sys.executable, "-m", "rigidconn",
                               "cohomology", "--group", "a2",
                               "--format", "json", *extra],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=60)

    usual, blocked = run(home), run(blocker / "home")
    assert (usual.returncode, usual.stderr) == (0, "")
    assert (blocked.returncode, blocked.stderr) == (0, "")
    assert blocked.stdout == usual.stdout
    assert json.loads(usual.stdout)["report"]["h1"] == 0
    flag = run(home, "--cache-dir", str(tmp_path / "cache"))
    assert (flag.returncode, flag.stdout) == (2, "")
    assert "unrecognized arguments: --cache-dir" in flag.stderr
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["file", "home"]


# ----------------------------------------------------------- rigidity

def test_rigidity_so5(capsys):
    code, out, _ = run_cli(capsys, "rigidity", "--group", "so5",
                           "--trunc", "30")
    assert code == 0
    assert "h1 of the middle extension: 0" in out
    assert "rigid: yes" in out


def test_rigidity_sym5(capsys):
    code, out, _ = run_cli(capsys, "rigidity", "--group", "sl2",
                           "--rep", "sym:5", "--trunc", "60",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == 2
    assert payload["passed"] is False
    assert payload["stabilized"] is True
    dims = payload["dimensions"]
    assert dims["two_sided"] == dims["taylor0"] + dims["taylor_inf"] + 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,canonical,spelling", [
    (("matrix", "--group", "sl2"), "sym:2", " SYM:02 "),
    (("matrix", "--group", "sl3"), "standard", "Standard "),
    (("scalar", "--group", "sl2"), "sym:3", "Sym:+003"),
    (("rigidity", "--group", "sl2", "--trunc", "10"), "sym:1", "sym:01"),
    (("cohomology", "--group", "e6"), "fund:1", " FUND:01 "),
    (("cohomology", "--group", "b3"), "1,0,1", "01,-0,001"),
    (("cohomology", "--group", "g2"), "adjoint", "ADJOINT"),
], ids=["matrix", "matrix-standard", "scalar", "rigidity", "fund",
        "coordinates", "adjoint"])
def test_job_echoes_the_canonical_rep(capsys, fmt, argv, canonical,
                                      spelling):
    """A --rep spelled with spaces, upper case or leading zeros prints
    what its canonical spelling prints, job echo included."""
    runs = [run_cli(capsys, *argv, "--rep", rep, "--format", fmt)
            for rep in (canonical, spelling)]
    assert runs[0][0] == 0
    assert runs[1] == runs[0]
    if fmt == "json":
        assert json.loads(runs[1][1])["job"]["rep"] == canonical


# --------------------------------------------------------- subregular

def test_subregular_table_output(capsys):
    code, out, _ = run_cli(capsys, "subregular", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 5
    assert payload["rows"][0] == {"group": "G2", "m": 3, "d": 3, "orbits": 4,
                                  "F": "F(3)", "galois_group": "SL3"}
    code, text, _ = run_cli(capsys, "subregular")
    assert code == 0
    assert text.splitlines()[0].startswith("group")
    assert any(line.startswith("E8") for line in text.splitlines())


# ---------------------------------------------------------------- kac

def test_kac_small_window(capsys):
    code, out, _ = run_cli(capsys, "kac", "--group", "a1", "--depth", "4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_dims"] == [1, 0, 1, 0]
    assert payload["c_dims"] == [1, 1, 1, 1]
    assert payload["heisenberg_nondegenerate"] is True


def test_kac_default_depth(capsys):
    code, out, _ = run_cli(capsys, "kac", "--group", "b2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["job"]["depth"] == 8
    assert payload["a_dims"] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert payload["c_dims"] == [2] * 8


def test_kac_builds_one_window(capsys, monkeypatch):
    """The Heisenberg check reads the window the slice dimensions came
    from, so each a_n with 1 <= |n| <= depth is one kernel."""
    kernels = []

    def counted(m):
        kernels.append(len(m))
        return nullspace(m)

    nullspace = chevalley.nullspace
    monkeypatch.setattr(chevalley, "nullspace", counted)
    code, out, _ = run_cli(capsys, "kac", "--group", "d4", "--depth", "12",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["heisenberg_nondegenerate"] is True
    assert len(kernels) == 24


def test_kac_depth_zero_is_rejected(capsys):
    """--depth 0 is a depth below h, not a request for the default."""
    code, out, err = run_cli(capsys, "kac", "--group", "b2", "--depth", "0")
    assert code == 2
    assert out == ""
    assert "window depth 0 below the Coxeter number 4" in err


# --------------------------------------------------------- exit codes

def test_bad_group_is_a_validation_error(capsys):
    code, _, err = run_cli(capsys, "matrix", "--group", "zz9")
    assert code == 2
    assert err.startswith("error:")


def test_wrong_coordinate_count(capsys):
    code, _, err = run_cli(capsys, "cohomology", "--group", "a2",
                           "--rep", "1,0,0")
    assert code == 2
    assert "coordinates" in err


def test_sym_needs_sl2(capsys):
    code, _, _ = run_cli(capsys, "scalar", "--group", "sl3",
                         "--rep", "sym:2")
    assert code == 2


@pytest.mark.parametrize("group,rep,message", [
    ("sl3", "dim7", "error: --rep dim7 is the G2 case only"),
    ("b2", "dim7", "error: --rep dim7 is the G2 case only"),
    ("sl3", "sym:2", "error: --rep sym:k needs an SL2 group token"),
    ("g2", "sym:2", "error: --rep sym:k needs an SL2 group token"),
])
def test_rep_group_mismatch_same_message(capsys, group, rep, message):
    """The matrix-level and the weight-level commands read --rep alike."""
    for command in ("matrix", "cohomology"):
        code, out, err = run_cli(capsys, command, "--group", group,
                                 "--rep", rep)
        assert (code, out, err) == (2, "", message + "\n")


def test_truncation_floor_message(capsys):
    """The floor message names the floor only."""
    code, out, err = run_cli(capsys, "rigidity", "--group", "sl2",
                             "--trunc", "0")
    assert code == 2 and out == ""
    assert err == ("error: truncation 0 is below the floor 8 for "
                   "sl2 standard\n")


def test_rank_conflict(capsys):
    code, _, _ = run_cli(capsys, "matrix", "--group", "sl4",
                         "--rank", "5")
    assert code == 2


def test_exceptional_group_tokens():
    for token, type_label, rank in [("g2", "G", 2), ("F4", "F", 4),
                                    (" e6 ", "E", 6), ("e7", "E", 7),
                                    ("e8", "E", 8)]:
        for given in (None, rank):
            group = parse_group(token, given)
            assert ((group.family, group.type_label, group.rank, group.size)
                    == (None, type_label, rank, None))
        with pytest.raises(ValidationError) as exc:
            parse_group(token, rank + 1)
        assert str(exc.value) == ("group %r conflicts with --rank %d"
                                  % (token, rank + 1))


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "rigidconn", "scalar",
                           "--group", "so7"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "theta^7 - 2*t*theta - t" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["matrix", "--group", "sl" + "1" * 5000],
    ["matrix", "--group", "a" + "1" * 5000],
    ["cohomology", "--group", "a2", "--rep", "1," + "1" * 5000]],
    ids=["sl<N>", "a<N>", "rep 1,<N>"])
def test_overlong_integer_exits_2(tmp_path, argv):
    """int() refuses more than 4,300 digits, and that limit stays on for
    input: each job ends at once with exit 2 and one error line, before
    anything is built."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, HOME=str(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "rigidconn"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.endswith("is not an integer of at most 4300 digits\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["cohomology", "--group", "e6", "--rep", "adjoint", "--format", "json"],
    ["subregular"]])
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_141_without_traceback(tmp_path, argv,
                                                   unbuffered):
    """The reader of stdout is gone before the report is written, as in
    ``rigidconn cohomology ... | head -c 20``.  With buffered stdout the
    error would come from the interpreter's final flush."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered,
               HOME=str(tmp_path))
    proc = subprocess.Popen([sys.executable, "-m", "rigidconn"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert os.listdir(tmp_path) == []


# ------------------------------------------------------------- README

# options the README names for perfbench/run.py and for pip
_OTHER_TOOLS = {"--workload", "--seed", "--seconds", "--no-build-isolation",
                "--hypothesis-seed"}


def test_readme_and_parser_name_the_same_options():
    """Every option of every subcommand is named in the README, and every
    rigidconn option the README names exists."""
    sub, = [action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)]
    options = {opt for sp in sub.choices.values() for action in sp._actions
               if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings}
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", fh.read()))
    assert options - named == set()
    assert named - _OTHER_TOOLS - options == set()
