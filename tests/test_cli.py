import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conwaykit
from conwaykit import cli
from conwaykit.cli import main
from conwaykit.diagram import linking_number, parse_pd
from conwaykit.poly import MAX_EXPONENT, format_poly, parse_poly

TREFOIL = "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"
T25 = "X(2,8,3,7);X(4,10,5,9);X(6,2,7,1);X(8,4,9,3);X(10,6,1,5)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_conway_unknot(capsys):
    code, out, err = run(capsys, "conway", "--pd", "O")
    assert (code, out) == (0, "1\n")


def test_conway_trefoil(capsys):
    code, out, _ = run(capsys, "conway", "--pd", TREFOIL)
    assert (code, out) == (0, "1+z^2\n")


def test_a2_trefoil(capsys):
    code, out, _ = run(capsys, "a2", "--pd", TREFOIL)
    assert (code, out) == (0, "1\n")


def test_conway_json(capsys):
    code, out, _ = run(capsys, "conway", "--pd", "O", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"command": "conway", "input": "O", "result": "1"}


def test_torus(capsys):
    code, out, _ = run(capsys, "torus", "--m", "3")
    assert (code, out) == (0, "1+z^2\n")
    code, out, _ = run(capsys, "torus", "--m", "6", "--format", "json")
    assert json.loads(out)["result"] == "3z+4z^3+z^5"


def test_torus_edge_values(capsys):
    # the recurrence extends to m = 0 (the two-component unlink)
    code, out, _ = run(capsys, "torus", "--m", "0")
    assert (code, out) == (0, "0\n")
    code, _, err = run(capsys, "torus", "--m", "-1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        # the largest coefficients of m = 21000 have more digits than Python
        # converts to text by default; the closed form reaches that in well
        # under a second
        (["torus", "--m", "21000"], "over {limit} digits"),
        # degrees above MAX_EXPONENT, which parse_poly could not read back,
        # are refused before any coefficient list is built
        (["torus", "--m", str(10**12)], "exponent conwaykit reads back, {bound}"),
        (["kn", "--n", str(10**12)], "exponent conwaykit reads back, {bound}"),
        (["kn", "--n", "25000"], "exponent conwaykit reads back, {bound}"),
        # kn's digit pre-check refuses before the product
        (["kn", "--n", "6000"], "over {limit} digits"),
    ],
    ids=["torus-21000", "torus-10^12", "kn-10^12", "kn-25000", "kn-6000"],
)
def test_torus_result_too_long_to_print_is_a_usage_error(capsys, argv, names):
    # the refusal is one line, not a traceback, naming the bound or the
    # limit and not the Python call a command-line user cannot make
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert names.format(limit=sys.get_int_max_str_digits(), bound=MAX_EXPONENT) in err
    assert "set_int_max_str_digits" not in err


def test_refusals_come_before_any_computation(capsys, monkeypatch):
    def computed(*_):
        raise AssertionError("computed a result it then refused")

    monkeypatch.setattr(cli, "conway_torus2", computed)
    monkeypatch.setattr(cli, "conway_Kn", computed)
    for argv in (
        ["torus", "--m", "21000"],
        ["torus", "--m", "100001"],
        ["torus", "--m", str(10**12)],
        ["kn", "--n", "6000"],
        ["kn", "--n", "25000"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_kn_pre_check_refuses_only_what_cannot_print():
    # under a limit of 640 digits, kn --n 767 prints and n = 770 is the
    # first the pre-check refuses (768 and 769 compute, then format_poly
    # refuses them); torus --m 3071 prints, 3072 to 3079 compute and get
    # format_poly's refusal, and 3080 is the first the pre-check refuses
    src = str(Path(conwaykit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="640")

    def cli_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "conwaykit.cli", *argv],
            capture_output=True, text=True, env=env,
        )

    refused = "error: cannot print the result: a coefficient has over 640 digits\n"
    for argv in (["kn", "--n", "770"], ["torus", "--m", "3080"]):
        started = time.perf_counter()
        proc = cli_run(*argv)
        assert time.perf_counter() - started < 1.0, argv
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", refused), argv
    proc = cli_run("torus", "--m", "3072")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot print the coefficient of z^")
    limit = sys.get_int_max_str_digits()
    for argv in (["kn", "--n", "767"], ["torus", "--m", "3071"]):
        proc = cli_run(*argv)
        assert proc.returncode == 0, proc.stderr
        text = proc.stdout.strip()
        sys.set_int_max_str_digits(640)
        try:
            assert format_poly(parse_poly(text)) == text
        finally:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_141_quietly(fmt):
    # torus --m 3000 prints 685 KB, far more than a pipe holds, so the
    # reader's close always comes before the last write; 141 is 128 + SIGPIPE
    src = str(Path(conwaykit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "conwaykit.cli", "torus", "--m", "3000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_kn(capsys):
    code, out, _ = run(capsys, "kn", "--n", "1")
    assert (code, out) == (0, "1+4z^2+4z^4+z^6\n")
    code, _, err = run(capsys, "kn", "--n", "0")
    assert code == 2


def test_lk_torus_link(capsys):
    code, out, _ = run(capsys, "lk", "--pd", "X(2,4,3,1);X(4,6,5,3);X(6,8,7,5);X(8,2,1,7)")
    assert (code, out) == (0, "lk(0,1) = 2\n")


def test_lk_json(capsys):
    code, out, _ = run(
        capsys, "lk", "--pd", "X(2,4,3,1);X(4,2,1,3)", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"] == {"lk(0,1)": 1}


# the closure of s1^2 s2^-2 on 3 strands: components (1,5), (2,4,7,9) and
# (3,8), crossed at slot b by strands running both ways (over_in d, d, b, b)
THREE_LINK = "X(2,5,4,1);X(5,7,1,4);X(7,3,9,8);X(8,9,3,2)"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lk_of_a_three_component_link(capsys, fmt):
    def shown(command, text, result):
        code, out, err = run(capsys, command, "--pd", THREE_LINK, "--format", fmt)
        assert (code, err) == (0, "")
        assert (json.loads(out)["result"] if fmt == "json" else out) == (
            result if fmt == "json" else text
        )

    shown(
        "lk",
        "lk(0,1) = 1\nlk(0,2) = 0\nlk(1,2) = -1\n",
        {"lk(0,1)": 1, "lk(0,2)": 0, "lk(1,2)": -1},
    )
    shown("conway", "-z^2\n", "-z^2")
    # a free loop, component 3, links nothing
    d = parse_pd(THREE_LINK + ";O")
    assert [linking_number(d, i, 3) for i in range(3)] == [0, 0, 0]


def test_lk_knot_has_no_pairs(capsys):
    code, out, err = run(capsys, "lk", "--pd", TREFOIL)
    assert (code, out) == (0, "")
    assert "single component" in err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_lk_of_non_planar_code_is_an_input_error(flags):
    # components 0 and 1 cross three times: no planar diagram does that;
    # the check must survive python -O, which strips assert statements
    src = str(Path(conwaykit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "conwaykit.cli", "lk", "--pd",
         "X(3,2,1,4);X(6,3,2,5);X(4,5,6,1)"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("command", ["conway", "a2"])
def test_non_planar_code_is_an_input_error(command, flags):
    # a one-component code that does not lie in the plane: the skein
    # recursion would give it 1 but its mirror 1+z^2, though a knot and its
    # mirror share one polynomial
    src = str(Path(conwaykit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "conwaykit.cli", command, "--pd",
         "X(2,3,4,1);X(4,1,3,2)"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "not planar" in lines[0]


def test_pd_from_file(capsys, tmp_path):
    p = tmp_path / "knot.pd"
    p.write_text(TREFOIL + "\n")
    code, out, _ = run(capsys, "conway", "--file", str(p))
    assert (code, out) == (0, "1+z^2\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "conway", "--file", "/nonexistent.pd")
    assert code == 2
    assert "error:" in err


def test_file_not_utf8_is_named(capsys, tmp_path):
    p = tmp_path / "knot.pd"
    p.write_bytes(b"X(1,4,2,5)\xff")
    code, out, err = run(capsys, "conway", "--file", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode")


def test_bad_pd(capsys):
    code, _, err = run(capsys, "conway", "--pd", "X(1,2,3)")
    assert code == 2
    assert "error:" in err


def test_pd_number_too_long_is_an_input_error(capsys):
    code, out, err = run(capsys, "conway", "--pd", "X(" + "9" * 5000 + ",1,1,2)")
    assert (code, out, err) == (2, "", "error: number too long (at position 2)\n")


@pytest.mark.parametrize("command", ["conway", "a2"])
def test_budget_exhaustion(capsys, command):
    code, _, err = run(capsys, command, "--pd", T25, "--budget", "2")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["conway", "a2", "lk"])
def test_verbose_stats(capsys, command):
    code, out, err = run(capsys, command, "--pd", TREFOIL, "--verbose")
    assert code == 0
    # the counts of the context the command made; lk runs no skein search
    nodes = {"conway": 5, "a2": 5, "lk": 0}[command]
    assert err.splitlines()[-1] == f"nodes expanded: {nodes}, cache hits: 0"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "conway")[0] == 2  # needs --pd or --file
    assert run(capsys, "conway", "--pd", "O", "--file", "x")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_verify_text(capsys, small_sweeps):
    code, out, _ = run(
        capsys, "verify", "--max-n", "2", "--max-l", "2", "--max-r", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "ALL CHECKS PASSED"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert len(lines) >= 21


def test_verify_verbose_counts_checks_on_stderr(capsys, small_sweeps):
    code, out, err = run(
        capsys, "verify", "--max-n", "2", "--max-l", "2", "--max-r", "2", "--verbose"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "ALL CHECKS PASSED"
    assert err.strip().splitlines()[-1] == "35 checks, 0 failed"


def test_verify_json(capsys, small_sweeps):
    code, out, _ = run(
        capsys, "verify", "--max-n", "2", "--max-l", "2", "--max-r", "2",
        "--format", "json",
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) >= 20
    assert all(r["passed"] for r in reports)
    keys = ["check_name", "inputs", "expected", "computed", "passed"]
    assert all(list(r) == keys for r in reports)


def test_verify_corrupted_table_env(capsys, tmp_path, monkeypatch, small_sweeps):
    from conwaykit.table import default_table_path

    monkeypatch.delenv("KNOT_TABLE", raising=False)
    raw = json.loads(default_table_path().read_text())
    next(e for e in raw if e["name"] == "3_1")["conway"] = "1-z^2"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    monkeypatch.setenv("KNOT_TABLE", str(p))
    code, out, _ = run(
        capsys, "verify", "--max-n", "2", "--max-l", "2", "--max-r", "2"
    )
    assert code == 1
    assert "FAIL table_3_1" in out
    assert out.strip().splitlines()[-1].endswith("CHECKS FAILED")


@pytest.mark.parametrize(
    "data",
    [
        b"[\xff]", b"[" * 100_000, b"[%s]" % (b"1" * 5000),
        b'[{"name": "x", "pd": "O", "conway": "z^1000000000", "components": 1}]',
    ],
    ids=["not-utf-8", "nested-100000-deep", "int-of-5000-digits", "exponent-too-large"],
)
def test_verify_unreadable_table_env(capsys, tmp_path, monkeypatch, small_sweeps, data):
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    monkeypatch.setenv("KNOT_TABLE", str(p))
    code, out, err = run(
        capsys, "verify", "--max-n", "2", "--max-l", "2", "--max-r", "2"
    )
    assert code == 1
    assert "FAIL table_load: expected loadable; computed " in out
    assert out.strip().splitlines()[-1] == "1 OF 18 CHECKS FAILED"
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "0"],
        ["verify", "--max-l", "-1"],
        ["verify", "--max-r", "0"],
        ["verify", "--max-n", "ten"],
        ["conway", "--pd", "O", "--budget", "0"],
        ["conway", "--pd", "O", "--budget", "-1"],
        ["a2", "--pd", TREFOIL, "--budget", "0"],
    ],
    ids=["max-n=0", "max-l=-1", "max-r=0", "max-n=ten", "budget=0", "budget=-1",
         "a2-budget=0"],
)
def test_bad_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected an integer >= 1" in err
    assert "Traceback" not in err


def test_verify_passes_only_the_bounds_given(capsys, monkeypatch):
    # a bound left out is not copied into the CLI: VerifyConfig's own default
    # applies
    from conwaykit.verify import VerifyConfig

    seen = []
    monkeypatch.setattr("conwaykit.verify.run_all", lambda c: seen.append(c) or [])
    assert run(capsys, "verify")[0] == 0
    assert run(capsys, "verify", "--max-n", "3")[0] == 0
    assert seen == [VerifyConfig(), VerifyConfig(max_n=3)]


def test_verify_fails_table_without_chain_entries(
    capsys, tmp_path, monkeypatch, small_sweeps
):
    p = tmp_path / "empty.json"
    p.write_text("[]")
    monkeypatch.setenv("KNOT_TABLE", str(p))
    code, out, _ = run(
        capsys, "verify", "--max-n", "2", "--max-l", "2", "--max-r", "2"
    )
    assert code == 1
    assert "FAIL chain: expected no exception; computed TableError" in out
    assert "FAIL closed_form: " in out
    assert out.strip().splitlines()[-1] == "2 OF 20 CHECKS FAILED"



def test_readme_cli_examples(capsys):
    # each `conwaykit ...` line of README's "CLI usage" block against the
    # lines printed under it; the --file and verify lines show no output
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI usage", 1)[1].split("```")[1]
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("conwaykit "):
            examples.append((line, []))
        elif line and not line.startswith("#"):
            examples[-1][1].append(line)
    shown = [(line, lines) for line, lines in examples if lines]
    assert [line.split()[1] for line, _ in shown] == ["conway", "a2", "lk", "torus", "kn"]
    for line, lines in shown:
        code, out, _ = run(capsys, *shlex.split(line)[1:])
        assert (code, out.splitlines()) == (0, lines), line
