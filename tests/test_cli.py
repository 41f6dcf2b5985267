import contextlib
import io
import itertools
import json
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodzeta import cli, linalg
from submodzeta.canonical import edv_context
from submodzeta.cli import _json_text, main
from submodzeta.linalg import IntMatrix
from submodzeta.zetacore import bad_prime_reasons, global_formula
from test_cli_golden import CASES as GOLDEN_CASES

ZERO_2 = "[[0,0],[0,0]]"
NILP_2 = "[[0,1],[0,0]]"
NILP_21 = "[[0,1,0],[0,0,0],[0,0,0]]"
ROT_2 = "[[0,-1],[1,0]]"  # companion of x^2 + 1
ZERO_4 = "[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"


# ---------------------------------------------------------------------------
# the JSON emitter

_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                             st.characters(), st.characters(max_codepoint=0x7f)))
_INTS = st.one_of(st.integers(-9, 9), st.integers(), st.integers(2 ** 63 - 2, 2 ** 200),
                  st.integers(-2 ** 200, -1))
_JSON_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _STRINGS, st.floats()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_INTS, max_size=6),
        st.dictionaries(_STRINGS, inner, max_size=4),
        # keys json.dumps converts: the emitter hands such a dict to it whole
        st.dictionaries(st.one_of(_STRINGS, _INTS, st.booleans(), st.none()), inner, max_size=3),
    ),
    max_leaves=25,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_JSON_DOCS)
def test_json_emitter_prints_the_bytes_of_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("leaf", [object(), {1, 2}, b"bytes", {"key": {(1, 2): 3}}])
def test_json_emitter_raises_what_json_dumps_raises(leaf):
    doc = {"a": [1, {"b": leaf}]}
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        _json_text(doc)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_zero_matrix_text(capsys):
    assert main(["analyze", ZERO_2]) == 0
    out = capsys.readouterr().out
    assert "zeta(s)*zeta(s-1)" in out
    assert "abscissa of convergence: 2" in out
    assert "pole order at the abscissa: 1" in out
    assert "simple pole at zero: yes" in out


def test_analyze_nilpotent_21_text(capsys):
    assert main(["analyze", NILP_21]) == 0
    out = capsys.readouterr().out
    assert "zeta(s)*zeta(s-1)*zeta(2s-2)" in out
    assert "x : (2, 1)" in out
    assert "(verified)" in out


def test_analyze_rotation_text(capsys):
    assert main(["analyze", ROT_2]) == 0
    out = capsys.readouterr().out
    assert "zeta_[x^2 + 1](s)" in out
    assert "simple pole at zero: no" in out
    assert "bad prime 2" in out


def test_analyze_json_round_trips_through_edv_file(capsys, tmp_path):
    assert main(["analyze", NILP_21, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == 2 and doc["beta"] == 1
    assert doc["functional_equation"]["verified"] is True

    edv_file = tmp_path / "edv.json"
    edv_file.write_text(json.dumps({"edv": doc["edv"]}))
    assert main(["analyze", "--edv", str(edv_file), "--format", "json"]) == 0
    redone = json.loads(capsys.readouterr().out)
    assert redone["global_formula"] == doc["global_formula"]
    assert redone["matrix"] is None
    assert (redone["alpha"], redone["beta"]) == (doc["alpha"], doc["beta"])


def test_analyze_bad_primes_include_the_kernel_denominator(capsys):
    """A conjugate of diag(1, 3, 3) whose kernel basis has denominator 15.

    analyze flags 5 only through that denominator; the global formula built
    from the context's reasons publishes the same set.
    """
    rows = [[13, 0, -30], [0, 3, 0], [4, 0, -9]]
    assert main(["analyze", json.dumps(rows), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["denominator_lcm"] == 15
    assert doc["bad_primes"] == {
        "2": ["p <= n = 3", "divides resultant of x - 3 and x - 1"],
        "3": ["p <= n = 3", "divides a primary-decomposition denominator"],
        "5": ["divides a primary-decomposition denominator"],
    }
    ctx = edv_context(IntMatrix(rows))
    expr = global_formula(ctx.edv, bad_prime_reasons(ctx))
    assert expr.to_json()["bad_primes"] == doc["bad_primes"]


def test_a_prime_flagged_only_by_the_kernel_denominator_can_be_bad(capsys):
    """EDV x : (1), x + 2 : (2); the context's integers are 2 and 15.

    5 divides only the kernel denominator 15, and the formula fails there,
    so whatever criterion replaces the denominator must keep 5 bad.
    """
    rows = "[[-7,10,15],[1,-10,-9],[-5,10,13]]"
    assert main(["analyze", rows, "--format", "json"]) == 0
    assert "5" in json.loads(capsys.readouterr().out)["bad_primes"]
    argv = ["verify", rows, "--primes", "5", "--max-index-exp", "3", "--format", "json"]
    assert main(argv) == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["prime"] == 5
    assert report["heuristically_good"] is False and report["demoted"] is False
    assert report["formula_values"] == [1, 2, 8, 14]
    assert report["oracle_values"] == [1, 7, 13, 44]


def test_analyze_computes_each_resultant_once(capsys, monkeypatch):
    """k = 4 distinct factors, j = 2 of them nonlinear: j + k(k-1)/2 resultants."""
    rows = [
        [1, 0, 0, 0, 0, 0, 0, 0],    # x - 1
        [0, -1, 1, 0, 0, 0, 0, 0],   # x + 1, type (2)
        [0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 0, 0],   # x^2 + 1
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 2],    # x^3 - 2
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
    ]
    original = linalg.resultant
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return original(f, g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "submodzeta" and getattr(module, "resultant", None) is original:
            monkeypatch.setattr(module, "resultant", counted)
    assert main(["analyze", json.dumps(rows), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["edv"]) == 4
    assert len(calls) == 2 + 4 * 3 // 2


def test_analyze_edv_with_a_repeated_factor_exits_1(capsys, tmp_path):
    """Res(x^2, 2x) = 0 would make every prime bad; the EDV is refused, not searched."""
    for poly in ([0, 0, 1], [1, -2, 1]):
        edv_file = tmp_path / "edv.json"
        edv_file.write_text(json.dumps({"edv": [{"poly": poly, "partition": [1]}]}))
        start = time.monotonic()
        assert main(["analyze", "--edv", str(edv_file)]) == 1
        assert time.monotonic() - start < 5.0
        assert "squarefree and pairwise coprime" in capsys.readouterr().err
    edv_file.write_text(json.dumps({"edv": [{"poly": [-1, 1], "partition": [1]},
                                            {"poly": [-1, 0, 1], "partition": [1]}]}))
    assert main(["analyze", "--edv", str(edv_file)]) == 1


def test_analyze_edv_with_a_reducible_polynomial_exits_1(capsys, tmp_path):
    """Q[x]/(f) is a field only for an irreducible f: x^2 - 1 and x^3 - x are
    squarefree but reducible, and are refused; x^4 + 1, reducible mod every
    prime, is irreducible over Q and accepted."""
    edv_file = tmp_path / "edv.json"
    for poly, name in (([-1, 0, 1], "x^2 - 1"), ([0, -1, 0, 1], "x^3 - x")):
        edv_file.write_text(json.dumps({"edv": [{"poly": poly, "partition": [1]}]}))
        assert main(["analyze", "--edv", str(edv_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: EDV polynomial {name} is reducible over Q\n"
    edv_file.write_text(json.dumps({"edv": [{"poly": [1, 0, 0, 0, 1], "partition": [1]}]}))
    assert main(["analyze", "--edv", str(edv_file)]) == 0
    assert "global zeta: zeta_[x^4 + 1](s)" in capsys.readouterr().out


def test_analyze_latex(capsys):
    assert main(["analyze", ROT_2, "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert r"\zeta" in out
    assert "x^{2} + 1" in out


def test_analyze_lists_no_negative_bad_prime(capsys):
    sqrt2 = "[[0,2],[1,0]]"  # companion of x^2 - 2; Res(f, f') = -8
    assert main(["analyze", sqrt2]) == 0
    out = capsys.readouterr().out
    assert "bad prime -1" not in out
    assert "bad prime 2: p <= n = 2; x^2 - 2 not squarefree mod p" in out
    assert main(["analyze", sqrt2, "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["bad_primes"]) == ["2"]
    assert main(["analyze", sqrt2, "--format", "latex"]) == 0
    assert "% bad primes: 2\n" in capsys.readouterr().out


def test_each_command_is_parsed_once_by_its_own_parser(capsys, monkeypatch):
    """The top-level parser is built once, a command's argv is parsed in one
    pass by that command's parser, the same object on every call, and the
    top-level parser parses only an argv that names no command."""
    import argparse

    built, parsed = [], []
    init, parse_known_args = cli._Parser.__init__, argparse.ArgumentParser.parse_known_args

    def recording_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording(self, args=None, namespace=None):
        parsed.append((self, list(args)))
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(cli._Parser, "__init__", recording_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    cli.build_parser.cache_clear()
    calls = [["analyze", ZERO_2], ["special", "zpxn", "2"]] * 2
    for argv in calls:
        assert main(argv) == 0
    assert main([]) == 1
    capsys.readouterr()
    top = cli.build_parser()
    assert built == [top, *top.commands.values()]
    assert parsed == [(top.commands[argv[0]], argv[1:]) for argv in calls] + [(top, [])]


def _ci_argvs():
    """The argv of each submodzeta command in CI's console-script step."""
    text = WORKFLOW.read_text().replace("\\\n", " ")
    step = text.split("The installed console script")[1].split("\n  bench-smoke:")[0]
    argvs = []
    for line in step.splitlines():
        if "$cli" not in line and not line.lstrip().startswith("submodzeta "):
            continue
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        words = list(itertools.takewhile(lambda w: w not in ("|", ">"), lexer))
        cli_at = words.index("$cli") if "$cli" in words else words.index("submodzeta")
        argvs.append(words[cli_at + 1:])
    return argvs


def _parse_outcome(parse, argv):
    """vars() of the parsed argv, or the UsageError's message, or the
    SystemExit's code and printed output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except cli.UsageError as exc:
        return ("UsageError", str(exc))
    except SystemExit as exc:
        return ("SystemExit", exc.code, out.getvalue(), err.getvalue())


def test_dispatched_parse_matches_the_top_level_parser():
    """On every golden and CI argv, and on help, the one-pass parse gives
    what the top-level parser, with its second pass through the subparsers
    action, gives."""
    ci = _ci_argvs()
    for argv in ([], ["frob"], ["special"],
                 ["verify", "[[0,1],[0,0]]", "--prim", "5", "--max-index", "3", "--format", "json"],
                 ["analyze", "--edv", "$RUNNER_TEMP/x1000.json", "--format", "json"]):
        assert argv in ci
    argvs = GOLDEN_CASES + ci + [["-h"], ["verify", "-h"], ["special", "-h"]]
    kinds = set()
    for argv in argvs:
        want = _parse_outcome(cli.build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == want, argv
        kinds.add(want[0] if isinstance(want, tuple) else "parsed")
    assert kinds == {"parsed", "UsageError", "SystemExit"}


def test_analyze_reads_stdin_and_files(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(NILP_2))
    assert main(["analyze", "-"]) == 0
    from_stdin = capsys.readouterr().out

    path = tmp_path / "m.json"
    path.write_text(NILP_2)
    assert main(["analyze", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert from_stdin == from_file
    assert "zeta(s)*zeta(2s-1)" in from_file


# ---------------------------------------------------------------------------
# verify


def test_verify_nilpotent_good_primes(capsys):
    rc = main(
        ["verify", NILP_21, "--primes", "5,7", "--max-index-exp", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "p = 5 (good prime, E = 4)" in out
    assert "match" in out
    assert "all good primes match" in out


def test_verify_bad_prime_mismatch_is_tolerated(capsys):
    rc = main(["verify", "[[0,2],[0,0]]", "--primes", "2", "--max-index-exp", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p = 2 (bad prime, E = 4)" in out
    assert "truncated local factor" in out
    assert "oracle:  [1, 3, 3, 7, 7]" in out


def test_verify_demotion_exits_2(capsys):
    rc = main(["verify", "[[0,9],[0,0]]", "--primes", "3", "--max-index-exp", "4"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "demoted to bad" in out
    assert "1 good prime(s) mismatched" in out


def test_verify_split_semisimple(capsys):
    rc = main(["verify", "[[0,0],[0,1]]", "--primes", "2", "--max-index-exp", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "formula: [1, 2, 3, 4, 5]" in out
    assert "oracle:  [1, 2, 3, 4, 5]" in out


def test_verify_default_primes_are_good(capsys):
    assert main(["verify", NILP_2, "--max-index-exp", "2"]) == 0
    out = capsys.readouterr().out
    # n = 2, so the defaults skip 2 and start at 3
    assert "p = 3" in out and "p = 5" in out and "p = 7" in out


def test_verify_json_format(capsys):
    rc = main(
        ["verify", NILP_2, "--primes", "3", "--max-index-exp", "3", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_good_primes_match"] is True
    assert doc["reports"][0]["oracle_values"] == [1, 1, 4, 4]


def test_verify_budget_exit_code(capsys):
    rc = main(
        ["verify", ZERO_2, "--primes", "2", "--max-index-exp", "6", "--budget", "10"]
    )
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, top", [(ZERO_4, 150), (ZERO_2, 6000)])
def test_verify_refuses_deep_levels_quickly(capsys, matrix, top):
    # both pass the budget by level 25; summing the HNF totals of all 151
    # levels over their compositions took 73-81 s for the 4x4 case
    start = time.perf_counter()
    rc = main(["verify", matrix, "--primes", "2", "--max-index-exp", str(top)])
    assert rc == 3
    assert time.perf_counter() - start < 2.0
    assert "budget exceeded" in capsys.readouterr().err


def test_verify_refuses_a_huge_exponent_before_expanding_the_formula(capsys, monkeypatch):
    # expanding the formula to E = 2*10^7 takes 6.2 s, with memory growing
    # in E, so the oracle's budget has to refuse first, here at the largest
    # E accepted (past cli.MAX_INDEX_EXP, E is a usage error)
    calls = []
    monkeypatch.setattr(cli, "dirichlet_coefficients", lambda *args: calls.append(args))
    start = time.perf_counter()
    rc = main(["verify", ROT_2, "--primes", "5", "--max-index-exp", str(cli.MAX_INDEX_EXP)])
    assert rc == 3
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    assert calls == []


def test_verify_of_a_huge_scalar_matrix_is_quick(capsys):
    # cI has the invariant lattices of the zero matrix; on a 2-vCPU Xeon,
    # counting on the unreduced entries took 0.13-0.16 s, on the reduced
    # ones about 4 ms
    c = 10 ** 18 + 7
    matrix = json.dumps([[c if i == j else 0 for j in range(3)] for i in range(3)])
    start = time.perf_counter()
    rc = main(["verify", matrix, "--primes", "2", "--max-index-exp", "8"])
    assert time.perf_counter() - start < 0.08
    assert rc == 0
    assert "oracle:  [1, 7, 35, 155, 651, 2667, 10795, 43435, 174251]" in capsys.readouterr().out


def test_verify_of_a_1x1_matrix_is_linear_in_the_exponent(capsys):
    """Z has one sublattice of each index, invariant under every 1 x 1 matrix.
    Raising p to every level made E = 10^5 take 11.4 s on a 2-vCPU Xeon."""
    for matrix, primes in (("[[0]]", "2,3"), ("[[5]]", "3,5"), ("[[-12]]", "2,7")):
        assert main(["verify", matrix, "--primes", primes, "--max-index-exp", "6",
                     "--format", "json"]) == 0
        for report in json.loads(capsys.readouterr().out)["reports"]:
            assert report["oracle_values"] == report["formula_values"] == [1] * 7
    start = time.perf_counter()
    rc = main(["verify", "[[0]]", "--primes", "2", "--max-index-exp", "50000", "--format", "json"])
    assert time.perf_counter() - start < 0.5
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["oracle_values"] == [1] * 50001


def test_max_index_exp_has_an_upper_limit(capsys, monkeypatch):
    """E = 10^6 on [[0]] took 1.6 s and printed 22 MB; past MAX_INDEX_EXP
    the flag or the variable is refused at once, with no output."""
    start = time.perf_counter()
    argv = ["verify", "[[0]]", "--primes", "2", "--format", "json"]
    assert main(argv + ["--max-index-exp", str(cli.MAX_INDEX_EXP)]) == 0
    assert time.perf_counter() - start < 0.5
    assert len(json.loads(capsys.readouterr().out)["reports"][0]["oracle_values"]) == cli.MAX_INDEX_EXP + 1
    for value in (cli.MAX_INDEX_EXP + 1, 10 ** 12):
        start = time.perf_counter()
        assert main(argv + ["--max-index-exp", str(value)]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: argument --max-index-exp: must be <= {cli.MAX_INDEX_EXP}, got {value}\n")
        monkeypatch.setenv("SUBMODZETA_MAX_INDEX_EXP", str(value))
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: SUBMODZETA_MAX_INDEX_EXP: must be <= {cli.MAX_INDEX_EXP}, got {value}\n")
        monkeypatch.delenv("SUBMODZETA_MAX_INDEX_EXP")


def test_verify_computes_edv_context_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return edv_context(*args, **kwargs)

    holders = [module for name, module in list(sys.modules.items())
               if name.startswith("submodzeta") and getattr(module, "edv_context", None) is edv_context]
    assert "submodzeta.cli" in [module.__name__ for module in holders]
    for module in holders:
        monkeypatch.setattr(module, "edv_context", counted)
    rc = main(["verify", NILP_2, "--primes", "3,5,7", "--max-index-exp", "2"])
    assert rc == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# special


def test_special_zpxn(capsys):
    assert main(["special", "zpxn", "3"]) == 0
    out = capsys.readouterr().out
    assert "n = 3" in out
    assert "q^2 t^3" in out


def test_special_zpxn_json(capsys):
    assert main(["special", "zpxn", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["factors"] == [{"a": 0, "b": 1, "e": -1}, {"a": 1, "b": 2, "e": -1}]


def test_special_zpxn_latex(capsys):
    assert main(["special", "zpxn", "3", "--format", "latex"]) == 0
    assert capsys.readouterr().out == (
        r"\left(1 - t^{1}\right)^{-1}\left(1 - q^{1} t^{2}\right)^{-1}"
        r"\left(1 - q^{2} t^{3}\right)^{-1}" "\n"
    )


def test_special_powerseries(capsys):
    assert main(["special", "powerseries", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1\t1"
    assert lines[3] == "4\t3"
    assert lines[7] == "8\t7"


def test_special_without_a_form_names_only_the_form_as_required(capsys):
    """parts has a default, or argparse would list it among the required
    arguments although it takes zero or more."""
    assert main(["special"]) == 1
    assert capsys.readouterr() == ("", "error: the following arguments are required: what\n")


def test_special_fe_check(capsys):
    assert main(["special", "fe-check", "2,2,1"]) == 0
    out = capsys.readouterr().out
    assert "sign 5" in out
    assert "q-exponent 10" in out
    assert "s-exponent 7" in out
    assert "verified" in out


def test_special_fe_check_spaced_parens(capsys):
    assert main(["special", "fe-check", "(3,", "1)"]) == 0
    out = capsys.readouterr().out
    assert "partition (3, 1)" in out


# ---------------------------------------------------------------------------
# errors and environment


def test_usage_errors(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err

    assert main(["analyze"]) == 1
    assert "matrix" in capsys.readouterr().err

    assert main(["analyze", "[[oops"]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    assert main(["analyze", ZERO_2, "--format", "yaml"]) == 1
    capsys.readouterr()

    assert main(["special", "zpxn"]) == 1
    assert "integer" in capsys.readouterr().err

    assert main(["analyze", "[[0,1],[0,0],[1,1]]"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "[[]]"], "matrix must be square and non-empty, got 1 x 0"),
    (["analyze", '{"n": 0, "entries": []}'], "matrix must be square and non-empty, got 0 x 0"),
    (["verify", "[[1,2],[3,4],[5,6]]", "--primes", "3"],
     "matrix must be square and non-empty, got 3 x 2"),
], ids=["analyze-1x0", "analyze-0x0", "verify-3x2"])
def test_a_matrix_that_is_not_square_or_is_empty_is_a_usage_error(capsys, argv, message):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("what, limit, message", [
    ("zpxn", cli.ZPXN_MAX, "zpxn: block size {} exceeds the limit {}"),
    ("powerseries", cli.POWERSERIES_MAX, "powerseries: coefficient count {} exceeds the limit {}"),
    ("fe-check", cli.EDV_MAX, "fe-check: size {} exceeds the limit {}"),
], ids=["zpxn", "powerseries", "fe-check"])
def test_special_sizes_past_their_limit_are_refused_quickly(capsys, what, limit, message):
    assert main(["special", what, str(limit)]) == 0
    capsys.readouterr()
    for n in (limit + 1, 10 ** 12):
        start = time.perf_counter()
        assert main(["special", what, str(n)]) == 1
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message.format(n, limit)}\n"


def test_an_edv_past_the_size_limit_is_refused_quickly(capsys, tmp_path):
    """Both EDV commands share one limit on the size, deg f times the size of
    the partition: at the limit, x and x^2 + 1 run in under a second, and
    past it they are refused as quickly."""
    edv_file = tmp_path / "edv.json"
    for poly, degree in (([0, 1], 1), ([1, 0, 1], 2)):
        at = cli.EDV_MAX // degree
        for cells, rc in ((at, 0), (at + 1, 1), (10 ** 12, 1)):
            edv_file.write_text(json.dumps([{"poly": poly, "partition": [cells]}]))
            runs = {"analyze --edv": ["analyze", "--edv", str(edv_file)]}
            if degree == 1:
                runs["fe-check"] = ["special", "fe-check", str(cells)]
            for what, argv in runs.items():
                start = time.perf_counter()
                assert main(argv) == rc
                assert time.perf_counter() - start < 1
                out, err = capsys.readouterr()
                if rc:
                    assert out == "" and err == (f"error: {what}: size {cells * degree} "
                                                 f"exceeds the limit {cli.EDV_MAX}\n")


def test_analyze_edv_of_a_high_degree_factor_is_quick(capsys, tmp_path):
    """x^400 - 2, inside the size limit: Res(f, f') by the Bareiss determinant
    of its Sylvester matrix made this take 16-23 s."""
    edv_file = tmp_path / "edv.json"
    edv_file.write_text(json.dumps({"edv": [{"poly": [-2] + [0] * 399 + [1], "partition": [1]}]}))
    start = time.perf_counter()
    assert main(["analyze", "--edv", str(edv_file), "--format", "json"]) == 0
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["edv"][0]["partition"] == [1]


def test_a_bool_matrix_size_is_refused(capsys):
    """JSON true is not the integer 1, as a bool entry is not an integer entry."""
    assert main(["analyze", '{"n": true, "entries": [[5]]}']) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: invalid matrix: integer n required, got True\n"
    assert main(["analyze", '{"n": 1, "entries": [[true]]}']) == 1
    assert capsys.readouterr().err == "error: invalid matrix: integer entries required, got True\n"


@pytest.mark.parametrize("matrix", ["[1,2]", "[null]", '{"n": 2, "entries": [1, 2]}'],
                         ids=["ints", "null", "entries-of-ints"])
def test_a_row_that_is_not_a_list_is_refused_in_plain_words(capsys, matrix):
    assert main(["analyze", matrix]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: invalid matrix: each row must be a list of integers\n"


def test_an_unreadable_matrix_path_is_a_usage_error(capsys, tmp_path):
    """A matrix path that cannot be read fails as an unreadable --edv file does."""
    assert main(["analyze", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read matrix file: ")
    assert err.count("\n") == 1
    assert main(["analyze", "--edv", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read EDV file: ")


@pytest.mark.parametrize("argv", [["special", "zpxn", "3", "4"],
                                  ["special", "powerseries", "12", "13"]],
                         ids=["zpxn", "powerseries"])
def test_special_refuses_an_extra_argument(capsys, argv):
    """Only fe-check reads more than one argument; the other forms refuse
    an extra one instead of dropping it."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {argv[1]} takes one argument, got 2\n"


def test_special_fe_check_names_a_token_that_is_not_an_integer(capsys):
    assert main(["special", "fe-check", "3", "x"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: fe-check: 'x' is not an integer\n"


def test_degree_cap_suggests_edv(capsys):
    n = 25
    entries = [[0] * n for _ in range(n)]
    for i in range(1, n):
        entries[i][i - 1] = 1
    assert main(["analyze", json.dumps(entries)]) == 1
    assert "--edv" in capsys.readouterr().err


def test_env_format_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("SUBMODZETA_FORMAT", "json")
    assert main(["analyze", ZERO_2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == 2

    assert main(["analyze", ZERO_2, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("matrix:")


def test_env_format_must_name_a_format(capsys, monkeypatch):
    assert main(["analyze", ZERO_2, "--format", "bogus"]) == 1
    flag_err = capsys.readouterr().err
    monkeypatch.setenv("SUBMODZETA_FORMAT", "bogus")
    assert main(["analyze", ZERO_2]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: SUBMODZETA_FORMAT: ")
    assert err.split(": ", 2)[2] == flag_err.split(": ", 2)[2]

    monkeypatch.setenv("SUBMODZETA_FORMAT", "")  # empty counts as unset
    assert main(["analyze", ZERO_2]) == 0
    assert capsys.readouterr().out.startswith("matrix:")


@pytest.mark.parametrize("name, flag, value, bad", [
    ("MAX_INDEX_EXP", "--max-index-exp", "abc", "abc"),
    ("BUDGET", "--budget", "1e6", "1e6"),
    ("PRIMES", "--primes", "x", "x"),
    ("PRIMES", "--primes", "5,x", "x"),
])
def test_env_integers_must_parse(capsys, monkeypatch, name, flag, value, bad):
    """A variable that is not an int is named as argparse names the flag."""
    assert main(["verify", NILP_2, flag, value]) == 1
    flag_err = capsys.readouterr().err
    assert flag_err == f"error: argument {flag}: invalid int value: {bad!r}\n"
    monkeypatch.setenv("SUBMODZETA_" + name, value)
    assert main(["verify", NILP_2]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: SUBMODZETA_{name}: ")
    assert err.split(": ", 2)[2] == flag_err.split(": ", 2)[2]


def test_max_index_exp_must_not_be_negative(capsys, monkeypatch):
    """A negative E is named as the flag or the variable that gave it."""
    assert main(["verify", NILP_2, "--max-index-exp", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: argument --max-index-exp: must be >= 0, got -1\n"
    monkeypatch.setenv("SUBMODZETA_MAX_INDEX_EXP", "-1")
    assert main(["verify", NILP_2]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: SUBMODZETA_MAX_INDEX_EXP: must be >= 0, got -1\n"
    assert main(["verify", NILP_2, "--max-index-exp", "0", "--primes", "3"]) == 0
    assert "oracle:  [1]" in capsys.readouterr().out


@pytest.mark.parametrize("flag, name", [("--budget", "BUDGET"), ("--max-n", None)])
def test_negative_budget_and_size_cap_are_usage_errors(capsys, monkeypatch, flag, name):
    """As a negative E, named as the flag or the variable that gave it; 0 is
    no usage error, but a budget or size cap that every input exceeds."""
    assert main(["verify", NILP_2, flag, "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: argument {flag}: must be >= 0, got -1\n"
    if name is not None:
        monkeypatch.setenv("SUBMODZETA_" + name, "-1")
        assert main(["verify", NILP_2]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: SUBMODZETA_{name}: must be >= 0, got -1\n"
    assert main(["verify", NILP_2, flag, "0", "--primes", "3"]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_env_edv_does_not_replace_a_matrix(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SUBMODZETA_EDV", str(tmp_path / "missing.json"))
    assert main(["analyze", "[[1]]", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["matrix"] == {"n": 1, "entries": [[1]]}
    assert main(["analyze"]) == 1  # without a matrix the variable is read
    assert capsys.readouterr().err.startswith("error: cannot read EDV file: ")


def test_analyze_rejects_a_matrix_together_with_edv(capsys, tmp_path):
    edv = tmp_path / "edv.json"
    edv.write_text(json.dumps({"edv": [{"poly": [0, 1], "partition": [2]}]}))
    assert main(["analyze", "--edv", str(edv)]) == 0
    capsys.readouterr()
    assert main(["analyze", NILP_2, "--edv", str(edv)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: analyze takes a matrix argument or --edv, not both\n"


def test_env_primes(capsys, monkeypatch):
    monkeypatch.setenv("SUBMODZETA_PRIMES", "5")
    assert main(["verify", NILP_2, "--max-index-exp", "2"]) == 0
    out = capsys.readouterr().out
    assert "p = 5" in out
    assert "p = 3" not in out


@pytest.mark.parametrize("value", [",", "", " , "])
def test_primes_that_name_no_prime_are_a_usage_error(capsys, monkeypatch, value):
    """An explicit list without a prime does not fall back to the default primes."""
    assert main(["verify", ROT_2, "--primes", value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: argument --primes: expected at least one prime\n"
    if value:
        monkeypatch.setenv("SUBMODZETA_PRIMES", value)
        assert main(["verify", ROT_2]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: SUBMODZETA_PRIMES: expected at least one prime\n"
    monkeypatch.setenv("SUBMODZETA_PRIMES", "")  # empty counts as unset
    assert main(["verify", ROT_2, "--max-index-exp", "1"]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("p = ")] == [
        "p = 3 (good prime, E = 1)", "p = 5 (good prime, E = 1)", "p = 7 (good prime, E = 1)"]


@pytest.mark.parametrize("value, repeated", [("2,2", 2), ("3,5,3", 3), ("5, 05", 5)])
def test_a_repeated_prime_is_a_usage_error(capsys, monkeypatch, value, repeated):
    """A prime listed twice would run the oracle twice and print two identical reports."""
    assert main(["verify", NILP_2, "--primes", value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: argument --primes: repeated prime: {repeated}\n"
    monkeypatch.setenv("SUBMODZETA_PRIMES", value)
    assert main(["verify", NILP_2]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: SUBMODZETA_PRIMES: repeated prime: {repeated}\n"
