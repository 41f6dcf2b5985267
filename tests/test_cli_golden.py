"""Byte-for-byte command-line outputs, pinned against a recorded fixture.

`cli_golden.json` holds, for each argument list in CASES, the exit code,
standard output and standard error of `main`. Changes that must keep the
default output unchanged (a new encoder, an opt-in block) are checked by
this test as it stands. A change meant to alter an output re-records the
fixture with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in its description which bytes moved and why.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from submodzeta.cli import ENV_PREFIX, main

HERE = Path(__file__).parent
FIXTURE = HERE / "cli_golden.json"
EDV_FILE = "cli_golden_edv.json"  # relative to HERE, so the recorded argv is portable

MATRICES = [
    "[[0,1,0],[0,0,0],[0,0,0]]",   # x : (2, 1)
    "[[0,-1],[1,0]]",              # x^2 + 1, ramified at 2
    "[[13,0,-30],[0,3,0],[4,0,-9]]",  # a conjugate of diag(1, 3, 3)
]
COMMANDS = (
    [["analyze", m] for m in MATRICES]
    + [
        ["analyze", "--edv", EDV_FILE],
        ["verify", MATRICES[0], "--primes", "5", "--max-index-exp", "3"],   # good prime
        ["verify", "[[0,2],[0,0]]", "--primes", "2", "--max-index-exp", "4"],  # bad prime
        ["verify", "[[0,9],[0,0]]", "--primes", "3", "--max-index-exp", "4"],  # demotion
        ["verify", MATRICES[1], "--primes", "2", "--max-index-exp", "3"],   # ramified
        ["verify", "[[0,0],[0,0]]", "--primes", "2", "--max-index-exp", "6",
         "--budget", "10"],                                                 # refused
        ["special", "zpxn", "3"],
        ["special", "powerseries", "12"],
        ["special", "fe-check", "3", "2", "1"],
        ["verify", "[[0,1],[-1,0]]", "--primes", "13", "--max-index-exp", "4"],  # lattice tree
        ["analyze", "[[-2,-2],[1,1]]"],  # (1, 2) * A = 0: minpoly past its first chain
        ["verify", MATRICES[1]],                                # default primes 3, 5, 7
        ["verify", "[[0,2],[0,0]]", "--primes", "2,5"],         # a bad and a good prime
        ["verify", "[[0,2],[0,0]]", "--primes", "4"],           # not a prime
        ["verify", "[[0,2],[0,0]]", "--max-n", "1"],            # over the size cap
    ]
)
CASES = [argv + ["--format", fmt] for argv in COMMANDS for fmt in ("json", "text", "latex")]


def run(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_outputs_match_the_recorded_bytes(monkeypatch):
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)
    monkeypatch.chdir(HERE)
    recorded = json.loads(FIXTURE.read_text())
    assert [case["argv"] for case in recorded] == CASES
    assert {case["rc"] for case in recorded} == {0, 1, 2, 3}
    for case in recorded:
        assert run(case["argv"]) == case


if __name__ == "__main__":
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            del os.environ[name]
    os.chdir(HERE)
    FIXTURE.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
