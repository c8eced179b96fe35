"""Golden CLI records: exit code, stderr and stdout of fixed commands.

Every record in tests/golden/ must match byte for byte. A refactor meant to
leave the command line unchanged keeps them; a change meant to alter an
output rewrites them, and the diff shows what moved:

    PYTHONPATH=src python tests/test_golden.py

Commands run in-process in one scratch directory. euler, tau and
partial-sum get `--cache-dir cache` unless they name a cache, so paths in
messages are relative and do not depend on where the tests run. The
`--help` records pin the help text of the parser and of each subcommand,
wrapped at COLUMNS=80.
"""

import argparse
import contextlib
import io
import os
import pathlib
import sys
from unittest import mock

import pytest

from symmoment import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

# one command a line; "*" runs it once in each of the three formats
COMMANDS = """
coeffs --l 3 --j 2 *
coeffs --l 1 --j 3 *
coeffs --l 8 --j 8 *
coeffs --l 0 --j 2
coeffs --l 13 --j 5
identity --l 2 --j 3 *
identity --l 5 --j 3 *
identity --l 8 --j 8 *
identity --l 2 --j 32 *
identity --l 64 --j 1 *
identity --l 1 --j 64 *
identity --l 65 --j 1
exponents --l 2 --j 2 *
exponents --l 4 --j 2 *
exponents --l 3 --j 3 *
exponents --l 1 --j 6 *
exponents --l 64 --j 1 *
exponents --l 4 --j 1 *
exponents --table *
exponents --l 1 --j 22
exponents
exponents --l 1 --j 2
exponents --l 65 --j 1
exponents --table --l 2 --j 2
euler --l 2 --j 2 --exact --order 4 *
euler --l 3 --j 3 --exact --order 3 *
euler --l 3 --j 2 --exact --order 0 *
euler --l 3 --j 2 --exact --order 1 *
euler --l 2 --j 2 --exact --order -1
euler --l 13 --j 5 --exact
euler --l 2 --j 2 --p 2 *
euler --l 2 --j 2 --p 97 *
euler --l 3 --j 3 --p 97 --order 4
euler --l 4 --j 2 --p 5 --weight 16
euler --l 2 --j 2 --p 6
euler --l 2 --j 2 --p 0
euler --l 2 --j 2 --p -7
euler --l 2 --j 2 --p 1000003
euler --l 2 --j 2 --exact --p 2
euler --l 2 --j 2 --exact --weight 13
tau --limit 300 *
tau --weight 16 --limit 100 *
tau --weight 18 --limit 100 *
tau --weight 20 --limit 100 *
tau --weight 22 --limit 100 *
tau --weight 26 --limit 100 *
tau --limit 0
tau --weight 14 --limit 10
tau --limit 2000000
tau --limit 20 --cache-dir bad
partial-sum --l 2 --j 2 --limit 3000 *
partial-sum --l 1 --j 3 --limit 3000 *
partial-sum --l 1 --j 2 --limit 1000 *
partial-sum --l 2 --j 2 --limit 50 *
partial-sum --l 3 --j 2 --limit 2000 --weight 16
partial-sum --l 1 --j 4 --limit 100000 --format json
partial-sum --l 3 --j 3 --limit 100000 --format json
partial-sum --l 4 --j 2 --limit 100000 --format json
partial-sum --l 6 --j 2 --limit 100000 --format json
partial-sum --l 0 --j 2 --limit 100
partial-sum --l 2 --j 0 --limit 1
partial-sum --l 2 --j 2 --limit 2000000
--help
coeffs --help
identity --help
exponents --help
euler --help
tau --help
partial-sum --help
"""

# bad/ holds 24 zero bytes, three columns of two digits, where the table to
# N = 20 has 21 columns (168 bytes), so loading it exits 3
BAD_TABLE = ("bad", "tau_12_20.b32", bytes(24))


def _cases():
    for line in COMMANDS.split("\n")[1:-1]:
        argv = line.split()
        for fmt in cli.FORMATS if argv[-1] == "*" else (None,):
            words = argv[:-1] + ["--format", fmt] if fmt else argv
            name = " ".join(words).replace("--", "").replace(" ", "_")
            if words[0] in ("euler", "tau", "partial-sum") and "--cache-dir" not in words:
                words = words + ["--cache-dir", "cache"]
            yield name, words


CASES = dict(_cases())


def record(argv, workdir) -> str:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with (
            mock.patch.dict(os.environ, COLUMNS="80"),  # the width argparse wraps help to
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's --help and usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"


def prepare(workdir):
    bad = pathlib.Path(workdir, BAD_TABLE[0])
    bad.mkdir()
    (bad / BAD_TABLE[1]).write_bytes(BAD_TABLE[2])
    return workdir


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return prepare(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_record(name, workdir):
    assert record(CASES[name], workdir) == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def test_every_subcommand_succeeds_in_every_format():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    covered = set()
    for name, argv in CASES.items():
        # a help case exits 0 too, but parsing it would print and exit
        if "--help" not in argv and (GOLDEN / f"{name}.txt").read_text().startswith("exit 0\n"):
            args = parser.parse_args(argv)
            covered.add((args.subcommand, args.format))
    assert covered == {(cmd, fmt) for cmd in sub.choices for fmt in cli.FORMATS}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        prepare(tmp)
        for name, argv in CASES.items():
            (GOLDEN / f"{name}.txt").write_text(record(argv, tmp))
    print(f"wrote {len(CASES)} records to {GOLDEN}", file=sys.stderr)
