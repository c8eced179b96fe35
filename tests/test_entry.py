"""Fresh-interpreter tests: what the exact core imports, and the
`python -m symmoment.cli` entry path, which in-process tests never run.

Each test starts its own interpreter with the package's source directory
on PYTHONPATH, so modules already imported by the test session do not
count.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import symmoment
from test_golden import CASES, GOLDEN

SRC = pathlib.Path(symmoment.__file__).resolve().parents[1]


def python(args, cwd):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


def loads_numpy(code, cwd):
    """Run `code`, then report whether numpy was imported; it must exit 0."""
    probe = code + "\nimport sys\nsys.stderr.write(str('numpy' in sys.modules))\n"
    proc = python(["-c", probe], cwd)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stderr.decode().splitlines()[-1] == "True"


def cli_run(argv):
    return f"from symmoment import cli\nassert cli.main({argv!r}) == 0"


EXACT_RUNS = {
    "import": "import symmoment",
    "import-cli": "import symmoment.cli",
    "coeffs": cli_run(["coeffs", "--l", "3", "--j", "2", "--format", "json"]),
    "identity": cli_run(["identity", "--l", "5", "--j", "3"]),
    "exponents-pair": cli_run(["exponents", "--l", "4", "--j", "2"]),
    "exponents-table": cli_run(["exponents", "--table", "--format", "csv"]),
    "euler-exact": cli_run(["euler", "--l", "3", "--j", "3", "--exact", "--order", "3"]),
}


@pytest.mark.parametrize("name", EXACT_RUNS)
def test_exact_core_never_imports_numpy(name, tmp_path):
    assert not loads_numpy(EXACT_RUNS[name], tmp_path)


def test_probe_sees_numpy_where_arrays_are_used(tmp_path):
    argv = ["tau", "--limit", "20", "--cache-dir", str(tmp_path)]
    assert loads_numpy(cli_run(argv), tmp_path)


def test_lazy_layers_resolve_as_attributes(tmp_path):
    code = (
        "import symmoment\n"
        "assert symmoment.hecke.eigenform_qexp(12, 5).raw[2] == -24\n"
        "assert symmoment.sums.partial_sum\n"
        "from symmoment import *\n"
        "assert hecke is symmoment.hecke and sums is symmoment.sums\n"
    )
    assert loads_numpy(code, tmp_path)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        symmoment.nonesuch


@pytest.mark.parametrize("name", ["coeffs_l_3_j_2_format_json", "tau_limit_300_format_csv"])
def test_module_entry_matches_golden_record(name, tmp_path):
    # CASES gives tau `--cache-dir cache`, so its table lands under tmp_path
    proc = python(["-m", "symmoment.cli", *CASES[name]], tmp_path)
    err, out = proc.stderr.decode(), proc.stdout.decode()
    got = f"exit {proc.returncode}\n--- stderr\n{err}--- stdout\n{out}"
    assert got == (GOLDEN / f"{name}.txt").read_text()
