import inspect
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import digits_of, write_cache
from test_golden import CASES
from symmoment import cli, combinatorics, euler, exponents, hecke, sums, symbolic
from symmoment.errors import ConsistencyError


def run(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_text(capsys):
    code, out, err = run(capsys, "coeffs --l 3 --j 2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "c: 1 3 6 7 | d: 1 2 3 1"
    assert lines[1] == "palindromic: True  unimodal: True  total: 27"


def test_coeffs_text_odd_kind(capsys):
    code, out, _ = run(capsys, "coeffs --l 1 --j 3")
    assert code == 0
    assert out.splitlines()[0] == "c: 1 1 | e: 1 0"


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs --l 3 --j 2 --format json")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == [1, 3, 6, 7, 6, 3, 1]
    assert doc["diff"] == [1, 2, 3, 1]
    assert doc["diff_kind"] == "D"
    assert doc["palindromic"] and doc["unimodal"] and doc["total"] == 27


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs --l 2 --j 2 --format csv")
    assert code == 0
    assert out.splitlines() == ["m,c,diff", "0,1,1", "1,2,1", "2,3,1", "3,2,", "4,1,"]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_coeffs_exits_3_on_a_failed_structure_check(capsys, monkeypatch, fmt):
    # a palindromic vector with total 9 that is not unimodal: the structure
    # checks run before the identity, so the unimodality check names it
    bad = (1, 3, 1, 3, 1)
    monkeypatch.setattr(combinatorics, "coeffs_bruteforce", lambda l, j: bad)
    code, out, err = run(capsys, f"coeffs --l 2 --j 2 --format {fmt}")
    assert code == 3 and out == ""
    assert err == "internal error: c is not unimodal at (l=2, j=2)\n"


def test_identity_text(capsys):
    code, out, _ = run(capsys, "identity --l 2 --j 3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "decomposition holds: True"
    assert lines[1] == "weights: 1 1 1 1"
    assert lines[2] == "degree: 16 = (j+1)^l"


def test_identity_json(capsys):
    code, out, _ = run(capsys, "identity --l 2 --j 2 --format json")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["degree"] == 9
    assert doc["weights"] == [1, 1, 1]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_identity_exits_3_when_the_decomposition_fails(capsys, monkeypatch, fmt):
    # a wrong power sum at top lj = 6 shifts the weighted side by 1, the
    # one of whichever ring the engine runs in
    real = symbolic._power_sum

    def wrong_top(weights, top, x):
        p = real(weights, top, x)
        return p + p**0 if top == 6 else p

    monkeypatch.setattr(symbolic, "_power_sum", wrong_top)
    code, out, err = run(capsys, f"identity --l 3 --j 2 --format {fmt}")
    assert code == 3 and out == ""
    assert err == "internal error: decomposition fails at (l=3, j=2)\n"


def test_exponents_single_text(capsys):
    code, out, _ = run(capsys, "exponents --l 2 --j 2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l: 2  j: 2  parity: even4  D: 9"
    assert lines[1].startswith("theta: 0.76041478010943")
    assert lines[2] == "theta_star: 0.75"


def test_exponents_table_csv(capsys):
    code, out, _ = run(capsys, "exponents --table --format csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,j,parity,D,theta,theta_star,previous,improved"
    assert len(lines) == 15
    assert lines[1].startswith("2,2,even4,9,")
    assert lines[1].endswith(",389/509,True")


def test_exponents_table_json(capsys):
    code, out, _ = run(capsys, "exponents --table --format json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 14
    assert {(r["l"], r["j"]) for r in rows} == {(l, 2) for l in range(2, 9)} | {
        (2, j) for j in range(2, 9)
    }
    assert all(r["improved"] for r in rows)


def test_exponents_table_checks_the_baseline(capsys, monkeypatch):
    # a stored exponent below theta means the table no longer improves on it
    table = {**exponents.PREVIOUS_EXPONENTS, (3, 2): Fraction(1, 2)}
    monkeypatch.setattr(exponents, "PREVIOUS_EXPONENTS", table)
    code, out, err = run(capsys, "exponents --table")
    assert code == 3 and out == ""
    assert "no improvement over baseline at (l=3, j=2)" in err


def test_exponents_single_pair_checks_the_baseline(capsys, monkeypatch):
    table = {**exponents.PREVIOUS_EXPONENTS, (3, 2): Fraction(1, 2)}
    monkeypatch.setattr(exponents, "PREVIOUS_EXPONENTS", table)
    code, out, err = run(capsys, "exponents --l 3 --j 2 --format json")
    assert code == 3 and out == ""
    assert err == "internal error: no improvement over baseline at (l=3, j=2)\n"


@pytest.mark.parametrize("l", [56, 64])
def test_exponents_j1_at_large_l(capsys, l):
    # 1 - theta is below half an ulp of 1.0 here, so theta prints as 1.0;
    # the range check and T_exp read the saving itself
    code, out, err = run(capsys, f"exponents --l {l} --j 1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "theta: 1.0" in lines
    [t_exp] = [line.removeprefix("T_exp: ") for line in lines if line.startswith("T_exp: ")]
    assert 0.0 < float(t_exp) < 1e-16


def test_exponents_pair_required_without_table(capsys):
    code, out, err = run(capsys, "exponents")
    assert code == 2
    assert "need --l and --j" in err


@pytest.mark.parametrize("argv", ["--l 2", "--j 2"])
def test_exponents_table_refuses_a_pair(capsys, argv):
    want = (2, "", "error: --table takes no --l or --j\n")
    assert run(capsys, f"exponents --table {argv}") == want


def test_euler_exact_text(capsys):
    code, out, _ = run(capsys, "euler --l 2 --j 2 --exact --order 2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "  X^0: 1"
    assert lines[2] == "  X^1: 0"
    assert lines[3] == "  X^2: -t^4 + 2*t^2 - 1"


def test_euler_exact_csv(capsys):
    code, out, _ = run(capsys, "euler --l 2 --j 2 --exact --order 1 --format csv")
    assert code == 0
    assert out.splitlines() == ["a,coeff", '0,"1"', '1,"0"']


def test_euler_exact_exits_3_when_x1_does_not_cancel(capsys, monkeypatch):
    # a wrong p_1 shifts the X^1 terms by 1; order 1 stops before Newton's
    # identities divide, so only the decomposition certificate can see it.
    # p_1 is the power sum at x = t: T itself over Z[t], or the integer point
    # at which the certificate evaluates
    real = symbolic._power_sum

    def wrong_p1(weights, top, x):
        p = real(weights, top, x)
        return p + p**0 if x is symbolic.T or isinstance(x, int) else p

    monkeypatch.setattr(symbolic, "_power_sum", wrong_p1)
    code, out, err = run(capsys, "euler --l 2 --j 2 --exact --order 1")
    assert code == 3 and out == ""
    assert err == "internal error: decomposition fails at (l=2, j=2)\n"


def test_euler_float_at_prime(capsys, tmp_path):
    code, out, _ = run(
        capsys, f"euler --l 2 --j 2 --p 2 --order 3 --cache-dir {tmp_path} --format json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 2 and doc["exact"] is False
    coeffs = doc["coeffs"]
    assert len(coeffs) == 4
    assert coeffs[0] == 1.0
    assert abs(coeffs[1]) <= 1e-9  # first-order cancellation
    assert coeffs[2] != 0.0


def test_euler_float_defaults_to_p_2(capsys, tmp_path):
    argv = f"euler --l 2 --j 2 --cache-dir {tmp_path} --format json"
    assert run(capsys, argv) == run(capsys, argv.replace("--j 2", "--j 2 --p 2"))


def test_euler_rejects_composite_p(capsys, tmp_path):
    # and p below 2, which passes the cap check that comes first
    for p in (6, 0, -7):
        code, _, err = run(capsys, f"euler --l 2 --j 2 --p {p} --cache-dir {tmp_path}")
        assert code == 2 and "must be prime" in err, p


def test_euler_large_prime_p_hits_the_cap_at_once(capsys, tmp_path):
    # the cap is checked before trial division, which needs 1e9 steps at this p
    start = time.perf_counter()
    code, _, err = run(
        capsys, f"euler --l 2 --j 2 --p 1000000000000000003 --cache-dir {tmp_path}"
    )
    assert code == 4 and "exceeds limit 1000000" in err
    assert time.perf_counter() - start < 5.0


ORDER = euler.ORDER_CAP + 1
SERIES_CAP = f"series order {ORDER} exceeds limit {euler.ORDER_CAP}"
BAD_PAIR = "l and j must be positive integers, got l=0, j=2"

# (argv, exit code, message), each rejected before any table is read: exact
# (8, 8) at order 24 runs for about 10 s, and a table to p = 999983 takes
# seconds to build and 32 MB to cache
REJECTED = [
    (f"euler --l 8 --j 8 --exact --order {ORDER}", 4, SERIES_CAP),
    (f"euler --l 8 --j 8 --p 2 --order {ORDER}", 4, SERIES_CAP),
    ("euler --l 0 --j 2 --p 999983", 2, BAD_PAIR),
    ("euler --l 2 --j 2 --exact --p 999983", 2, "--exact takes no --p"),
    ("euler --l 2 --j 2 --exact --weight 13", 2, "--exact takes no --weight"),
    ("euler --l 65 --j 1 --p 97", 4, "l*j = 65 exceeds the size cap 64"),
    ("partial-sum --l 2 --j 40 --limit 1000000", 4, "l*j = 80 exceeds the size cap 64"),
    ("partial-sum --l 999 --j 4 --limit 1000", 4, "l*j = 3996 exceeds the size cap 64"),
    ("partial-sum --l 999 --j 3 --limit 1000", 4, "l*j = 2997 exceeds the size cap 64"),
    # the sieve's cost grows with j: about 9 s here past an uncapped pair rule
    ("partial-sum --l 1 --j 1000001 --limit 100", 4, "l*j = 1000001 exceeds the size cap 64"),
    ("partial-sum --l 0 --j 2 --limit 100", 2, BAD_PAIR),
    (
        "partial-sum --l -1 --j 3 --limit 1000000",
        2,
        "l and j must be positive integers, got l=-1, j=3",
    ),
]


@pytest.mark.parametrize("argv, want_code, want_err", REJECTED, ids=[c[0] for c in REJECTED])
def test_rejected_arguments_exit_before_any_table(capsys, tmp_path, argv, want_code, want_err):
    start = time.perf_counter()
    code, out, err = run(capsys, f"{argv} --cache-dir {tmp_path}")
    assert code == want_code and out == ""
    assert err == f"error: {want_err}\n"
    assert time.perf_counter() - start < 1.0
    assert list(tmp_path.iterdir()) == []


PAIR_COMMANDS = [
    "coeffs",
    "identity",
    "exponents",
    "euler --exact",
    "euler --p 97",
    "partial-sum --limit 100",
]


@pytest.mark.parametrize("argv", PAIR_COMMANDS)
def test_every_pair_command_takes_one_rule(capsys, tmp_path, monkeypatch, argv):
    # combinatorics.check_pair is the one (l, j) rule, odd pairs included
    monkeypatch.setenv("SYMMOMENT_CACHE", str(tmp_path))
    code, out, err = run(capsys, f"{argv} --l 13 --j 5")
    assert code == 4 and out == ""
    assert err == "error: l*j = 65 exceeds the size cap 64\n"
    assert list(tmp_path.iterdir()) == []


def digit_bytes(weight, raw):
    """The cache file of the table raw = a(0..N)."""
    return digits_of(weight, raw).astype("<i4").tobytes()


@pytest.mark.parametrize("weight", hecke.SUPPORTED_WEIGHTS)
def test_tau_csv_matches_cache_file(capsys, tmp_path, weight):
    # the cache file holds the digits of the integers `tau --format csv` prints
    argv = f"tau --weight {weight} --limit 10 --cache-dir {tmp_path} --format csv"
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a_n"
    assert lines[1] == "1,1"
    a2 = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}[weight]
    assert lines[2] == f"2,{a2}"
    if weight == 12:
        assert lines[10] == "10,-115920"
    raw = [0] + [int(line.split(",")[1]) for line in lines[1:]]
    assert (tmp_path / f"tau_{weight}_10.b32").read_bytes() == digit_bytes(weight, raw)
    code, again, err = run(capsys, argv)  # read back from the cache
    assert code == 0 and err == "" and again == out


@pytest.mark.parametrize(
    "fmt, head, line",
    [("csv", ["n,a_n"], "{},{}".format), ("text", [], "a({}) = {}".format)],
    ids=["csv", "text"],
)
def test_tau_rows_across_chunk_boundaries(capsys, tmp_path, delta_1e5, fmt, head, line):
    # tau writes 65,536 rows per chunk, so N = 1e5 takes two, the second
    # short; the golden records stop at N = 300, inside the first
    hecke.save_table(delta_1e5, str(tmp_path))
    code, out, err = run(capsys, f"tau --limit 100000 --cache-dir {tmp_path} --format {fmt}")
    assert code == 0 and err == ""
    raw = delta_1e5.raw
    assert out.splitlines() == head + [line(n, raw[n]) for n in range(1, 100_001)]
    assert out.endswith("\n") and not out.endswith("\n\n")


def corrupt_cache(capsys, tmp_path, edit, limit=1000):
    """Build the weight-12 cache to `limit`, pass its bytes through `edit`,
    and run tau again."""
    argv = f"tau --limit {limit} --cache-dir {tmp_path}"
    code, _, _ = run(capsys, argv)
    assert code == 0
    cache_file = tmp_path / f"tau_12_{limit}.b32"
    cache_file.write_bytes(edit(cache_file.read_bytes()))
    return run(capsys, argv)


def test_tau_corrupted_cache_exit_3(capsys, tmp_path):
    raw = list(hecke.eigenform_qexp(12, 20).raw)
    assert raw[6] == -6048
    raw[6] = -6049
    code, out, err = corrupt_cache(capsys, tmp_path, lambda body: digit_bytes(12, raw), 20)
    assert code == 3 and out == ""
    assert "internal error: a(6) != sigma_11(6) mod 691" in err


def test_tau_cache_a_99991_plus_one_exit_3(capsys, tmp_path, delta_1e5):
    # a(99991) + 1 once loaded and tau exited 0: the spot check read only
    # p = 2, 3, 5 and four products
    raw = list(delta_1e5.raw)
    raw[99991] += 1
    write_cache(12, raw, tmp_path)
    code, out, err = run(capsys, f"tau --limit 100000 --cache-dir {tmp_path}")
    assert code == 3 and out == ""
    assert "a(99991) != sigma_11(99991) mod 691" in err


def test_tau_cache_a_p_plus_one_past_half_of_n_exit_3(capsys, tmp_path):
    # no multiple of 997 but itself lies below 1000, so multiplicativity
    # cannot see a(997)
    raw = list(hecke.eigenform_qexp(26, 1000).raw)
    raw[997] += 1
    write_cache(26, raw, tmp_path)
    code, out, err = run(capsys, f"tau --weight 26 --limit 1000 --cache-dir {tmp_path}")
    assert code == 3 and out == ""
    assert "a(997) != sigma_25(997) mod 657931" in err


@pytest.mark.parametrize("fault", ["digit", "length"])
def test_tau_higher_weight_on_a_corrupt_delta_exit_3(capsys, tmp_path, fault):
    # a weight above 12 is built on Delta's cache file; one that fails the
    # certificate stops the build, and no table of the weight is written
    primes = hecke.crt_primes(12, 1000)
    code, _, _ = run(capsys, f"tau --limit 1000 --cache-dir {tmp_path}")
    assert code == 0
    delta = tmp_path / "tau_12_1000.b32"
    body = delta.read_bytes()
    if fault == "digit":
        digits = np.frombuffer(body, "<i4").reshape(len(primes), 1001).copy()
        assert abs(digits[0, 997] + 1) <= primes[0] // 2
        digits[0, 997] += 1
        body, message = digits.tobytes(), "a(997) != sigma_11(997) mod 691 at weight 12"
    else:
        body, message = body[:-4], "has 12008 bytes, expected 12012"
    delta.write_bytes(body)
    code, out, err = run(capsys, f"tau --weight 16 --limit 1000 --cache-dir {tmp_path}")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and message in err
    assert not (tmp_path / "tau_16_1000.b32").exists()


def test_tau_cache_truncated_file_exit_3(capsys, tmp_path):
    code, out, err = corrupt_cache(capsys, tmp_path, lambda body: body[:-4])
    assert code == 3 and out == ""
    assert "internal error" in err and "has 12008 bytes, expected 12012" in err


def test_tau_cache_trailing_bytes_exit_3(capsys, tmp_path):
    # np.fromfile would drop a partial int32 without a word
    code, out, err = corrupt_cache(capsys, tmp_path, lambda body: body + b"\0\0")
    assert code == 3 and out == ""
    assert "internal error" in err and "has 12014 bytes, expected 12012" in err


@pytest.mark.parametrize("value", ["prime", "h+1", "-h-1"])
def test_tau_cache_digit_outside_its_prime_exit_3(capsys, tmp_path, value):
    # a balanced digit of p lies in [-h, h], h = p // 2; -1 is one of them
    primes = hecke.crt_primes(12, 1000)
    h = primes[1] // 2
    digit = {"prime": primes[1], "h+1": h + 1, "-h-1": -h - 1}[value]

    def edit(body):
        digits = np.frombuffer(body, "<i4").reshape(len(primes), 1001).copy()
        digits[1, 500] = digit
        return digits.tobytes()

    code, out, err = corrupt_cache(capsys, tmp_path, edit)
    assert code == 3 and out == ""
    assert f"digit 1 of a(500) outside [-{h}, {h}]" in err


@pytest.mark.parametrize(
    "argv, name, want",
    [
        ("--limit 0", "tau_12_0.b32", 2),
        ("--weight 13 --limit 10", "tau_13_10.b32", 2),
        ("--limit 1000001", "tau_12_1000001.b32", 4),
    ],
)
def test_tau_planted_cache_file_keeps_argument_checks(capsys, tmp_path, argv, name, want):
    # weight and N are checked before a cache file is opened; a header-only
    # tau_12_0.csv once gave an IndexError traceback
    (tmp_path / name).write_bytes(bytes(4))
    code, out, err = run(capsys, f"tau {argv} --cache-dir {tmp_path}")
    assert code == want and out == ""
    assert err.startswith("error: ")


def test_tau_ignores_an_old_csv_cache(capsys, tmp_path):
    (tmp_path / "tau_12_10.csv").write_text("n,a_n\n1,2\n")
    code, out, err = run(capsys, f"tau --limit 10 --cache-dir {tmp_path} --format csv")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "1,1"
    assert (tmp_path / "tau_12_10.b32").exists()


def test_tau_ignores_a_parent_format_digit_cache(capsys, tmp_path):
    # `.i32` caches held the unbalanced digits of a(n) + H, H = (M - 1)/2;
    # digit 0 of a(1) is then (p_0 + 1)/2, outside the balanced range, so
    # such a file is never read as a table: it is left as it is and the
    # table is rebuilt into its `.b32` file
    raw = hecke.eigenform_qexp(12, 10).raw
    primes = hecke.crt_primes(12, 10)
    old = np.zeros((len(primes), 11), dtype="<i4")
    for n, a in enumerate(raw):
        x = a + math.prod(primes) // 2
        for i, p in enumerate(primes):
            x, old[i, n] = divmod(x, p)
    assert old[0, 1] == (primes[0] + 1) // 2
    with pytest.raises(ConsistencyError, match=r"digit 0 of a\(1\) outside"):
        hecke.EigenformTable(12, 10, old.astype(np.int32))
    stale = tmp_path / "tau_12_10.i32"
    stale.write_bytes(old.tobytes())
    code, out, err = run(capsys, f"tau --limit 10 --cache-dir {tmp_path} --format csv")
    assert code == 0 and err == ""
    assert out.splitlines() == ["n,a_n"] + [f"{n},{raw[n]}" for n in range(1, 11)]
    assert stale.read_bytes() == old.tobytes()
    assert (tmp_path / "tau_12_10.b32").read_bytes() == digit_bytes(12, raw)


def test_tau_cache_dir_under_a_file_exit_2(capsys, tmp_path):
    # os.makedirs in cached_eigenform raises NotADirectoryError here, which
    # once escaped as a traceback with exit 1
    (tmp_path / "F").write_text("")
    code, out, err = run(capsys, f"tau --limit 10 --cache-dir {tmp_path / 'F' / 'sub'}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_tau_cache_file_is_a_directory_exit_2(capsys, tmp_path):
    # open in load_table once raised IsADirectoryError, exit 1
    (tmp_path / "tau_12_10.b32").mkdir()
    code, out, err = run(capsys, f"tau --limit 10 --cache-dir {tmp_path}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_cache_dir_holds_only_tables(capsys, tmp_path):
    # each writer renames its own temp file into place, or removes it
    runs = ("tau --limit 30", "partial-sum --l 2 --j 2 --limit 40", "euler --l 2 --j 2 --p 97")
    for argv in runs:
        code, _, _ = run(capsys, f"{argv} --cache-dir {tmp_path}")
        assert code == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["tau_12_30.b32", "tau_12_40.b32", "tau_12_97.b32"]


def test_tau_failed_cache_write_exit_2_leaves_no_temp_file(capsys, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, f"tau --limit 10 --cache-dir {tmp_path}")
    assert code == 2 and out == ""
    assert err == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", ["tau", "partial-sum --l 2 --j 2"])
def test_cache_dir_that_is_a_file_exits_2_before_any_table(capsys, tmp_path, argv):
    # the directory is made before the table is built, which takes seconds
    (tmp_path / "F").write_text("")
    start = time.perf_counter()
    code, out, err = run(capsys, f"{argv} --limit 1000000 --cache-dir {tmp_path / 'F'}")
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 17] File exists")
    assert time.perf_counter() - start < 1.0


def test_env_cache_dir_override(capsys, tmp_path, monkeypatch):
    # the parser is built once per process; the variable is read on every call
    for name in ("a", "b"):
        monkeypatch.setenv("SYMMOMENT_CACHE", str(tmp_path / name))
        code, _, _ = run(capsys, "tau --limit 10")
        assert code == 0
        assert (tmp_path / name / "tau_12_10.b32").exists()


def test_partial_sum_csv(capsys, tmp_path):
    code, out, _ = run(
        capsys, f"partial-sum --l 2 --j 2 --limit 1000 --cache-dir {tmp_path} --format csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,S,main_fit,residual"
    assert lines[-1].startswith("1000,")
    assert lines[-1].count(",") == 3 and not lines[-1].endswith(",,")


def test_partial_sum_l1_fit_degenerates_gracefully(capsys, tmp_path):
    code, out, _ = run(
        capsys, f"partial-sum --l 1 --j 2 --limit 500 --cache-dir {tmp_path}"
    )
    assert code == 0
    assert "fit unavailable" in out


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_partial_sum_fit_past_the_size_cap_exits_4(capsys, tmp_path, fmt):
    # l*j = 80 is even, so the fit needs the weights, which are capped at 64
    code, out, err = run(
        capsys, f"partial-sum --l 2 --j 40 --limit 100 --cache-dir {tmp_path} --format {fmt}"
    )
    assert code == 4 and out == ""
    assert err == "error: l*j = 80 exceeds the size cap 64\n"


@pytest.mark.filterwarnings("error")  # and no numpy RuntimeWarning on the way
def test_partial_sum_overflow_exits_2(capsys, tmp_path, monkeypatch):
    # no pair within the cap overflows, so the terms are planted: inf, as
    # 1e200^2 would be
    monkeypatch.setattr(sums, "sym_coeff_sieve", lambda j, form, l: np.full(form.limit + 1, np.inf))
    code, out, err = run(
        capsys, f"partial-sum --l 2 --j 1 --limit 100 --cache-dir {tmp_path} --format json"
    )
    assert code == 2 and out == ""
    assert err == "error: l out of range: S(1) overflows a float at l=2\n"


def test_partial_sum_odd_has_no_fit_columns(capsys, tmp_path):
    code, out, _ = run(
        capsys, f"partial-sum --l 1 --j 3 --limit 500 --cache-dir {tmp_path} --format csv"
    )
    assert code == 0
    assert all(line.endswith(",,") for line in out.splitlines()[1:])


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "coeffs --l 0 --j 2")
    assert code == 2 and "error:" in err


def test_exit_code_capacity_coeffs(capsys):
    code, _, err = run(capsys, "coeffs --l 13 --j 5")
    assert code == 4 and "error:" in err


def test_exit_code_capacity_tau(capsys, tmp_path):
    code, _, err = run(capsys, f"tau --limit 2000000 --cache-dir {tmp_path}")
    assert code == 4


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "--l", "2"])  # missing required --j
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        # float euler sizes its table from --p; there is no --limit
        cli.main("euler --l 2 --j 2 --p 2 --limit 5".split())
    assert exc.value.code == 2
    capsys.readouterr()


PARSE_CASES = {
    **{" ".join(argv): argv for argv in CASES.values()},
    "(empty)": [],
    "-h": ["-h"],
    "coeffs -h": ["coeffs", "-h"],
    "coeffs --l 2 --j 2 -- 7": "coeffs --l 2 --j 2 -- 7".split(),
}


def _parsed(parse, argv, capsys):
    try:
        got = ("parsed", parse(argv))
    except SystemExit as exc:
        got = ("exit", exc.code)
    out, err = capsys.readouterr()
    return got + (out, err)


@pytest.mark.parametrize("line", sorted(PARSE_CASES))
def test_main_parses_as_the_full_parser(line, capsys, monkeypatch):
    # main parses a line by its subcommand's parser alone when it can; what
    # reaches the handler, or how the parse exits, must be argparse's own
    argv = PARSE_CASES[line]

    def through_main(argv):
        seen = []

        def handler(args):
            seen.append(dict(vars(args)))
            return 0

        for name in cli.subcommand_parsers():
            monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), handler)
        assert cli.main(argv) == 0
        [args] = seen
        return args

    want = _parsed(lambda argv: vars(cli.build_parser().parse_args(argv)), argv, capsys)
    assert _parsed(through_main, argv, capsys) == want


def test_every_subcommand_resolves_to_a_module_level_handler():
    # main looks the handler up by name at call time, so a subcommand without
    # one fails here rather than at its first run
    for name in cli.subcommand_parsers():
        fn = getattr(cli, "cmd_" + name.replace("-", "_"), None)
        assert inspect.isfunction(fn) and fn.__module__ == cli.__name__, name


def test_byte_determinism_across_runs(capsys, tmp_path):
    argvs = [
        "exponents --table --format json",
        "coeffs --l 4 --j 3 --format csv",
        f"partial-sum --l 2 --j 2 --limit 2000 --cache-dir {tmp_path} --format json",
    ]
    for argv in argvs:
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)  # second run hits the cache path
        assert first == second and first
