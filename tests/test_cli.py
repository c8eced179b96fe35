import json
import time
from fractions import Fraction

import pytest

from symmoment import cli, exponents, hecke


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


@pytest.mark.parametrize("l", [56, 64])
def test_exponents_j1_at_large_l(capsys, l):
    # 1 - theta is below half an ulp of 1.0 here, so theta prints as 1.0;
    # the range check runs on the saving itself
    code, out, err = run(capsys, f"exponents --l {l} --j 1")
    assert code == 0 and err == ""
    assert "theta: 1.0" in out.splitlines()


def test_exponents_pair_required_without_table(capsys):
    code, out, err = run(capsys, "exponents")
    assert code == 2
    assert "need --l and --j" in err


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


def test_tau_csv_matches_cache_file(capsys, tmp_path):
    code, out, _ = run(capsys, f"tau --limit 10 --cache-dir {tmp_path} --format csv")
    assert code == 0
    cache_file = tmp_path / "tau_12_10.csv"
    assert cache_file.read_text() == out
    lines = out.splitlines()
    assert lines[0] == "n,a_n"
    assert lines[1] == "1,1"
    assert lines[2] == "2,-24"
    assert lines[10] == "10,-115920"


def test_tau_corrupted_cache_exit_3(capsys, tmp_path):
    code, _, _ = run(capsys, f"tau --limit 20 --cache-dir {tmp_path}")
    assert code == 0
    capsys.readouterr()
    cache_file = tmp_path / "tau_12_20.csv"
    text = cache_file.read_text()
    assert "\n6,-6048\n" in text
    cache_file.write_text(text.replace("\n6,-6048\n", "\n6,-6049\n"))
    code, out, err = run(capsys, f"tau --limit 20 --cache-dir {tmp_path}")
    assert code == 3
    assert "internal error" in err


def corrupt_cache_row(capsys, tmp_path, n, replacement, limit=1000):
    """Build the weight-12 cache to `limit`, then replace the row of n."""
    argv = f"tau --limit {limit} --cache-dir {tmp_path}"
    code, _, _ = run(capsys, argv)
    assert code == 0
    cache_file = tmp_path / f"tau_12_{limit}.csv"
    lines = cache_file.read_text().splitlines()
    assert lines[n].startswith(f"{n},")
    lines[n] = replacement(lines)
    cache_file.write_text("\n".join(lines) + "\n")
    return run(capsys, argv)


def test_tau_cache_duplicate_row_exit_3(capsys, tmp_path):
    # a second row 17 in place of row 19 once loaded silently with a(19) = 0
    code, out, err = corrupt_cache_row(capsys, tmp_path, 19, lambda lines: lines[17])
    assert code == 3 and out == ""
    assert "internal error" in err and "row 19 holds n=17" in err


def test_tau_cache_non_integer_field_exit_3(capsys, tmp_path):
    # once reported as a usage error (exit 2)
    code, out, err = corrupt_cache_row(capsys, tmp_path, 5, lambda lines: "5,4830.5")
    assert code == 3 and out == ""
    assert "internal error" in err and "row 5" in err


def test_tau_cache_missing_field_exit_3(capsys, tmp_path):
    # once an IndexError traceback
    code, out, err = corrupt_cache_row(capsys, tmp_path, 7, lambda lines: "7")
    assert code == 3 and out == ""
    assert "internal error" in err and "row 7" in err


def test_tau_cache_three_fields_exit_3(capsys, tmp_path):
    code, out, err = corrupt_cache_row(capsys, tmp_path, 9, lambda lines: lines[9] + ",0")
    assert code == 3 and out == ""
    assert "internal error" in err and "row 9" in err


def test_tau_cache_extra_row_exit_3(capsys, tmp_path):
    code, out, err = corrupt_cache_row(
        capsys, tmp_path, 1000, lambda lines: lines[1000] + "\n1001,0"
    )
    assert code == 3 and out == ""
    assert "has 1001 rows, expected 1000" in err


def test_tau_cache_crlf_line_ends_load_the_same(capsys, tmp_path):
    argv = f"tau --limit 1000 --cache-dir {tmp_path} --format csv"
    code, first, _ = run(capsys, argv)
    assert code == 0
    cache_file = tmp_path / "tau_12_1000.csv"
    text = cache_file.read_text()
    cache_file.write_bytes(text.replace("\n", "\r\n").encode())
    code, second, err = run(capsys, argv)
    assert code == 0 and err == "" and second == first


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda row: f"{row},1.5", "malformed cache row {row}"),
        (lambda row: f"{row - 1},0", "row {row} holds n={prev}"),
    ],
)
def test_tau_cache_fault_past_the_first_parse_chunk_exit_3(
    capsys, tmp_path, corrupt, message
):
    # the cache is parsed in chunks of about hecke._PARSE_CHUNK characters;
    # the row at twice that offset lies in the second chunk or later
    limit = 6000
    code, text, _ = run(capsys, f"tau --limit {limit} --cache-dir {tmp_path} --format csv")
    assert code == 0
    row = text[: 2 * hecke._PARSE_CHUNK].count("\n")
    assert row < limit
    code, out, err = corrupt_cache_row(
        capsys, tmp_path, row, lambda lines: corrupt(row), limit=limit
    )
    assert code == 3 and out == ""
    assert message.format(row=row, prev=row - 1) in err


def test_env_cache_dir_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SYMMOMENT_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "tau --limit 10")
    assert code == 0
    assert (tmp_path / "tau_12_10.csv").exists()


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
    capsys.readouterr()


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
