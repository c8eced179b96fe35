"""Every benchmark check must pass on real output and fail on a corrupted one.

    python3 -m pytest -q bench/test_checks.py

Real outputs come from `symmoment.cli.main` at small sizes. Each
corruption breaks exactly one property, and the test asserts that the
check meant for that property is the one that fires.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

from symmoment import cli  # noqa: E402

N = 1000


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="module")
def tables(cache):
    return {w: run_cli("tau", "--weight", w, "--limit", N, "--cache-dir", cache, "--format", "csv")
            for w in (12, 16)}


def edit_row(text, n, new_value):
    lines = text.split("\n")
    lines[n] = f"{n},{new_value}"
    return "\n".join(lines)


def value(text, n):
    return int(text.split("\n")[n].split(",")[1])


def check_table_text(text, weight=12, sample=(2, 500, 997)):
    checks.check_table(checks.parse_table(text, N), weight, list(sample))


# ---------------------------------------------------------------------------
# tables


def test_real_tables_pass(tables):
    for w, text in tables.items():
        check_table_text(text, w)


def test_moduli_are_the_bernoulli_numerators():
    want = {12: 691, 16: 3617, 18: 43867, 20: 283 * 617, 22: 131 * 593, 26: 657931}
    assert {k: checks.eisenstein_modulus(k) for k in want} == want


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda t: t.replace("n,a_n", "n,a"), "header"),
        (lambda t: edit_row(t, 19, value(t, 17)).replace("\n19,", "\n17,"), "row 19"),
        (lambda t: edit_row(t, 997, value(t, 997) + 1), "congruence mod 691"),
        (lambda t: edit_row(t, 5, "12.5"), "non-integer"),
        (lambda t: t.replace("\n7,", "\n7"), "row 7"),
        (lambda t: t[: t.index("\n1000,")] + "\n", "row count"),
        (lambda t: edit_row(t, 991, value(t, 991) + 691 * 10**30), "Deligne"),
        (lambda t: edit_row(t, 6, value(t, 6) + 691), "a\\(6\\) != a\\(2\\) a\\(3\\)"),
        (lambda t: edit_row(t, 8, value(t, 8) + 691), "Hecke recursion fails at 8"),
        (lambda t: edit_row(t, 997, value(t, 997) + 2 * 691), "sigma_5 formula"),
    ],
)
def test_corrupted_tau_table_fails(tables, corrupt, match):
    with pytest.raises(CheckError, match=match):
        check_table_text(corrupt(tables[12]))


def test_corrupted_weight16_table_fails(tables):
    bad = edit_row(tables[16], 10, value(tables[16], 10) + 1)
    with pytest.raises(CheckError, match="congruence mod 3617"):
        check_table_text(bad, 16)


def test_cache_round_trip_must_be_byte_equal(tables, cache):
    warm = run_cli("tau", "--weight", 12, "--limit", N, "--cache-dir", cache, "--format", "csv")
    checks.check_same(warm, tables[12])
    with pytest.raises(CheckError, match="cached output"):
        checks.check_same(warm.replace("\n", "\r\n"), tables[12])


# ---------------------------------------------------------------------------
# partial sums


@pytest.fixture(scope="module")
def moment_ref(tables):
    return checks.MomentReference(checks.parse_table(tables[12], N), 12)


def partial_sum(cache, l, j):
    return run_cli("partial-sum", "--l", l, "--j", j, "--limit", N, "--cache-dir", cache,
                   "--format", "json")


def test_qbinomial_matches_library():
    from symmoment.hecke import sym_prime_power

    for j in range(1, 6):
        for a in range(0, 6):
            for t in (-2.0, -1.3, 0.0, 0.4, 1.9999, 2.0):
                assert abs(checks.sym_prime_power(j, a, t) - sym_prime_power(j, a, t)) < 1e-9


@pytest.mark.parametrize("l, j", [(1, 4), (2, 2), (3, 3), (4, 2), (6, 2)])
def test_real_partial_sums_pass(cache, moment_ref, l, j):
    checks.check_partial_sum(partial_sum(cache, l, j), l, j, N, moment_ref)


def _doc_edit(fn):
    def corrupt(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc)
    return corrupt


def _shift_fit(doc):
    # move the fit off the least-squares optimum but keep residuals consistent
    doc["fit"]["coeffs"][0] += 1e-3
    q = doc["fit"]["coeffs"]
    doc["fit"]["residuals"] = [[x, s - checks._poly_log(q, x)] for x, s in doc["checkpoints"]]


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_doc_edit(lambda d: d["checkpoints"][-3].__setitem__(1, d["checkpoints"][-3][1] * (1 + 1e-7))),
         "fsum gives"),
        (_doc_edit(lambda d: d["checkpoints"][0].__setitem__(0, d["checkpoints"][0][0] + 1)),
         "checkpoints differ"),
        (_doc_edit(lambda d: d.__setitem__("fit", None)), "fit present"),
        (_doc_edit(lambda d: d["fit"].__setitem__("degree", 1)), "fit degree"),
        (_doc_edit(lambda d: d["fit"]["residuals"][4].__setitem__(1, 1.0)), "fit residual wrong"),
        (_doc_edit(_shift_fit), "least squares"),
        (_doc_edit(lambda d: d["residual_exponent"].__setitem__("slope", d["residual_exponent"]["slope"] + 1e-4)),
         "residual slope"),
        (_doc_edit(lambda d: d["residual_exponent"].__setitem__("stderr", d["residual_exponent"]["stderr"] * 1.01)),
         "stderr"),
        (_doc_edit(lambda d: d["residual_exponent"].__setitem__("points", 3)), "point count"),
        (_doc_edit(lambda d: d.__setitem__("weight", 16)), "wrong weight"),
    ],
)
def test_corrupted_partial_sum_fails(cache, moment_ref, corrupt, match):
    with pytest.raises(CheckError, match=match):
        checks.check_partial_sum(corrupt(partial_sum(cache, 2, 2)), 2, 2, N, moment_ref)


def test_refused_fit_must_stay_refused(cache, moment_ref):
    good = json.loads(partial_sum(cache, 2, 2))
    bad = json.loads(partial_sum(cache, 6, 2))
    bad["fit"] = good["fit"]
    with pytest.raises(CheckError, match="fit present"):
        checks.check_partial_sum(json.dumps(bad), 6, 2, N, moment_ref)


# ---------------------------------------------------------------------------
# coeffs, identity, exponents, euler


def test_real_local_outputs_pass(cache):
    for l, j in [(1, 5), (2, 2), (3, 3), (8, 8), (64, 1)]:
        checks.check_coeffs(run_cli("coeffs", "--l", l, "--j", j, "--format", "json"), l, j)
        checks.check_identity(run_cli("identity", "--l", l, "--j", j, "--format", "json"), l, j)
    table = [(l, 2) for l in range(2, 9)] + [(2, j) for j in range(2, 9)]
    checks.check_exponents(run_cli("exponents", "--table", "--format", "json"), table)
    checks.check_euler_exact(run_cli("euler", "--l", 3, "--j", 3, "--exact", "--format", "json"),
                             3, 3, 6)
    out = run_cli("euler", "--l", 8, "--j", 2, "--p", 101, "--cache-dir", cache, "--format", "json")
    checks.check_euler_float(out, 8, 2, 101, 6)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_doc_edit(lambda d: d["c"].__setitem__(0, 2)), "total"),
        (_doc_edit(lambda d: d["c"].__setitem__(slice(0, 2), [3, 1])), "palindromic"),
        (_doc_edit(lambda d: d.__setitem__("diff", [1, 2, 3, 2])), "first difference"),
        (_doc_edit(lambda d: d.__setitem__("diff_kind", "E")), "diff_kind"),
        (_doc_edit(lambda d: d.__setitem__("unimodal", False)), "unimodal"),
    ],
)
def test_corrupted_coeffs_fail(corrupt, match):
    with pytest.raises(CheckError, match=match):
        checks.check_coeffs(corrupt(run_cli("coeffs", "--l", 3, "--j", 2, "--format", "json")), 3, 2)


def test_palindromic_counts_that_are_not_compositions_fail():
    doc = json.loads(run_cli("coeffs", "--l", 2, "--j", 3, "--format", "json"))
    doc["c"] = [1, 2, 4, 2, 4, 2, 1]  # total 16, palindromic, but not (1+x+x^2+x^3)^2
    with pytest.raises(CheckError, match="composition counts"):
        checks.check_coeffs(json.dumps(doc), 2, 3)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_doc_edit(lambda d: d.__setitem__("degree", d["degree"] + 1)), "degree"),
        (_doc_edit(lambda d: d.__setitem__("holds", False)), "not to hold"),
        (_doc_edit(lambda d: d["weights"].__setitem__(0, 2)), "weights"),
        (_doc_edit(lambda d: d["lhs_coeffs"].__setitem__(0, 5)), "lhs_coeffs"),
    ],
)
def test_corrupted_identity_fails(corrupt, match):
    text = run_cli("identity", "--l", 3, "--j", 3, "--format", "json")
    with pytest.raises(CheckError, match=match):
        checks.check_identity(corrupt(text), 3, 3)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_doc_edit(lambda d: d[0].__setitem__("D", 10)), "D wrong"),
        (_doc_edit(lambda d: d[0].__setitem__("parity", "odd")), "parity"),
        (_doc_edit(lambda d: d[1].__setitem__("theta", 1.0)), "theta out"),
        (_doc_edit(lambda d: d[1].__setitem__("theta_star", 0.999999)), "theta_star"),
        (_doc_edit(lambda d: d[2].__setitem__("improved", not d[2]["improved"])), "improved"),
        (_doc_edit(lambda d: d.pop()), "wrong pairs"),
    ],
)
def test_corrupted_exponents_fail(corrupt, match):
    table = [(l, 2) for l in range(2, 9)] + [(2, j) for j in range(2, 9)]
    text = run_cli("exponents", "--table", "--format", "json")
    with pytest.raises(CheckError, match=match):
        checks.check_exponents(corrupt(text), table)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_doc_edit(lambda d: d["coeffs"].__setitem__(1, "t^2 - 1")), "zero polynomial"),
        (_doc_edit(lambda d: d["coeffs"].__setitem__(0, "2")), "X\\^0"),
        (_doc_edit(lambda d: d["coeffs"].pop()), "shape"),
    ],
)
def test_corrupted_exact_euler_fails(corrupt, match):
    text = run_cli("euler", "--l", 2, "--j", 2, "--exact", "--format", "json")
    with pytest.raises(CheckError, match=match):
        checks.check_euler_exact(corrupt(text), 2, 2, 6)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_doc_edit(lambda d: d["coeffs"].__setitem__(1, 1e-6)), "exceeds"),
        (_doc_edit(lambda d: d["coeffs"].__setitem__(0, 1.001)), "X\\^0"),
        (_doc_edit(lambda d: d["coeffs"].__setitem__(3, float("nan"))), "finite"),
        (_doc_edit(lambda d: d.__setitem__("p", 103)), "wrong input"),
    ],
)
def test_corrupted_float_euler_fails(cache, corrupt, match):
    text = run_cli("euler", "--l", 8, "--j", 2, "--p", 101, "--cache-dir", cache, "--format", "json")
    with pytest.raises(CheckError, match=match):
        checks.check_euler_float(corrupt(text), 8, 2, 101, 6)


# ---------------------------------------------------------------------------
# the entry point


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_worker_metrics_match_benchmark_json():
    import worker

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(worker.OWNED)
