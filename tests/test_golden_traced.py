"""The golden records replayed under the benchmark's span tracer.

`bench/tracer.py` wraps every public function of the seven layers that
`bench/worker.py` traces, and its hooks read the arguments and results of
named functions. This replays every golden command in-process with that
tracer installed, so a change to a traced name or call path that breaks a
hook, or a wrapper that changes an output, fails here and not only in a
benchmark run. The benchmark's per-layer metric names are checked against
the library here as well.
"""

import importlib
import inspect
import json
import pathlib
import re
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from test_golden import CASES, GOLDEN, prepare, record  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402
from worker import LAYERS  # noqa: E402

from symmoment import cli  # noqa: E402


def test_golden_records_replay_under_the_tracer(tmp_path):
    # the parser is cached before the handlers are wrapped, as in a benchmark
    # round after its first run
    cli.build_parser()
    tracer = Tracer(LAYERS, HOOKS)
    tracer.install()
    try:
        workdir = prepare(tmp_path)
        got = {name: record(argv, workdir) for name, argv in CASES.items()}
    finally:
        tracer.uninstall()
    for name, text in got.items():
        assert text == (GOLDEN / f"{name}.txt").read_text(), name
    # every hook ran, on the float and the exact local factors alike
    names = {span[0] for span in tracer.spans}
    assert {"euler.correction_series", "euler.correction_series_sym"} <= names
    # the exact X^1 term is certified by the one decomposition certificate
    assert any(
        name == "symbolic.verify_decomposition"
        and parent >= 0
        and tracer.spans[parent][0] == "euler.correction_series_sym"
        for name, _, _, parent, _ in tracer.spans
    )
    assert {"hecke.series_mul", "hecke.save_table", "euler.rhs_local"} <= names
    assert tracer.counters["euler.rhs_local.root_steps"] > 0
    assert tracer.counters["hecke.series_mul.out_terms"] > 0
    assert tracer.counters["hecke.cache_bytes"] > 0
    assert tracer.peaks["euler.x1_residual_max"] < 1e-9
    # main finds each handler when it runs, so every subcommand's is seen
    subcommands = {
        argv[0]
        for name, argv in CASES.items()
        if got[name].startswith("exit 0\n") and "--help" not in argv
    }
    assert len(subcommands) == 6
    assert {"cli.cmd_" + cmd.replace("-", "_") for cmd in subcommands} <= names


def test_benchmark_layer_names_resolve():
    # a `<module>.<function>.<s|self_s|calls>` metric reads the tracer's spans
    # of that function; after a rename it would be empty in every run, and
    # no benchmark check would fail
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    traced = [re.fullmatch(r"(\w+)\.(\w+)\.(s|self_s|calls)", n) for n in names]
    traced = [m for m in traced if m]
    assert traced
    for m in traced:
        module = importlib.import_module(f"symmoment.{m[1]}")
        fn = getattr(module, m[2], None)
        # the tracer names a span after the module that defines the function
        assert not m[2].startswith("_") and inspect.isfunction(fn), m[0]
        assert fn.__module__ == module.__name__, m[0]
