"""Reach census: which functions under ``src/repro`` the workloads call.

Runs, in this one process, the five wall-clock ledger workloads at smoke
size with tracing on (``benchmarks/perf/run.py --smoke --trace 1`` per
workload), the fig1/fig5 paper-figure benchmark modules and the two CI
streams of the differential SQL fuzzer (``HYPOTHESIS_PROFILE=ci``, once over
plain tables and once with ``REPRO_FUZZ_PARTITIONS=4``), the last two
through ``pytest.main``, with a ``sys.setprofile``/``threading.setprofile``
hook recording every function call into ``src/repro``.  Then prints, per
module, how many of the functions it defines were called at least once,
lowest share first::

    python tools/reach.py

A function is a code object compiled from the module's source: ``def``s and
methods, nested ones included; class bodies, lambdas and comprehensions are
not counted.  A module at 0 is code no workload, figure or fuzz stream
reaches.  Takes a few minutes; the profile hook slows every Python call.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import os
import sys
import threading
from typing import Dict, Iterator, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")
PERF_DIR = os.path.join(REPO, "benchmarks", "perf")
WORKLOADS = ("job_cold", "job_hot", "stocks_agg", "wide_scan", "server_churn")
FIGURES = ("test_fig1_top20.py", "test_fig5_feedback_loop.py")
FUZZ = os.path.join(REPO, "tests", "property", "test_sql_fuzz_differential.py")
#: ``REPRO_FUZZ_PARTITIONS`` of the fuzz streams: plain tables, four shards.
FUZZ_PARTITIONS = ("0", "4")
#: A timed pytest-benchmark round pauses any profile hook; a disabled
#: benchmark calls its target plainly.
PYTEST_ARGS = ("-q", "-p", "no:cacheprovider", "--benchmark-disable", "--rootdir", REPO)

#: A function's identity across compilations of the same file.
FunctionKey = Tuple[str, int, str]


def _functions(code) -> Iterator[FunctionKey]:
    """Every function code object nested in ``code`` (not ``code`` itself)."""
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        # Class bodies run unoptimized; lambdas, comprehensions and
        # generator expressions are named ``<...>``.
        if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
            yield const.co_filename, const.co_firstlineno, const.co_name
        yield from _functions(const)


def defined_functions() -> Dict[str, Set[FunctionKey]]:
    """``{module: function keys}`` for every module under ``src/repro``."""
    modules: Dict[str, Set[FunctionKey]] = {}
    for directory, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                code = compile(handle.read(), path, "exec")
            dotted = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
            modules[dotted.removesuffix(".__init__")] = set(_functions(code))
    return modules


class CallRecorder:
    """Collects the code objects called while installed (all threads)."""

    def __init__(self) -> None:
        # Keyed by id; holding the code object keeps the id from being reused.
        self.codes: Dict[int, object] = {}

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if id(code) not in self.codes:
                self.codes[id(code)] = code

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def reached(self) -> Set[FunctionKey]:
        keys = {
            (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in self.codes.values()
        }
        return {key for key in keys if key[0].startswith(PACKAGE)}


def run_workloads() -> None:
    spec = importlib.util.spec_from_file_location("ledger_run", os.path.join(PERF_DIR, "run.py"))
    ledger_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger_run)
    for workload in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            ledger_run.main(["--workload", workload, "--smoke", "--trace", "1"])
        print(f"ran {workload}", file=sys.stderr, flush=True)


def run_pytest(paths: List[str], label: str) -> int:
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        status = int(pytest.main([*PYTEST_ARGS, *paths]))
    print(f"ran {label}: pytest exit {status}", file=sys.stderr, flush=True)
    return status


def run_figures() -> int:
    paths = [os.path.join(REPO, "benchmarks", name) for name in FIGURES]
    return run_pytest(paths, ", ".join(FIGURES))


def run_fuzz() -> int:
    """The CI fuzz stream once per ``FUZZ_PARTITIONS`` value; worst exit status."""
    module = os.path.splitext(os.path.basename(FUZZ))[0]
    os.environ["HYPOTHESIS_PROFILE"] = "ci"
    status = 0
    for partitions in FUZZ_PARTITIONS:
        os.environ["REPRO_FUZZ_PARTITIONS"] = partitions
        # The fuzz module reads the variable at import: import it afresh.
        sys.modules.pop(module, None)
        status = max(status, run_pytest([FUZZ], f"fuzz, REPRO_FUZZ_PARTITIONS={partitions}"))
    return status


def report(modules: Dict[str, Set[FunctionKey]], reached: Set[FunctionKey]) -> List[str]:
    rows = []
    for module, defined in modules.items():
        if defined:
            rows.append((len(defined & reached) / len(defined), module, len(defined & reached), len(defined)))
    rows.sort()
    width = max(len(module) for _, module, _, _ in rows)
    lines = [f"{'module':{width}s}  reached/defined   share"]
    for share, module, hit, total in rows:
        lines.append(f"{module:{width}s}  {hit:>7d}/{total:<7d}  {share:6.1%}")
    hit = sum(row[2] for row in rows)
    total = sum(row[3] for row in rows)
    lines.append(f"{'total':{width}s}  {hit:>7d}/{total:<7d}  {hit / total:6.1%}")
    return lines


def main() -> int:
    for path in (SRC, PERF_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    modules = defined_functions()
    recorder = CallRecorder()
    with recorder.installed():
        run_workloads()
        status = max(run_figures(), run_fuzz())
    print(
        f"reach census: {', '.join(WORKLOADS)} (smoke, traced) + {', '.join(FIGURES)}"
        f" + fuzz (ci profile, REPRO_FUZZ_PARTITIONS {' and '.join(FUZZ_PARTITIONS)})"
    )
    print("\n".join(report(modules, recorder.reached())))
    return status


if __name__ == "__main__":
    sys.exit(main())
