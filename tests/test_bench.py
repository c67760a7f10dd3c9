"""What the benchmark reads of the package, run in process: one warm
iteration of every workload in ``bench/workloads.py`` and one traced corpus
iteration under ``bench/tracing.py``.  A name the benchmark or its tracer
reads that the package drops fails here, not first in a benchmark run."""
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warm_iteration_passes_its_checks(name):
    tally = workloads.Tally()
    workloads.WORKLOADS[name](0).iteration(0, tally, cold=False)
    assert tally.attempted > 0
    assert (tally.failed, tally.examples) == (0, [])


def test_traced_corpus_iteration_records_spans():
    state = workloads.WORKLOADS["corpus"](0)
    tally = workloads.Tally()
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        state.iteration(0, tally, cold=False)
    finally:
        uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"series.poincare_series", "exactalg.series_coefficients", "exactalg.divide_by_binomial"} <= names
    assert tally.attempted > 0 and tally.failed == 0
