"""The benchmark's layer tracer still finds every binding it patches.

``bench/tracing.py`` wraps package functions by module and attribute name,
and ``bench/run.py`` reads the spans and counts it records by name.  A moved
or renamed function makes the traced benchmark fail, so these checks import
the tracer as it is and run it over one sharp commutant solve.
"""

import importlib
import importlib.util
import pathlib

import pytest

from laxchain import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves(tracing):
    for name, module, attr in tracing.SPAN_BINDINGS:
        mod = importlib.import_module(module)
        assert callable(mod.__dict__.get(attr)), f"{name}: {module}.{attr} is gone"


def test_sharp_solve_records_the_read_spans(tracing, tmp_path):
    out = tmp_path / "sharp.json"
    tracer = tracing.Tracer()
    mark = tracer.mark()
    with tracer.installed():
        rc = tracer.call(
            "cli.main",
            cli.main,
            ["commutant", "--variant", "sharp", "--band", "3", "--degree", "9",
             "--out", str(out)],
        )
    assert rc == 0
    spans, counts = tracer.summary(mark)
    for name in (
        "spectral.commutant_solve_exact",
        "spectral.commutator_polynomial_bands",
        "spectral.exact_commutator_is_zero",
        "rational_linalg.rref",
    ):
        assert spans[name]["calls"] >= 1, name
    assert counts["rational_linalg.rref.rows"] == 146
    assert counts["rational_linalg.rref.cols"] == 70
    assert counts["scalars.fraction.mul"] > 0
    # the patches are gone once the block ends
    for _, module, attr in tracing.SPAN_BINDINGS:
        assert not hasattr(importlib.import_module(module).__dict__[attr], "__wrapped__")
