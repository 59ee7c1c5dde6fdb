"""The traced benchmark wraps legarray functions by name (perfbench/tracing.py,
SPANS); every name must still resolve, and the counts it reads from a call's
arguments and result must still apply. perfbench/ is only read here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from legarray import cli, correlation, watermark
from legarray.images import GrayImage

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


def resolve(mod_name: str, attr: str):
    # the tracer wraps json.dumps as cli's json module sees it
    owner = cli.json if mod_name == "json" else importlib.import_module(f"legarray.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name", sorted(SPANS))
def test_span_resolves(name):
    mod_name, attr, _ = SPANS[name]
    assert callable(resolve(mod_name, attr))


def test_spans_cover_the_correlation_layer():
    named = {(mod, attr) for mod, attr, _ in SPANS.values()}
    assert {
        ("correlation", "full_correlation_fast"),
        ("correlation", "verify_autocorrelation"),
        ("correlation", "verify_cross_correlation"),
        ("correlation", "CorrelationReport.to_json_dict"),
        ("watermark", "extract"),
    } <= named


def test_methods_table_holds_the_spanned_kernels():
    # the tracer swaps the kernels inside correlation._METHODS by identity
    assert correlation._METHODS == {
        "naive": resolve(*SPANS["correlation.full_correlation"][:2]),
        "fast": resolve(*SPANS["correlation.full_correlation_fast"][:2]),
    }


def test_counts_apply_to_real_calls(family_3_2):
    s1, s2 = family_3_2[1], family_3_2[2]
    for name, args in [
        ("correlation.full_correlation", (s1.arr, s2.arr)),
        ("correlation.full_correlation_fast", (s1.arr, s2.arr)),
        ("correlation.verify_auto", (s1,)),
        ("correlation.verify_cross", (s1, s2)),
    ]:
        mod_name, attr, counts = SPANS[name]
        counted = counts(args, resolve(mod_name, attr)(*args))
        assert counted and all(type(v) is int for v in counted.values()), name


def test_extract_takes_the_family_second(family_3_2):
    assert list(inspect.signature(watermark.extract).parameters)[:2] == ["img", "family"]
    img = GrayImage(np.full((27, 27), 128, dtype=np.uint8))
    _, _, counts = SPANS["watermark.extract"]
    assert counts((img, family_3_2), watermark.extract(img, family_3_2)) == {"tables": 3}
