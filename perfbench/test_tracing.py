"""Tests of the benchmark's own bookkeeping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import layers
from tracing import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        Span("a.root", 0.0, 10.0),
        Span("b.first", 1.0, 3.0, parent=0),
        Span("b.overlapping", 2.0, 5.0, parent=0),
        Span("b.later", 6.0, 7.0, parent=0),
        Span("b.past_end", 9.0, 12.0, parent=0),
        Span("c.grandchild", 1.5, 2.0, parent=1),
    ]
    # Root children cover [1, 5] + [6, 7] + [9, 10] = 6 of its 10 seconds.
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 1.0, 3.0, 0.5])


def test_wrapped_function_returns_result_and_reraises_unchanged():
    tracer = Tracer()
    payload = object()
    error = KeyError("boom")

    def ok():
        return payload

    def fails():
        raise error

    assert tracer.wrap("m.ok", ok)() is payload
    with pytest.raises(KeyError) as caught:
        tracer.wrap("m.fails", fails)()
    assert caught.value is error
    assert [s.name for s in tracer.spans] == ["m.ok", "m.fails"]
    assert all(s.end >= s.start and s.parent is None for s in tracer.spans)
    assert tracer._stack == []


def test_install_wraps_where_the_caller_looks_up_and_uninstall_restores(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .high import outer\n")
    (pkg / "low.py").write_text("def inner(x):\n    return x + 1\n")
    (pkg / "high.py").write_text(
        "from .low import inner\n\ndef outer(x):\n    return inner(x) * 2\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg
    import toypkg.high
    import toypkg.low

    original = toypkg.high.outer
    tracer = Tracer(describe={"low.inner": lambda args, kwargs, result: {"x": args[0]}})
    with tracer.installed("toypkg", ("low", "high")):
        assert toypkg.outer(3) == 8
    assert [(s.name, s.parent, s.info.get("x")) for s in tracer.spans] == [
        ("high.outer", None, None),
        ("low.inner", 0, 3),
    ]
    # A layer's top-level span records the peak RSS; a nested one of another layer does too.
    assert all("rss_mb" in s.info for s in tracer.spans)
    assert toypkg.high.outer is original and toypkg.outer is original
    assert toypkg.high.inner is toypkg.low.inner
    assert tracer.overhead_share(1.0) >= 0.0


def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(per_layer) == layers.metric_names()
    assert all(per_layer[name] == layers.unit_of(name) for name in per_layer)
    sys.path.insert(0, str(HERE))
    from run import E2E_UNITS

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS


def test_output_checks_flag_nonfinite_cells_and_nonzero_weighted_means(tmp_path):
    (tmp_path / "manifest.json").write_text("{}")
    header = "category,n_pupils,n_schools,percent," + ",".join(
        f"mean_{c},significant_{c}" for c in checks.CODES
    )
    good = "\n".join([header, "x,3,2,60.0" + ",1.0,1" * 4, "y,2,2,40.0" + ",-1.5,1" * 4, "# note"])
    (tmp_path / "breakdown_sen.csv").write_text(good + "\n")
    assert checks.breakdown_outputs(tmp_path, "breakdown_sen.csv") == []

    bad = good.replace("y,2,2,40.0,-1.5,1,-1.5", "y,2,2,40.0,-1.0,1,nan")
    (tmp_path / "breakdown_sen.csv").write_text(bad + "\n")
    problems = checks.breakdown_outputs(tmp_path, "breakdown_sen.csv")
    assert any("nan" in p for p in problems)
    assert any("mean_a8" in p for p in problems)
