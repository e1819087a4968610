import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vamkit

ROOT = Path(__file__).resolve().parents[1]


def test_lazy_exports_resolve_to_their_defining_module():
    constants = {
        "DEFAULT_COEFFICIENTS": "synthgen",
        "PUPIL_CHARACTERISTICS": "categories",
        "SCHOOL_CHARACTERISTICS": "categories",
        "Z95": "ols",
    }
    for name in vamkit.__all__:
        value = getattr(vamkit, name)
        home = f"vamkit.{constants[name]}" if name in constants else value.__module__
        assert getattr(importlib.import_module(home), name) is value, name


def test_readme_library_example_uses_public_names():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    code = library[library.index("```python"):library.index("```", library.index("```python") + 3)]
    names = set(re.findall(r"\bvamkit\.(\w+)", code))
    assert names and names <= set(vamkit.__all__), sorted(names - set(vamkit.__all__))


def test_submodules_import_through_the_package():
    from vamkit import measures

    assert measures is importlib.import_module("vamkit.measures")


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vamkit.no_such_name


def test_benchmark_worker_runs_against_the_sources():
    # perfbench/replicate.py reads the row views, pupil scores and measure
    # codes: a name it needs that goes missing fails here, not in a benchmark
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    worker = [sys.executable, str(ROOT / "perfbench" / "replicate.py"), "--seed", "7", "--seconds", "0"]
    done = subprocess.run(worker, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["warmup"]["problems"] == []
    assert Path(report["vamkit_file"]).resolve().is_relative_to(ROOT / "src")
    # what perfbench/run.py imports to size the designs
    from vamkit.design import MeasureKind, design_labels

    assert all(design_labels(kind.model_spec) for kind in MeasureKind)
