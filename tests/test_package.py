import importlib

import pytest

import vamkit


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


def test_submodules_import_through_the_package():
    from vamkit import measures

    assert measures is importlib.import_module("vamkit.measures")


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vamkit.no_such_name
