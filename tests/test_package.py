"""The package re-exports each module's public names, as the same objects."""

import importlib

import pytest

import localeq


@pytest.mark.parametrize("module", ["core", "equating", "evaluation", "propensity", "simulation"])
def test_every_public_name_of_a_module_is_a_package_name(module):
    mod = importlib.import_module(f"localeq.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(localeq, name, None) is getattr(mod, name), name


def test_every_error_class_is_a_package_name():
    from localeq import errors

    classes = [name for name, value in vars(errors).items() if isinstance(value, type)]
    assert classes
    for name in classes:
        assert getattr(localeq, name) is getattr(errors, name), name
