"""The package re-exports each module's public names, as the same objects; its
errors survive pickling, no module imports a name it never uses, and no module
defines a private function or class that nothing in the package names."""

import ast
import importlib
import pickle
from pathlib import Path

import pytest

import localeq

PACKAGE = Path(localeq.__file__).resolve().parent


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


# constructor arguments of each error class; the rest take one message
ERROR_ARGS = {
    "SchemaError": ("c3", "bad column"),
    "RowError": (3, "bad"),
    "ConfigError": (["n"], "n must be positive"),
}


def error_classes():
    from localeq import errors

    return sorted(
        (value for value in vars(errors).values()
         if isinstance(value, type) and issubclass(value, errors.LocalEqError)),
        key=lambda cls: cls.__name__,
    )


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # a study worker sends its exception back pickled
    error = cls(*ERROR_ARGS.get(cls.__name__, ("a message",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error) and back.args == error.args
    assert vars(back) == vars(error)


def exported_names(tree):
    """The names a module's ``__all__`` lists, empty without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*"  # __init__.py's re-exports
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used | exported_names(tree))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []


def unnamed_definitions(path):
    """A module's top-level functions and classes that its ``__all__`` does not
    list and no code in the package names, as a bare name or an attribute."""
    named = set()
    for module in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named | exported_names(tree)
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_definition_is_public_or_named_in_the_package(path):
    # a helper whose last caller moved away is dead code
    assert unnamed_definitions(path) == []
