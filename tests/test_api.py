"""The package's public surface: `__all__` names exactly what the package
imports, so a deleted name cannot linger in it."""

from types import ModuleType

import hahnpoly


def test_all_names_resolve():
    for name in hahnpoly.__all__:
        assert hasattr(hahnpoly, name), name


def test_all_lists_exactly_the_imported_public_names():
    imported = {name for name, obj in vars(hahnpoly).items()
                if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert len(hahnpoly.__all__) == len(set(hahnpoly.__all__))
    assert set(hahnpoly.__all__) == imported | {"__version__"}
