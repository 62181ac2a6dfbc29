"""The package's exports: every name in ``ffk.__all__`` is importable."""

import ffk


def test_every_exported_name_resolves():
    assert [name for name in ffk.__all__ if not hasattr(ffk, name)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from ffk import *", namespace)
    assert set(ffk.__all__) <= set(namespace)
