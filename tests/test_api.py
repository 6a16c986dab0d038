"""The package's public names."""

import diracsplit


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from diracsplit import *", namespace)
    assert set(diracsplit.__all__) <= namespace.keys()


def test_every_public_name_resolves_once():
    names = diracsplit.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(diracsplit, n)]
    assert missing == []
