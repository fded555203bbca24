"""The package's public names."""

import aimcf


def test_public_names_resolve_sorted_and_unique():
    names = aimcf.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(aimcf, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from aimcf import *", namespace)
    assert set(aimcf.__all__) <= namespace.keys()
