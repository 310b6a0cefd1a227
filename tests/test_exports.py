"""The package's public names."""

import geocount


def test_every_exported_name_exists():
    missing = [name for name in geocount.__all__ if not hasattr(geocount, name)]
    assert missing == []
    namespace = {}
    exec("from geocount import *", namespace)
    assert set(geocount.__all__) <= set(namespace)
