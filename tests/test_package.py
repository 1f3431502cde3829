"""The package's public names."""
import sbaformer


def test_every_exported_name_resolves():
    assert sorted(set(sbaformer.__all__)) == sorted(sbaformer.__all__)
    assert [name for name in sbaformer.__all__ if not hasattr(sbaformer, name)] == []
    namespace = {}
    exec("from sbaformer import *", namespace)
    assert set(sbaformer.__all__) <= namespace.keys()
