import dsltopo


def test_every_exported_name_resolves():
    missing = [name for name in dsltopo.__all__ if not hasattr(dsltopo, name)]
    assert missing == []
    assert len(set(dsltopo.__all__)) == len(dsltopo.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from dsltopo import *", namespace)
    assert set(dsltopo.__all__) <= namespace.keys()


def test_assignment_wrapper_is_gone():
    for name in ("min_cost_assignment", "Matching"):
        assert name not in dsltopo.__all__
        assert not hasattr(dsltopo, name)
        assert not hasattr(dsltopo.topology, name)
