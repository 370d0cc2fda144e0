import qapfuse as qf


def test_every_exported_name_is_bound_once():
    # `from qapfuse import *` fails on a listed name the package lacks.
    assert len(set(qf.__all__)) == len(qf.__all__)
    assert [name for name in qf.__all__ if not hasattr(qf, name)] == []
