"""The package's public names: every entry of ``intctrl.__all__`` exists,
and a star import brings in exactly those names."""
import intctrl


def test_every_public_name_resolves():
    assert len(set(intctrl.__all__)) == len(intctrl.__all__)
    missing = [name for name in intctrl.__all__ if not hasattr(intctrl, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from intctrl import *", namespace)
    assert set(intctrl.__all__) <= set(namespace)
    assert namespace["run_algorithm1"] is intctrl.run_algorithm1
