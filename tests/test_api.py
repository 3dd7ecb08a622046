"""The public API: every exported name resolves, once, and removed names stay gone."""

import gravsim
import gravsim.qubits

REMOVED = ("QubitState", "BranchWeights", "state_overlap", "outcome_distribution")


def test_every_exported_name_resolves_and_is_unique():
    assert len(gravsim.__all__) == len(set(gravsim.__all__))
    for name in gravsim.__all__:
        assert getattr(gravsim, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in gravsim.__all__
        assert not hasattr(gravsim, name)
        assert not hasattr(gravsim.qubits, name)
