"""The public API: every exported name resolves, once, and removed names stay gone."""

import gravsim
import gravsim.cli
import gravsim.errors
import gravsim.protocol
import gravsim.qubits

REMOVED = (
    "QubitState",
    "BranchWeights",
    "state_overlap",
    "outcome_distribution",
    "RoundRecord",
    "eve_information",
    "UndefinedStatisticError",
)
# private helpers of the per-round record objects the columnar transcript replaced
REMOVED_PRIVATE = ("_record_row", "_rows", "_eve_guess_category")
MODULES = (gravsim.qubits, gravsim.protocol, gravsim.errors, gravsim.cli)


def test_every_exported_name_resolves_and_is_unique():
    assert len(gravsim.__all__) == len(set(gravsim.__all__))
    for name in gravsim.__all__:
        assert getattr(gravsim, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in gravsim.__all__
        assert not hasattr(gravsim, name)
        for module in MODULES:
            assert not hasattr(module, name), (module.__name__, name)
    for name in REMOVED_PRIVATE:
        for module in MODULES:
            assert not hasattr(module, name), (module.__name__, name)
