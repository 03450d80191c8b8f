"""The package's public names: the two algorithms with their settings,
results and errors, the certificates and closed-loop helpers, the
simulator and the polynomial types.  Every entry of ``intctrl.__all__``
exists, and a star import brings in exactly those names; the kernels stay
in their modules, and the names removed as test-only stay gone."""
import dataclasses
import inspect

import pytest

import intctrl
from intctrl import bezout, numeric, poly, stabilizer, target

PUBLIC = {
    "run_algorithm1", "StabilizationConfig", "StabilizationResult",
    "convert_controller", "ConversionConfig", "PreController",
    "ConvertedController", "SynthesisError", "NotCoprimeError",
    "TargetSearchError",
    "Certificate", "SchurFactors", "certify_stabilization",
    "certify_conversion", "closed_loop_poly", "closed_loop_tf", "tf_equal",
    "simulate_loop", "realize_tf", "realize_controller", "StateSpace",
    "SimulationResult",
    "Polynomial", "RationalTF",
}


def test_public_names_are_pinned():
    assert len(intctrl.__all__) == len(PUBLIC)
    assert set(intctrl.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert len(set(intctrl.__all__)) == len(intctrl.__all__)
    missing = [name for name in intctrl.__all__ if not hasattr(intctrl, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from intctrl import *", namespace)
    assert set(intctrl.__all__) <= set(namespace)
    assert namespace["run_algorithm1"] is intctrl.run_algorithm1


def _parameters(fn):
    return set(inspect.signature(fn).parameters)


def _hashable(obj):
    try:
        hash(obj)
    except TypeError:
        return False
    return True


# the first seven were called or set only by tests: division (the
# realizations take the direct term themselves), properness, the checked
# solve, the Sylvester wrapper, initial simulation states and steer's
# cofactor.  The rest did a job twice or for no caller: steer's stacked
# matrix is the one toeplitz_stack builds, a trim is trim(Polynomial(...)),
# a default configuration is built per call, and nothing hashes a Polynomial.
# The last four served a candidates-as-rows layout: a column-loop reduction,
# a one-candidate copy of the side test, and plane data read once only
REMOVED = {
    "Polynomial.__divmod__":
        lambda: hasattr(intctrl.Polynomial, "__divmod__"),
    "RationalTF.degree_gap":
        lambda: hasattr(intctrl.RationalTF, "degree_gap"),
    "RationalTF.is_proper":
        lambda: hasattr(intctrl.RationalTF, "is_proper"),
    "numeric.solve_linear": lambda: hasattr(numeric, "solve_linear"),
    "bezout.sylvester_matrix": lambda: hasattr(bezout, "sylvester_matrix"),
    "simulate_loop(x0_*)":
        lambda: bool({"x0_plant", "x0_ctrl"} & _parameters(intctrl.simulate_loop)),
    "steer(q)": lambda: "q" in _parameters(stabilizer.steer),
    "target.DeltaFactors": lambda: hasattr(target, "DeltaFactors"),
    "poly._trimmed": lambda: hasattr(poly, "_trimmed"),
    "stabilizer._DEFAULT_CONFIG": lambda: hasattr(stabilizer, "_DEFAULT_CONFIG"),
    "Polynomial.__hash__": lambda: _hashable(intctrl.Polynomial([1.0])),
    "target._reduce_rows": lambda: hasattr(target, "_reduce_rows"),
    "ActiveSet.feasible": lambda: hasattr(target.ActiveSet, "feasible"),
    "HyperplaneSet.sides": lambda: hasattr(target.HyperplaneSet, "sides"),
    "HyperplaneSet.num": lambda: "num" in {
        f.name for f in dataclasses.fields(target.HyperplaneSet)},
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_stay_removed(name):
    assert not REMOVED[name](), name
