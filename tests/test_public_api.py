"""The package's public names: the two algorithms with their settings,
results and errors, the certificates and closed-loop helpers, the
simulator and the polynomial types.  Every entry of ``intctrl.__all__``
exists, and a star import brings in exactly those names; the kernels stay
in their modules."""
import intctrl

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
