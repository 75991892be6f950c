"""The public surface: every ``__all__`` lists unique names that resolve."""

import importlib
import pkgutil

import pytest

import fractaylor

MODULES = ["fractaylor"] + [f"fractaylor.{m.name}" for m in pkgutil.iter_modules(fractaylor.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_is_unique_and_resolves(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fractaylor import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fractaylor.__all__)


def test_package_exports_the_pinned_surface():
    assert sorted(fractaylor.__all__) == [
        "BiFracSeries", "ConfigError", "DegenerateData", "DomainError", "EXAMPLES",
        "ForwardResult", "FracOrders", "NotSeparable", "ProblemSpec", "RecoveryReport",
        "TSeries", "WidthError", "XSeries", "__version__", "deriv_trace_at_one",
        "dt_shift", "eval_series", "exact_classical", "example_problem", "forward_march",
        "frac_binom", "log_gamma", "ml_power_coeffs", "mul_x", "normalized_from_raw",
        "problem_from_config", "raw_from_normalized", "recover_newton",
        "recover_separable", "residual_check", "synthesize_boundary",
    ]


def test_each_public_name_has_one_owner_that_defines_it():
    owners = {}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", []):
            assert owners.setdefault(public, name) == name, f"{public} listed by {owners[public]} and {name}"
            obj = getattr(module, public)
            if callable(obj):
                assert obj.__module__ == name
    assert sorted(owners) == sorted(set(fractaylor.__all__) - {"__version__"})
