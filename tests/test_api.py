"""The public surface holds together: every exported name exists, and every
closed form an operator record names resolves and takes the spectrum, not T."""

import importlib
import inspect
import pkgutil

import pytest

import bell3q
from bell3q.observables import OPERATORS

MODULES = [importlib.import_module(f"bell3q.{info.name}")
           for info in pkgutil.iter_modules(bell3q.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_every_closed_form_role_resolves_to_a_spectrum_taking_callable(operator):
    """No named closed form takes T, nor a switch for the T-state term: that term
    is added by ``Operator.plus_bias_max`` alone."""
    op = OPERATORS[operator]
    for role in op.closed_forms:
        form = op.closed_form(role)
        assert callable(form), role
        parameters = inspect.signature(form).parameters
        assert "t" not in parameters, role
        assert "tstate" not in parameters, role
