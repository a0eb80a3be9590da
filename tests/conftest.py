import sys

import pytest
from hypothesis import settings

from steinergut import EnumerationSpec, enumerate_graphs

# exhaustive oracles make some examples slow; wall-clock flakiness helps nobody
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def connected_by_order():
    """Deduped connected graphs keyed by order, for orders 1..6."""
    return {n: enumerate_graphs(EnumerationSpec(n=n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def universe():
    """Connected graphs up to isomorphism, orders 1..8."""
    return {n: enumerate_graphs(EnumerationSpec(n=n)) for n in range(1, 9)}


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of ``module.name`` wherever the package has bound it.

    Returns an installer: ``calls = count_calls(module, "name")`` rebinds
    every steinergut module attribute that holds that function to a
    counting wrapper, and ``len(calls)`` is the number of calls since.
    """

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "steinergut" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
