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
