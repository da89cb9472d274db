"""Fixtures shared by the test modules."""

import pytest

from dfsdist import protocol


@pytest.fixture
def final_states(monkeypatch):
    """An empty memo of final states for the test, as ``protocol`` holds
    it: a test that counts propagations, or patches the train, the registry
    or ``apply_transform``, sees no entry an earlier test left."""
    memo = protocol.OrderedDict()
    monkeypatch.setattr(protocol, "_FINAL_STATES", memo)
    return memo


@pytest.fixture
def count_calls(monkeypatch, final_states):
    """``count_calls(*names)`` counts the calls of the named ``protocol``
    functions from then on, over an empty final-state memo."""
    def start(*names) -> dict[str, int]:
        calls = dict.fromkeys(names, 0)

        def counted(name):
            fn = getattr(protocol, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(protocol, name, counted(name))
        return calls
    return start
