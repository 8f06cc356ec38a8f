import pytest


@pytest.fixture
def steps(monkeypatch):
    """The letters core.step_frontier is called on from now on."""
    import counternet.core as core_mod
    calls = []
    real = core_mod.step_frontier
    monkeypatch.setattr(core_mod, "step_frontier",
                        lambda net, frontier, letter: calls.append(letter) or real(net, frontier, letter))
    return calls
