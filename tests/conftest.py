import pytest


@pytest.fixture(autouse=True)
def _default_degree_cap(monkeypatch):
    """Every test starts at the default degree cap, whatever the shell exports."""
    monkeypatch.delenv("LIEBUTCHER_DEGREE_CAP", raising=False)
