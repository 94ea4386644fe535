"""The scrape's built-in collectors."""

from repro.service.service import COLLECTORS


def test_builtins_are_discovered():
    names = [name for name, _collect in COLLECTORS]
    assert names == ["jobs", "resilience", "service"]
    assert all(callable(collect) for _name, collect in COLLECTORS)
