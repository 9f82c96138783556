import sys
import weakref
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mosaic_lab import equivalence, lattice_core
from mosaic_lab.catalog import enumerate_lattices, enumerate_ortholattices, named

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent.parent / "src" / "mosaic_lab" / "data"


@pytest.fixture(scope="session")
def pentagon():
    return named("pentagon")


@pytest.fixture(scope="session")
def hexagon():
    return named("hexagon")


@pytest.fixture(scope="session")
def lattices_upto_6():
    return [l for n in range(1, 7) for l in enumerate_lattices(n)]


@pytest.fixture(scope="session")
def lattices_upto_8():
    return [l for n in range(1, 9) for l in enumerate_lattices(n)]


@pytest.fixture(scope="session")
def ortholattices_upto_8():
    return [p for n in range(1, 9) for p in enumerate_ortholattices(n)]


@pytest.fixture(scope="session")
def ortholattices_upto_4():
    return [p for n in range(1, 5) for p in enumerate_ortholattices(n)]


@pytest.fixture
def call_counts(monkeypatch):
    """call_counts(owner, *names) wraps the named functions of a module, or
    the named cached properties of a class, for the test and returns the
    Counter that tallies their calls by name."""
    counts = Counter()

    def wrap(owner, *names):
        for name in names:
            fn = getattr(owner, name)
            prop = isinstance(fn, cached_property)

            def counted(*args, _fn=fn.func if prop else fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            if prop:
                counted = cached_property(counted)
                counted.__set_name__(owner, name)
            monkeypatch.setattr(owner, name, counted)
        return counts

    return wrap


@pytest.fixture
def fresh_maps(monkeypatch):
    """Empty weak maps of Nakano tables and of hexagon copies for one test:
    an equal lattice that an earlier test keeps alive would otherwise serve
    this test's table, with the lattice that table induces and the verdicts
    of each pi kept on it, and its hexagon copy."""
    monkeypatch.setattr(equivalence, "_NAKANO", weakref.WeakKeyDictionary())
    monkeypatch.setattr(lattice_core, "_HEXAGON_COPIES", weakref.WeakKeyDictionary())
