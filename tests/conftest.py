"""Shared test set-up: memos are emptied around every patch and every tower test.

A test that asks for ``monkeypatch`` may patch what a memoized kernel reads
(``symmetry._sugawara_pairs`` under ``_L_WORD_CACHE``, say).  A memo filled
before the patch would hide it, and one filled under the patch would give
later tests answers that belong to the patched code.  A test whose module
uses the test-side ``tower_field`` (directly or through an oracle built on
it) may run program code at tower points, and would leave program memos
keyed on test-only types.  So every module-level ``*_CACHE`` dict of the
chiralis modules is cleared when such a test is set up and again when it is
torn down.  The dicts and the tower users are both found by scanning module
globals, so a new cache or a new oracle needs no entry here.
"""

import sys
import types

import pytest


def clear_chiralis_caches():
    """Clear whatever dict each ``*_CACHE`` global of a chiralis module holds now."""
    for name, module in list(sys.modules.items()):
        if name == "chiralis" or name.startswith("chiralis."):
            for attr, value in list(vars(module).items()):
                if attr.endswith("_CACHE") and isinstance(value, dict):
                    value.clear()


def _homes(module):
    """The modules that the globals of a module come from (a module global is its own)."""
    for value in list(vars(module).values()):
        home = value if isinstance(value, types.ModuleType) else sys.modules.get(
            getattr(value, "__module__", None) or "")
        if home is not None:
            yield home


def uses_tower_field(module) -> bool:
    """True when the module takes names from ``tower_field``, or from a
    module that does (one of the tower oracles)."""
    return any(home.__name__ == "tower_field" or any(h.__name__ == "tower_field" for h in _homes(home))
               for home in _homes(module))


@pytest.fixture(autouse=True)
def _fresh_caches_around_patches(request):
    # autouse fixtures are set up before ``monkeypatch`` and torn down after
    # it has undone its patches, so teardown clears the restored dicts
    fresh = "monkeypatch" in request.fixturenames or uses_tower_field(request.module)
    if fresh:
        clear_chiralis_caches()
    yield
    if fresh:
        clear_chiralis_caches()
