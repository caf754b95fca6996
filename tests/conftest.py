"""Shared test set-up: memos are emptied around every patch.

A test that asks for ``monkeypatch`` may patch what a memoized kernel reads
(``symmetry._sugawara_pairs`` under ``_L_WORD_CACHE``, say).  A memo filled
before the patch would hide it, and one filled under the patch would give
later tests answers that belong to the patched code.  So every module-level
``*_CACHE`` dict of the chiralis modules is cleared when such a test is set
up and again when it is torn down.  The dicts are found by scanning module
globals, so a new cache needs no entry here.
"""

import sys

import pytest


def clear_chiralis_caches():
    """Clear whatever dict each ``*_CACHE`` global of a chiralis module holds now."""
    for name, module in list(sys.modules.items()):
        if name == "chiralis" or name.startswith("chiralis."):
            for attr, value in list(vars(module).items()):
                if attr.endswith("_CACHE") and isinstance(value, dict):
                    value.clear()


@pytest.fixture(autouse=True)
def _fresh_caches_around_patches(request):
    # autouse fixtures are set up before ``monkeypatch`` and torn down after
    # it has undone its patches, so teardown clears the restored dicts
    patched = "monkeypatch" in request.fixturenames
    if patched:
        clear_chiralis_caches()
    yield
    if patched:
        clear_chiralis_caches()
