"""The mutant catalog still applies to the tree.

Running the mutants takes minutes and is left to ``python tests/mutants.py``;
this only checks that each row can be applied and names tests that exist.
A refactor that moves mutated code fails here, and must update or retire
the mutant.
"""
from __future__ import annotations

import re

from mutants import MUTANTS, ROOT, SRC


def test_mutants_apply_exactly_once():
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = (SRC / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.id
        assert mutant.new != mutant.old, mutant.id
        assert mutant.tests, mutant.id
        for node in mutant.tests:
            path, _, name = node.partition("::")
            test_text = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name)}\(", test_text, re.M), node
