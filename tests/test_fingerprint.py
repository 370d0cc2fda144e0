"""Family seed 0 of the committed equivalence fingerprint.

``tests/fingerprint.py --check`` runs all 200 solves; this checks the four
on the benchmark instances themselves, loaded as ``test_traces.py`` loads
them.
"""

import json

import pytest

import fingerprint
from test_traces import FAMILY_SEED, load


@pytest.mark.parametrize("heuristic", fingerprint.HEURISTICS)
@pytest.mark.parametrize("family", list(fingerprint.FAMILIES))
def test_family_seed_0_matches_the_committed_fingerprint(family, heuristic):
    committed = json.loads(fingerprint.PATH.read_text())
    key = fingerprint.name(family, heuristic, FAMILY_SEED)
    assert fingerprint.fingerprint(load(family), family, heuristic) == committed[key]
