"""CLI output against the byte-identity corpus ``golden/identity.json``.

Tier-1 runs the survey and trajectory ops, the three ``verify`` runs and the
first op of each sweep slot, in process; ``golden/identity.py check`` runs
every op.  A change that is meant to alter output re-records the corpus
(see that script) and names the changed op ids.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).parent / "golden" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

OPS = identity.ops()
CHECKED = [op for op in OPS if not op.startswith("sweep/") or op.endswith("/0")]
EXPECTED = identity.recorded()


@pytest.mark.parametrize("op", CHECKED)
def test_output_is_byte_identical_to_the_corpus(op):
    assert identity.digest(OPS[op]) == EXPECTED["digests"][op]


def test_corpus_covers_every_op():
    assert set(EXPECTED["digests"]) == set(OPS)
