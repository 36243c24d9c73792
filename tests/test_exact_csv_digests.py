"""The exact experiments' CSVs, byte for byte.

Every committed exact config runs into a temporary directory; its exit code
and the sha256 of its CSV must match exact_csv_sha256.json.  A change that
moves no exact value keeps every digest.  The digests hold for one platform
(the last bits come from its libm, BLAS and CPython), like the fixture bytes.
"""

import hashlib
import json
import os

import pytest

from loopfield.harness import run_experiment, EXIT_OK, EXIT_FAIL

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, "..", "configs")
with open(os.path.join(HERE, "exact_csv_sha256.json")) as fh:
    DIGESTS = json.load(fh)

EXPECTED_EXIT = {"negative-control": EXIT_FAIL}  # the perturbed coefficient


@pytest.mark.parametrize("stem", sorted(DIGESTS))
def test_exact_csv_is_byte_identical(stem, tmp_path):
    code = run_experiment(os.path.join(CONFIG_DIR, stem + ".cfg"),
                          out_dir=str(tmp_path))
    assert code == EXPECTED_EXIT.get(stem, EXIT_OK)
    digest = hashlib.sha256((tmp_path / (stem + ".csv")).read_bytes()).hexdigest()
    assert digest == DIGESTS[stem], (
        f"{stem}.csv changed: a change that keeps every exact value keeps "
        "these bytes.  Re-baseline tests/exact_csv_sha256.json only with "
        "the moved cells listed in CHANGES.md.")
