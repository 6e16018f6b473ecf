"""The CLI contract: each command line of the golden corpus prints the same
bytes and exits with the same code as when the corpus was written.

The corpus (tests/golden/isl_batch.json) holds the `verify` and `classify`
command lines of the isl-batch benchmark with their exit codes and the
SHA-256 digests of their stdout and stderr.  Each runs in-process through
``cli.main`` from the repository root; tests/golden/write.py writes it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("write", GOLDEN / "write.py")
write = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write)
CORPUS = json.loads(write.CORPUS.read_text())


@pytest.mark.parametrize("entry", CORPUS, ids=[e["id"] for e in CORPUS])
def test_command_line_output_is_unchanged(monkeypatch, entry):
    monkeypatch.chdir(write.ROOT)
    assert write.run(entry["argv"]) == {
        k: entry[k] for k in ("code", "stdout_sha256", "stderr_sha256")}
