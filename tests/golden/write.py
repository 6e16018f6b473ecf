"""Write the golden corpus of `isl` command lines to isl_batch.json.

The corpus holds the `verify` and `classify` command lines of the
isl-batch benchmark (``FIXED`` in perfbench/isljobs.py), each with its exit
code and the SHA-256 digests of its stdout and stderr, run in-process
through ``cli.main`` from the repository root (the spec paths are
relative to it).  tests/test_golden.py runs each line again and compares.
Write the corpus only on a commit whose output is known to be right, and
name each rewrite and its reason in CHANGES.md:

    python tests/golden/write.py
"""

import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("isl_batch.json")


def run(argv):
    """Exit code and output digests of one command line, run in-process."""
    from intervalsemirings.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return {"code": code,
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(
                err.getvalue().encode()).hexdigest()}


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from isljobs import FIXED

    os.chdir(ROOT)
    corpus = [{"id": job_id, "argv": argv, **run(argv)}
              for job_id, argv in FIXED if argv[0] in ("verify", "classify")]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{len(corpus)} command lines written to {CORPUS}")


if __name__ == "__main__":
    main()
