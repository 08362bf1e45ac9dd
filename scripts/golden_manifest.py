"""Run the five reference scenarios and print the digest of their outputs.

The reference runs are ``configs/t1.yaml`` to ``configs/t4.yaml`` and
``configs/t2.yaml --adaptive off``, each through the ``aesa-chain run``
entry point, into ``t1``, ``t2``, ``t3``, ``t4`` and ``t2off`` under one
root directory.  The digest equals the shell recipe

    find . -type f | sort | xargs sha256sum | sha256sum

run in that root (byte-order ``sort``, as in the C locale).  A change that
keeps every output byte keeps the digest; the bytes may legitimately differ
between BLAS builds, so the digest is a reference for one machine.

Usage::

    PYTHONPATH=src python scripts/golden_manifest.py [ROOT]

Without ROOT the runs go to a temporary directory that is removed after.
"""

import contextlib
import hashlib
import io
import logging
import sys
import tempfile
from pathlib import Path

from aesa_chain.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RUNS = (("t1", "t1.yaml", ()), ("t2", "t2.yaml", ()), ("t3", "t3.yaml", ()),
        ("t4", "t4.yaml", ()), ("t2off", "t2.yaml", ("--adaptive", "off")))


def manifest_digest(root: Path) -> str:
    """sha256 of the ``sha256sum`` listing of every file under root."""
    names = sorted(f"./{p.relative_to(root).as_posix()}"
                   for p in root.rglob("*") if p.is_file())
    listing = "".join(f"{hashlib.sha256((root / name).read_bytes()).hexdigest()}  {name}\n"
                      for name in names)
    return hashlib.sha256(listing.encode()).hexdigest()


def run_all(root: Path) -> str:
    logging.disable(logging.INFO)
    for out, config, extra in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--scenario", str(CONFIGS / config),
                         "--out", str(root / out), *extra])
        if code != 0:
            raise SystemExit(f"{config} {' '.join(extra)} exited with {code}")
    return manifest_digest(root)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(run_all(Path(sys.argv[1])))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print(run_all(Path(tmp)))
