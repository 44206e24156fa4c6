#!/usr/bin/env python3
"""Print the three size numbers every change reports (``make stats``).

    python3 tools/stats.py

* ``src/`` LOC: lines of every ``*.py`` file under ``src/``;
* public names: ``len(__all__)`` of ``repro``, ``repro.api``, ``repro.core``
  and ``repro.distsys``;
* CI jobs: the jobs of ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = ("repro", "repro.api", "repro.core", "repro.distsys")


def src_loc() -> int:
    return sum(len(path.read_text().splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def public_names() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    return {name: len(importlib.import_module(name).__all__)
            for name in PACKAGES}


def ci_jobs() -> int:
    """Top-level keys of the workflow's ``jobs:`` mapping (two-space indent)."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs = text.split("\njobs:\n", 1)[1]
    return len(re.findall(r"^  [A-Za-z0-9_-]+:\s*$", jobs, flags=re.M))


def main() -> int:
    print(f"src LOC      {src_loc()}")
    for name, count in public_names().items():
        print(f"{name + '.__all__':<24} {count}")
    print(f"CI jobs      {ci_jobs()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
