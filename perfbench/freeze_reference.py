"""Freeze each workload's fixed-seed reference outputs into reference.json.

    python3 perfbench/freeze_reference.py

Run once on the code whose outputs the benchmark should hold later code to;
the file in the repository was written from the code as it was when the
benchmark was added.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        frozen = {name: cls.reference(workdir)
                  for name, cls in workloads.WORKLOADS.items()}
    (HERE / "reference.json").write_text(json.dumps(frozen, indent=1) + "\n")


if __name__ == "__main__":
    main()
