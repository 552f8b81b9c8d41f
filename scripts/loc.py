#!/usr/bin/env python3
"""Production line count of the workspace.

Counts, in every `.rs` file under `crates/` (build output in `target/`
directories skipped), the lines before the first line containing
`#[cfg(test)]`; a file without one counts whole. Prints the sum.

    python3 scripts/loc.py [REPO_ROOT]

REPO_ROOT defaults to the repository this script lives in.
"""

import os
import sys


def production_lines(path):
    """Lines of `path` before its first `#[cfg(test)]` line."""
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "#[cfg(test)]" in line:
                break
            count += 1
    return count


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    total = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "crates")):
        dirnames[:] = [d for d in dirnames if d != "target"]
        total += sum(production_lines(os.path.join(dirpath, f)) for f in filenames if f.endswith(".rs"))
    print(total)


if __name__ == "__main__":
    main()
