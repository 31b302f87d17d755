#!/usr/bin/env python3
"""Print the pairing tables of a chosen system: the mutual-descent-count
matrix over all generator subsets, the double-coset Gram of the class h
basis, and the (identity) h-versus-m pairing.

Usage: python scripts/descent_tables.py [family] [rank]
"""

import sys

sys.path.insert(0, "src")

from coxkit.cli import main  # noqa: E402


def run(family: str, rank: str) -> int:
    """Print the three tables; return the worst exit status of the three."""
    worst = 0
    for table in ("c", "hgram", "hm"):
        print(f"== {table} table for {family} rank {rank} ==")
        worst = max(worst, main(["table", "--type", family, "--rank", rank, "--table", table]))
        print()
    return worst


if __name__ == "__main__":
    family = sys.argv[1] if len(sys.argv) > 1 else "B"
    rank = sys.argv[2] if len(sys.argv) > 2 else "3"
    sys.exit(run(family, rank))
