#!/usr/bin/env python3
"""Print EXPERIMENTS.md's Table 1 rows from `bench_table1 --csv` output.

Usage: scripts/table1_markdown.py [bench/golden/table1.csv]

The input is the binary's whole stdout: the CSV table, a blank line,
then the geomean line. The golden at bench/golden/table1.csv is that
output at the documented settings (--workers 4 --scale 1 --seed 1).
"""

import csv
import re
import sys

DEFAULT = "bench/golden/table1.csv"
GEOMEAN = re.compile(r"TSan ([\d.]+x) vs TxRace ([\d.]+x)\s+"
                     r"\(paper: ([\d.]+x) vs ([\d.]+x)\)")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else DEFAULT
    with open(path) as f:
        text = f.read()
    table, _, tail = text.partition("\n\n")
    print("| application | TSan ovh (meas / paper) "
          "| TxRace ovh (meas / paper) | races TSan (meas / paper) "
          "| races TxRace (meas / paper) |")
    print("|---|---|---|---|---|")
    for row in csv.DictReader(table.splitlines()):
        print(f"| {row['application']} "
              f"| {row['TSan-ovh']} / {row['paper-TSan']} "
              f"| {row['TxRace-ovh']} / {row['paper-TxRace']} "
              f"| {row['TSan-races']} / {row['paper-TSan-races']} "
              f"| {row['TxRace-races']} / {row['paper-TxRace-races']} |")
    m = GEOMEAN.search(tail)
    if not m:
        sys.exit(f"{path}: no geomean line")
    tsan, txrace, paper_tsan, paper_txrace = m.groups()
    print(f"| **geomean** | **{tsan} / {paper_tsan}** "
          f"| **{txrace} / {paper_txrace}** | | |")


if __name__ == "__main__":
    main()
