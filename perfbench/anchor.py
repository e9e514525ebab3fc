#!/usr/bin/env python3
"""Desk-suite anchor: the bundled desk suite's CSV must keep its bytes.

    python3 perfbench/anchor.py

Builds the CSV of ``src/privmapf/assets/configs/desk_suite.yaml`` through
``bench.run_suite`` (one process) and ``bench.records_to_csv``, writes it to
``perfbench/out/desk.csv`` and compares its sha256 with the digest committed
in ``perfbench/desk_csv.sha256``. Exit status 0 when they match, 1 when they
differ. It takes about a minute and a half on one core; it is a one-shot
check, not part of the repeated benchmark runs.

A change that is meant to alter the CSV (a deliberate algorithm change)
replaces the committed digest by hand and says why.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CONFIG = SRC / "privmapf" / "assets" / "configs" / "desk_suite.yaml"
DIGEST_FILE = HERE / "desk_csv.sha256"


def main() -> int:
    sys.path.insert(0, str(SRC))
    try:
        bench = importlib.import_module("privmapf.bench")
    except ImportError as exc:
        print(f"anchor: cannot import privmapf from {SRC}: {exc}", file=sys.stderr)
        return 2
    expected = DIGEST_FILE.read_text().split()[0]
    t0 = time.perf_counter()
    csv_text = bench.records_to_csv(bench.run_suite(bench.load_config(CONFIG), threads=1))
    elapsed = time.perf_counter() - t0
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "desk.csv").write_text(csv_text)
    actual = hashlib.sha256(csv_text.encode()).hexdigest()
    rows = csv_text.count("\n") - 2  # schema comment and header
    print(f"desk suite: {rows} rows in {elapsed:.1f} s")
    print(f"expected sha256 {expected}")
    print(f"actual   sha256 {actual}")
    if actual != expected:
        print("FAIL: desk CSV bytes changed (see perfbench/out/desk.csv)")
        return 1
    print("ok: desk CSV is byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
