"""Set-up probe: the fixed cost every qgrass invocation pays before its census.

    python3 bench/setup_probe.py SRC_DIR DOCUMENT PRIMES

Starts Python, imports qgrass, reads and validates one input document, and
reduces it modulo each prime in the comma-separated PRIMES, then exits.
Exits 3 if the imported qgrass is not the one under SRC_DIR.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import qgrass


def main(argv: list[str]) -> int:
    src, document_path, primes = argv
    if Path(qgrass.__file__).resolve().parent.parent != Path(src).resolve():
        print(f"setup probe: imported qgrass from {qgrass.__file__}, not {src}", file=sys.stderr)
        return 3
    with open(document_path, encoding="utf-8") as handle:
        document = json.load(handle)
    _, rep = qgrass.parse_document(document)
    for q in primes.split(","):
        qgrass.reduce_mod_p(rep, int(q))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
