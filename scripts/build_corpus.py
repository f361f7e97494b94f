#!/usr/bin/env python3
"""Regenerate the shipped family files from their builders.

Run from the repository root:

    python3 scripts/build_corpus.py

Writes one JSON file per family into src/twistknots/corpus/ and prints a
summary line per family.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from twistknots.corpus import BUILDERS
from twistknots.families import save_family, winding_number

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "twistknots" / "corpus"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, build in sorted(BUILDERS.items()):
        fam = build()
        path = OUT / f"{name}.json"
        save_family(fam, path)
        print(
            f"{name:18s} crossings={fam.base.n_crossings:3d} "
            f"components={fam.base.n_components} eta={fam.eta_hat} "
            f"omega={winding_number(fam)} -> {path.name}"
        )


if __name__ == "__main__":
    main()
