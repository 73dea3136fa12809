"""One set-up of a benchmark workload, timed by its caller as a whole:
interpreter start, ``import gaussdec.cli``, then generating the first block's
matrices with covgen and writing their documents.

    python3 bench/setup_probe.py WORKLOAD SEED OUTDIR
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gaussdec.cli  # noqa: E402,F401  (the import is part of what is timed)
import inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    inputs.write_documents(workload, seed, 0, outdir)
