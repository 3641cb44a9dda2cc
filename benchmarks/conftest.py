"""Scales for ``benchmarks/figures.py``, the figure-reproduction module.

Default parameters are laptop-sized; set ``REPRO_BENCH_FULL=1`` to run at
the paper's scale (two 512x2000 images, genomics at 100x, 1000x1000 micro
arrays).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/figures.py -q -s
"""

from __future__ import annotations

import os
import sys

# figures.py reuses tier-1's workload builders (``tests.*``)
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

# astronomy: the paper uses two 512x2000-pixel exposures
ASTRO_SHAPE = (512, 2000) if FULL else (128, 500)
ASTRO_STARS = 60 if FULL else 30
ASTRO_COSMIC = 40 if FULL else 20

# genomics: the paper reports the dataset scaled by 100x
GENOMICS_SCALE = 100 if FULL else 25

# micro: 1000x1000 array, 10% coverage, fanin swept to 100
MICRO_SHAPE = (1000, 1000) if FULL else (400, 400)
MICRO_FANINS = (1, 10, 25, 50, 75, 100) if FULL else (1, 25, 100)
MICRO_FANOUTS = (1, 100)
MICRO_QUERY_CELLS = 1000 if FULL else 500
