"""Time one set-up of the abelcon library in a fresh interpreter.

    python3 perfbench/setup_probe.py <src dir> <graph text> [<graph text> ...]

Imports ``abelcon`` from the given ``src`` directory, builds a
``Presentation`` from each graph text and prints the seconds this took.
Only ``sys`` and ``time`` are imported before the clock starts, so the
standard-library modules abelcon needs are imported inside the timing, as
they are for a user's first import.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import abelcon  # noqa: E402

for text in sys.argv[2:]:
    abelcon.Presentation.from_text(text)
print(time.perf_counter() - start)
