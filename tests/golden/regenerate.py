"""Rewrite the golden files of ``tests/test_golden.py`` with this checkout's code.

    python tests/golden/regenerate.py

Then ``git diff tests/golden`` lists every value that the change moved.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import COMMANDS, CONVERT_INPUT, GOLDEN, write  # noqa: E402

for name in [CONVERT_INPUT, *COMMANDS]:  # the input first: convert reads it
    write(name, GOLDEN)
    print(f"wrote {GOLDEN / name}")
