#!/usr/bin/env python3
"""Generate, clip, and mechanically verify grid sweep schedules.

For each n the five-panel schedule is built on the unbounded lattice,
clipped to the n-by-n grid, and run through the contamination engine.
Prints the budget m+3 against the lower/upper window ceil(n/5)+1..+4.

Usage: python scripts/verify_grids.py [n ...]   (default: 11 16 21 26)
A size that is not an integer, or is below 2, prints the usage line and
exits 2.
"""

import sys
import time

from lzl import grid_strategy, m_of_n


USAGE = "usage: verify_grids.py [n ...]"


def parse_size(arg: str) -> int:
    """A grid side n >= 2; ValueError when malformed."""
    n = int(arg)
    if n < 2:
        raise ValueError(f"need n >= 2, got {arg!r}")
    return n


def main() -> int:
    try:
        sizes = [parse_size(a) for a in sys.argv[1:]] or [11, 16, 21, 26]
    except ValueError as exc:
        print(f"{USAGE}\n{exc}", file=sys.stderr)
        return 2
    print(f"{'n':>4} {'m':>3} {'budget':>6} {'window':>10} {'cleared':>7} "
          f"{'rounds':>6} {'clear_at':>8} {'secs':>6}")
    failures = 0
    for n in sizes:
        t0 = time.time()
        try:
            schedule, trace = grid_strategy(n)
        except Exception as exc:  # verification failure is a hard error
            print(f"{n:>4}  FAILED: {exc}")
            failures += 1
            continue
        lo = -(-n // 5) + 1
        print(
            f"{n:>4} {m_of_n(n):>3} {schedule.cops:>6} "
            f"{f'[{lo},{lo + 3}]':>10} {str(trace.cleared):>7} "
            f"{len(schedule.rounds):>6} {trace.clear_round:>8} "
            f"{time.time() - t0:>6.2f}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
