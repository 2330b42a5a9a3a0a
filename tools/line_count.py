"""Count the library lines each benchmark operation executes, over the pools of the given seeds.

Usage: ``python tools/line_count.py WORKLOAD SEED [SEED ...]``, where
WORKLOAD is ``grasp-batch`` or ``design-sweep``.  Each seed's pool is
built as ``bench/worker.py`` builds it, from this checkout's ``src/``,
and every input in it runs once through the workload's operation under
``sys.settrace``, which counts each line event in a file of the
``morphtip`` package.  Prints the total, and the median and p97.5 (the
nearest-rank percentile) per operation; then, for each public name the
operations called, the lines credited to it.  A line is credited to the
outermost call the operation made to a name in ``morphtip.__all__``, the
one running when the line ran, so work a public call hands to another is
its caller's.  Unlike wall time, the count is the same on every run with
the same Python; it is blind to work done in C.  The ``bench/`` modules
are imported and left as they are.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "bench"))

import tracing  # noqa: E402
import worker  # noqa: E402  (puts this checkout's src/ and tests/ on the path)
import workloads  # noqa: E402

import morphtip  # noqa: E402

LIBRARY = str(Path(morphtip.__file__).parent) + "/"
PUBLIC = frozenset(morphtip.__all__)
# The name lines run outside every public call are credited to, such as
# those of the package's lazy attribute lookup.
OUTSIDE = "(outside)"


def line_counts(workload: str, seeds: list[int]) -> list[Counter]:
    """Library lines each operation executed, by public name, in pool order, seed by seed.

    Each line is credited to the outermost public call running: a
    function in ``morphtip.__all__``, or the ``__init__`` of a class
    there, credited to the class.  The operations catch the errors their
    pools plan, so any other error is raised here.  A trace function
    already installed, such as a debugger's or a coverage tool's, is put
    back after each operation.
    """
    op = workloads.WORKLOADS[workload][0]
    api = tracing.Api()
    outer, name = None, OUTSIDE  # the frame of the outermost public call, and its name

    def line(frame, event, arg):
        nonlocal outer, name
        if event == "line":
            counts[name] += 1
        elif event == "return" and frame is outer:  # also when the call raises
            outer, name = None, OUTSIDE
        return line

    def call(frame, event, arg):  # traces a frame only when its code is the library's
        nonlocal outer, name
        code = frame.f_code
        if not code.co_filename.startswith(LIBRARY):
            return None
        if outer is None:
            public = code.co_qualname.removesuffix(".__init__")
            if public in PUBLIC:
                outer, name = frame, public
        return line

    per_op = []
    for seed in seeds:
        pool, _ = worker.build(workload, seed)
        for inp in pool:
            counts = Counter()
            previous = sys.gettrace()
            sys.settrace(call)
            try:
                op(api, inp)
            finally:
                sys.settrace(previous)
            per_op.append(counts)
    return per_op


def summary(counts: list[int]) -> tuple[int, float, int]:
    """The total, the median and the nearest-rank p97.5 of the counts."""
    ranked = sorted(counts)
    return sum(ranked), statistics.median(ranked), ranked[math.ceil(0.975 * len(ranked)) - 1]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in workloads.WORKLOADS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    per_op = line_counts(argv[0], [int(seed) for seed in argv[1:]])
    total, median, p97_5 = summary([counts.total() for counts in per_op])
    print(f"operations {len(per_op)}  total {total}  median {median:g}  p97.5 {p97_5}")
    by_name = sum(per_op, Counter())
    for name, count in sorted(by_name.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {name:<24} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
