"""Print one SHA-256 of a benchmark workload's results over the pools of the given seeds.

Usage: ``python tools/pool_digest.py WORKLOAD SEED [SEED ...]``, where
WORKLOAD is ``grasp-batch`` or ``design-sweep``.  Each seed's pool is
built as ``bench/worker.py`` builds it, from this checkout's ``src/``,
and every input in it runs once through the workload's operation.  The
hash covers each input's result as the workload's digest summarises it
(``grasp_digest`` or ``design_digest`` in ``bench/workloads.py``), and
the type, message and witness of every exception a library call raised
on the way, planned or not.  Run it in two checkouts to compare them: the
same hash means the same results, bit for bit.  The ``bench/`` modules
are imported and left as they are.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "bench"))

import tracing  # noqa: E402
import worker  # noqa: E402  (puts this checkout's src/ and tests/ on the path)
import workloads  # noqa: E402


def recording_api(notes: list) -> SimpleNamespace:
    """The workloads' library functions; each exception they raise is added to notes."""

    def noting(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                notes.append((type(exc).__name__, str(exc), getattr(exc, "witness", None)))
                raise

        return call

    return SimpleNamespace(**{name: noting(fn) for name, fn in vars(tracing.Api()).items()})


def pool_digest(workload: str, seeds: list[int]) -> str:
    """Hex SHA-256 of every result, and every exception raised, over the seeds' pools."""
    op, digest, _ = workloads.WORKLOADS[workload]
    sha = hashlib.sha256()
    for seed in seeds:
        pool, _ = worker.build(workload, seed)
        for inp in pool:
            notes: list = []
            try:
                result = digest(op(recording_api(notes), inp))
            except Exception as exc:  # an error the pool did not plan
                result = ("unplanned", type(exc).__name__, str(exc), getattr(exc, "witness", None))
            sha.update(repr((result, notes)).encode())
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in workloads.WORKLOADS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print(pool_digest(argv[0], [int(seed) for seed in argv[1:]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
