"""Record golden/cli_cold.json: the cli-cold commands and their outputs.

Run from the root of the repository, only when a change to the CLI's
output is intended:

    python3 bench/record_golden.py

The benchmark compares every cli-cold process against this file, so
re-recording it accepts whatever the current code prints.
"""

from __future__ import annotations

import json
import math

import cold

L_OC = 15.0  # default LinkageParams.l_oc


def _circle_seat() -> dict:
    """Circle tangent to the four facets of two concave 20-degree tips."""
    phi, r = math.radians(20.0), 88.0
    gap = 2.0 * (r - L_OC * math.sin(phi)) / math.cos(phi)
    return {"gap_mm": gap, "mu": 0.5,
            "left": {"primitive": "concave", "degree_deg": 20.0},
            "object": {"type": "circle", "radius_mm": r}}


def _square_seat() -> dict:
    """Axis-aligned square with its corners on the four 30-degree facets."""
    phi, a = math.radians(30.0), 20.0
    hg = a + (a - L_OC) * math.tan(phi)
    verts = [[hg - a, -a], [hg + a, -a], [hg + a, a], [hg - a, a]]
    return {"gap_mm": 2.0 * hg, "mu": 0.0,
            "left": {"primitive": "concave", "degree_deg": 30.0},
            "object": {"type": "polygon", "vertices_mm": verts}}


FILES = {
    "circle_seat.json": json.dumps(_circle_seat()),
    "square_seat.json": json.dumps(_square_seat()),
    "malformed.json": '{"fingertip": {"l_oc_mm": 15.0,',
}

# (id, arguments, expected exit code)
COMMANDS = [
    ("fk", ["fk", "--theta", "9"], 0),
    ("ik", ["ik", "--phi", "12.25"], 0),
    ("ik-unreachable", ["ik", "--phi", "-60"], 3),
    ("plan-concave", ["plan", "--primitive", "concave", "--degree", "8"], 0),
    ("plan-tilted", ["plan", "--primitive", "tilted-planar", "--tilt-x", "4"], 0),
    ("sweep", ["sweep"], 0),
    ("trace-pointer", ["trace-pointer"], 0),
    ("grasp-circle", ["grasp", "--scene", "circle_seat.json"], 0),
    ("grasp-square", ["grasp", "--scene", "square_seat.json"], 0),
    ("config-error", ["fk", "--config", "malformed.json", "--theta", "9"], 2),
]


def main() -> None:
    root = cold.BENCH_DIR.parent
    golden = {"files": FILES, "commands": []}
    workdir = cold.prepare_workdir(root, golden, "record-golden")
    env = cold.child_env(root)
    for cid, args, want in COMMANDS:
        _, code, out = cold.run_cold(args, workdir, env)
        if code != want:
            raise SystemExit(f"{cid}: exit {code}, expected {want}: {out!r}")
        golden["commands"].append(
            {"id": cid, "args": args, "exit": code, "stdout": out.decode("utf-8")})
    cold.GOLDEN.parent.mkdir(exist_ok=True)
    with open(cold.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {cold.GOLDEN.relative_to(root)} ({len(COMMANDS)} commands)")


if __name__ == "__main__":
    main()
