"""In-process side of the benchmark; started by run.py, one mode per process.

    worker.py --workload W --seed S --seconds T --mode setup|run|trace
              [--workdir DIR]

Every mode builds its inputs, warms up and prints ``READY``; run.py times
the process from its start to that line (``setup_s``).  ``setup`` then
stops; ``run`` measures workload W untraced for T seconds; ``trace``
measures every in-process layer with spans (see run.py).  The result is
one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from report import latency_summary  # noqa: E402

WARMUP_OPS = 20
# Repetitions of each cli command in the traced in-process probe.
CLI_REPS = 10
IN_PROCESS = ("design-sweep", "grasp-batch")


def build(workload: str, seed: int):
    """Pool and index stream of one workload; each has its own stream of
    random numbers, so a workload's inputs do not depend on which others
    a run builds."""
    rng = np.random.default_rng([seed % 2**64, IN_PROCESS.index(workload)])
    pool = (inputs.design_pool if workload == "design-sweep" else inputs.grasp_pool)(rng)
    return pool, inputs.index_stream(rng, len(pool))


def warm_up(workload: str, api, pool) -> None:
    op = workloads.WORKLOADS[workload][0]
    for inp in pool[:WARMUP_OPS]:
        try:
            op(api, inp)
        except Exception:  # counted when the timed loop meets this input
            pass


def properties(workload: str, pool, loop: workloads.LoopResult) -> dict:
    """Input properties of the operations attempted, as shares."""
    n = len(loop.attempted_ids)
    props = {"repeated_share": 1.0 - loop.distinct / n}
    if workload == "design-sweep":
        calls = inputs.FK_SAMPLES + inputs.IK_TARGETS
        props["planned_unreachable_share_of_ik_calls"] = 1.0 / calls
        return props
    kinds = Counter(pool[i].kind for i in loop.attempted_ids)
    for kind in sorted(kinds):
        props[f"kind_share.{kind}"] = kinds[kind] / n
    props["planned_penetration_share"] = sum(
        pool[i].penetrating for i in loop.attempted_ids) / n
    touching = [len(loop.first[i][0]) for i in loop.attempted_ids
                if i in loop.first and loop.first[i][0] != "penetration"]
    props["contacts_per_scene"] = sum(touching) / max(1, len(touching))
    return props


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float | None) -> dict | None:
    """Set up; then, unless ``seconds`` is None, measure untraced."""
    pool, stream = build(workload, seed)
    api = tracing.Api()
    warm_up(workload, api, pool)
    print("READY", flush=True)
    if seconds is None:
        return None
    loop = workloads.run_loop(workload, api, pool, stream, seconds)
    return {
        "summary": latency_summary(loop.latencies, loop.attempted_ids),
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "errors": loop.errors,
        "properties": properties(workload, pool, loop),
        "peak_rss_mb": peak_rss_mb(),
    }


def _layer_metrics(spans_summary: dict) -> dict:
    """Per-function medians and layer shares from the in-process spans."""
    by_name = spans_summary["by_name"]
    by_tag = spans_summary["by_root_tag"]
    layer_self = spans_summary["layer_self_ns"]
    roots = spans_summary["root_ns"]
    m = {}
    for name in ("linkage.forward_facet", "linkage.inverse_facet",
                 "linkage.solve_planar_pair", "linkage.operating_range",
                 "fingertip.plan_primitive", "fingertip.transition_trajectory",
                 "grasp.closure_classify", "grasp.pivot_feasible", "grasp.cradle_height"):
        m[f"{name}.p50_us"] = tracing.p50_us(by_name[name])
    for kind in ("circle", "poly4", "poly8", "poly32"):
        durs = [d for (name, tag), ds in by_tag.items()
                if name == "grasp.find_contacts" and tag.startswith(kind) for d in ds]
        m[f"grasp.find_contacts.{kind}.p50_us"] = tracing.p50_us(durs)
    design = roots["design-sweep.op"]
    grasp = roots["grasp-batch.op"]
    m["linkage.self_share"] = layer_self["linkage"] / design
    m["fingertip.self_share"] = layer_self["fingertip"] / design
    m["grasp.self_share"] = layer_self["grasp"] / grasp
    return m


def trace(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Traced loops of both in-process workloads plus the cli probe.

    ``seconds`` is the length of each loop.  When ``workload`` runs in
    process it is also measured untraced, right before its traced loop,
    for ``trace.overhead_ratio``.
    """
    import cold
    from morphtip.cli import dumps

    golden = cold.load_golden()
    built = {w: build(w, seed) for w in IN_PROCESS}
    plain = tracing.Api()
    for w, (pool, _) in built.items():
        warm_up(w, plain, pool)
    print("READY", flush=True)

    tracer = tracing.Tracer()
    api = tracing.Api(tracer)
    failed, records = cold.in_process_commands(golden, workdir, CLI_REPS, tracer)
    attempted = CLI_REPS * len(golden["commands"])
    fmt = tracer.wrap("cli.format", dumps)
    for _ in range(CLI_REPS):
        for rec in records:
            fmt(rec)

    out = {"metrics": {}, "errors": []}
    loops = {}
    for w, (pool, stream) in built.items():
        if w == workload:
            loop = workloads.run_loop(w, plain, pool, stream, seconds)
            out["untraced_ops_per_s"] = latency_summary(
                loop.latencies, loop.attempted_ids)["ops_per_s"]
            attempted += len(loop.latencies)
            failed += loop.failed
            out["errors"] += loop.errors
        loops[w] = workloads.run_loop(w, api, pool, stream, seconds, tracer=tracer)
        attempted += len(loops[w].latencies)
        failed += loops[w].failed
        out["errors"] += loops[w].errors
        if w == workload:
            out["traced_ops_per_s"] = latency_summary(
                loops[w].latencies, loops[w].attempted_ids)["ops_per_s"]

    spans = tracer.spans
    summary = tracing.summarize(spans)
    m = out["metrics"]
    for cmd in golden["commands"]:
        name = f"cli.command.{cmd['id']}"
        m[f"{name}.p50_us"] = tracing.p50_us(summary["by_name"][name])
    m["cli.format.p50_us"] = tracing.p50_us(summary["by_name"]["cli.format"])
    m.update(_layer_metrics(summary))

    design = loops["design-sweep"]
    ik_calls = inputs.FK_SAMPLES + inputs.IK_TARGETS
    done = [design.first[i] for i in design.attempted_ids if i in design.first]
    m["linkage.inverse_facet.unreachable_ratio"] = (
        sum(d[4].count(None) for d in done) / (len(done) * ik_calls))
    states = [len(d[-1]) for d in done]
    m["fingertip.transition_trajectory.states"] = sum(states) / max(1, len(states))
    grasp = loops["grasp-batch"]
    gpool = built["grasp-batch"][0]
    seen = [grasp.first[i] for i in grasp.attempted_ids if i in grasp.first]
    m["grasp.find_contacts.penetration_ratio"] = (
        sum(d == ("penetration",) for d in seen) / len(seen))
    m["grasp.contacts_per_scene"] = properties("grasp-batch", gpool, grasp)["contacts_per_scene"]

    tracer.write(ROOT / ".bench_out" / f"spans-{workload}-in-process.jsonl")
    out.update(attempted=attempted, failed=failed, span_count=len(spans))
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args()
    if args.mode == "trace":
        result = trace(args.workload, args.seed, args.seconds, args.workdir)
    else:
        result = run(args.workload, args.seed, args.seconds if args.mode == "run" else None)
    if result is not None:
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
