#!/usr/bin/env python3
"""The ledger's definition: workloads, metrics, bounds and run settings.

run.py and aa.py read this module; running it writes BENCHMARK.json at the
root of the repository from the same values:

    python3 perfbench/spec.py
"""

import json
import os

RUN_SECONDS = 30

# Seed kept out of all tuning; later claims must also hold on it.
HELD_OUT_SEED = 7919

WORKLOADS = [
    {"name": "tdsp-road",
     "why": "runTdsp (BSP, while-mode) on a 200k-vertex road lattice, 50 "
            "timesteps, 4 partitions: heavy GoFS pack reads, almost no "
            "messages; bypass case for fabric changes; held-out seed %d"
            % HELD_OUT_SEED},
    {"name": "vsssp-road",
     "why": "vertex-centric SSSP from vertex 0 on the same lattice, 1 "
            "instance, 4 partitions: ~800 barriered supersteps of "
            "per-vertex sends, no instance loads; bypass case for GoFS; "
            "held-out seed %d" % HELD_OUT_SEED},
    {"name": "stream-meme",
     "why": "streamed meme tracking, 200k social graph, 3 partitions, fed "
            "open-loop at one timestep per 100 ms (~1/3 capacity); lag from "
            "due time; held-out seed %d" % HELD_OUT_SEED},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "job_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "result_lag_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]

_LAYERS = [
    ("gofs.write_s", "s", "lower"),
    ("gofs.open_s", "s", "lower"),
    ("graph.template_decode_s", "s", "lower"),
    ("partition.build_s", "s", "lower"),
    ("stream.encode_s", "s", "lower"),
    ("gofs.load_s", "s", "lower"),
    ("gofs.load_max_part_s", "s", "lower"),
    ("gofs.load_calls", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("runtime.supersteps", "count", "lower"),
    ("runtime.messages", "count", "lower"),
    ("runtime.bytes", "count", "lower"),
    ("runtime.xpart_messages", "count", "lower"),
    ("runtime.sync_s", "s", "lower"),
    ("runtime.compute_s", "s", "lower"),
    ("vertexcentric.job_s", "s", "lower"),
    ("process.cpu_s_per_job", "s", "lower"),
    ("stream.ingest_s", "s", "lower"),
    ("stream.await_s", "s", "lower"),
    ("stream.queue_max_depth", "count", "lower"),
    ("stream.events", "count", "lower"),
    ("stream.subgraphs_skipped", "count", "higher"),
    ("stream.gen_late_max_ms", "ms", "lower"),
    ("process.threads_max", "count", "lower"),
    ("host.steal_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
PER_LAYER = [{"name": n, "unit": u, "better": b} for n, u, b in _LAYERS]


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    assert all(len(w["why"]) <= 200 for w in WORKLOADS), "why too long"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(manifest(), f, indent=2)
        f.write("\n")
    print("wrote " + path)
