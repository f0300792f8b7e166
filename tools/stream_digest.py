"""Write the verdict, stage and stage-key digest of every benchmark pair.

Decides every pair of ``perfbench/workloads.generate`` for each workload
at seeds 0, 1, 3 and 7 and writes one JSON object
``{pair: [verdict, stage, sha256(repr(trace_sink))]}`` to the given path,
where ``pair`` is "<workload> seed=<seed> <label>".  Two checkouts decide
alike when their files are equal; the script imports ``hypercongruence``
from ``src`` next to it, or from ``--src``:

    python tools/stream_digest.py after.json
    python tools/stream_digest.py before.json --src ../parent/src
    cmp before.json after.json

The workload module is read, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 3, 7)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module       # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def digests(pipeline, workloads) -> dict:
    out = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for pair in workloads.generate(name, seed):
                opts = None
                if pair.delta0 is not None:
                    opts = pipeline.PipelineOptions(delta0=pair.delta0)
                sink: list = []
                v = pipeline.congruence_test_4d(pair.a, pair.b, opts, sink)
                digest = hashlib.sha256(repr(sink).encode()).hexdigest()
                out[f"{name} seed={seed} {pair.label}"] = \
                    [bool(v.congruent), v.stage, digest]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="path of the JSON file to write")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the hypercongruence package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from hypercongruence import pipeline
    result = digests(pipeline, load_workloads())
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} pairs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
