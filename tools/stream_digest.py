"""Write the verdict, stage and stage-key digest of every benchmark pair.

Decides every pair of ``perfbench/workloads.generate`` for each workload
at seeds 0, 1, 3 and 7 and writes one JSON object
``{pair: [verdict, stage, sha256(repr(trace_sink)), entries]}`` to the
given path, where ``pair`` is "<workload> seed=<seed> <label>" and
``entries`` holds one ``[stage, sha256(repr(entry))]`` per trace entry.
Two checkouts decide alike when their files are equal; the script imports
``hypercongruence`` from ``src`` next to it, or from ``--src``:

    python tools/stream_digest.py before.json --src ../parent/src
    python tools/stream_digest.py after.json --compare before.json

With ``--compare`` the script also prints every pair whose verdict, stage
or digest differs from the earlier file's, or that only one file has, with
the index and stage of the first trace entry that differs, and exits 1 if
there is any.  It decides every pair a second time without a trace sink,
since the pipeline names stage keys only for a trace, and prints and exits
1 on every pair whose untraced verdict or stage differs from the traced
one.  The workload module is read, never changed.
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


def sha256(entry) -> str:
    return hashlib.sha256(repr(entry).encode()).hexdigest()


def digests(pipeline, workloads) -> tuple:
    """({pair: [verdict, stage, digest, entries]} of the traced decisions,
    one line per pair whose untraced verdict or stage differs from the
    traced)."""
    out, split = {}, []
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for pair in workloads.generate(name, seed):
                opts = None
                if pair.delta0 is not None:
                    opts = pipeline.PipelineOptions(delta0=pair.delta0)
                sink: list = []
                v = pipeline.congruence_test_4d(pair.a, pair.b, opts, sink)
                key = f"{name} seed={seed} {pair.label}"
                out[key] = [bool(v.congruent), v.stage, sha256(sink),
                            [[e[0], sha256(e)] for e in sink]]
                u = pipeline.congruence_test_4d(pair.a, pair.b, opts)
                untraced = [bool(u.congruent), u.stage]
                if untraced != out[key][:2]:
                    split.append(f"{key}: traced {out[key][:2]}, "
                                 f"untraced {untraced}")
    return out, split


def first_difference(old: list, new: list) -> str:
    """The index and stage of the first trace entry where two entry lists
    differ, a missing entry included."""
    k = next((k for k, (e, f) in enumerate(zip(old, new)) if e != f),
             min(len(old), len(new)))
    rest = old[k:] or new[k:]
    if not rest:
        return "trace entries identical"
    return f"first differing entry #{k} ({rest[0][0]})"


def differences(before: dict, after: dict) -> list:
    """The verdicts, stages and digests of every pair that the two digest
    files disagree on, each followed by the first differing trace entry
    when both files have the pair."""
    lines = []
    for pair in sorted(before.keys() | after.keys()):
        old, new = before.get(pair), after.get(pair)
        if old == new:
            continue
        lines.append(f"{pair}: {old and old[:3] or 'missing'} -> "
                     f"{new and new[:3] or 'missing'}")
        if old and new:
            lines.append("  " + first_difference(old[3], new[3]))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="path of the JSON file to write")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the hypercongruence package")
    ap.add_argument("--compare", metavar="BEFORE",
                    help="digest file to compare the new one with")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from hypercongruence import pipeline
    result, split = digests(pipeline, load_workloads())
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} pairs -> {args.out}")
    print("\n".join(split) or "untraced decisions match the traced ones")
    if args.compare is None:
        return 1 if split else 0
    diff = differences(json.loads(Path(args.compare).read_text()), result)
    print("\n".join(diff) or f"identical to {args.compare}")
    return 1 if diff or split else 0


if __name__ == "__main__":
    sys.exit(main())
