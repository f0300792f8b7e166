"""Interleaved A/B timing of in-process passes over a benchmark workload.

Each round starts one fresh interpreter per side, alternating which side
goes first.  An interpreter imports ``hypercongruence`` from its side's
``--src``, generates the pairs of ``perfbench/workloads.generate`` for the
workload and seed, decides every pair once untimed, then times ``--passes``
passes (one pass decides every pair once) and reports their median.  The
script prints each round's medians and ratio, the median over rounds of
each side with the interquartile range of the base, and in how many rounds
the change was faster:

    python tools/ab_pass.py --base ../parent/src --workload dense
    python tools/ab_pass.py --base ../parent/src --src src --workload gauss \\
        --seed 3 --rounds 10 --passes 5

With ``--helix ELL K R1`` a pass decides one congruent pair instead of a
workload: ``harness.gen_orbit_helix(ELL, K, R1)`` and its copy placed by
``perfbench/workloads.place`` with the seed, which must come out
congruent.  Helices too large for a benchmark pair are timed this way:

    python tools/ab_pass.py --base ../parent/src --helix 25000 3 0.8 \\
        --rounds 4 --passes 1

With ``--polytope NAME DELTA0`` a pass decides one congruent pair the same
way: ``harness.gen_regular_polytope(NAME)`` and its placed copy, under
``PipelineOptions(delta0=DELTA0)``:

    python tools/ab_pass.py --base ../parent/src --polytope 600-cell 0.7

The workload module is read, never changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from stream_digest import ROOT, load_workloads


def passes(src: str, args) -> list:
    """Seconds of each timed pass, after one untimed pass."""
    sys.path.insert(0, src)
    from hypercongruence import harness, pipeline
    workloads = load_workloads()
    one_pair = args.helix or args.polytope
    if args.helix:
        ell, k, r1 = args.helix
        a = harness.gen_orbit_helix(int(ell), int(k), r1)
        cases = [(a, workloads.place(a, np.random.default_rng(args.seed)), None)]
    elif args.polytope:
        name, delta0 = args.polytope
        a = harness.gen_regular_polytope(name)
        cases = [(a, workloads.place(a, np.random.default_rng(args.seed)),
                  pipeline.PipelineOptions(delta0=float(delta0)))]
    else:
        cases = [(p.a, p.b, None if p.delta0 is None
                  else pipeline.PipelineOptions(delta0=p.delta0))
                 for p in workloads.generate(args.workload, args.seed)]

    def one_pass() -> float:
        t0 = perf_counter()
        verdicts = [pipeline.congruence_test_4d(a, b, o) for a, b, o in cases]
        seconds = perf_counter() - t0
        if one_pair and not verdicts[0].congruent:
            raise SystemExit(f"{src}: the pair came out not congruent")
        return seconds

    one_pass()
    return [one_pass() for _ in range(args.passes)]


def run_side(src: str, args) -> float:
    what = (["--helix", *map(str, args.helix)] if args.helix
            else ["--polytope", *args.polytope] if args.polytope
            else ["--workload", args.workload])
    out = subprocess.run(
        [sys.executable, __file__, "--worker", "--src", src, *what,
         "--seed", str(args.seed), "--passes", str(args.passes)],
        check=True, capture_output=True, text=True).stdout
    return statistics.median(json.loads(out.splitlines()[-1]))


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="directory of the base hypercongruence "
                    "package (required unless --worker)")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory of the changed package (default: src)")
    ap.add_argument("--workload", default="dense")
    pair = ap.add_mutually_exclusive_group()
    pair.add_argument("--helix", nargs=3, type=float, metavar=("ELL", "K", "R1"),
                      help="time one congruent orbit helix pair instead")
    pair.add_argument("--polytope", nargs=2, metavar=("NAME", "DELTA0"),
                      help="time one congruent regular polytope pair instead")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(passes(args.src, args)))
        return 0
    if args.base is None:
        ap.error("--base is required")
    sides = {"base": str(Path(args.base).resolve()),
             "change": str(Path(args.src).resolve())}
    times: dict = {"base": [], "change": []}
    what = ("helix " + " ".join(f"{x:g}" for x in args.helix) if args.helix
            else "polytope " + " ".join(args.polytope) if args.polytope
            else args.workload)
    print(f"{what} seed={args.seed}: median of {args.passes} passes "
          f"per interpreter, {args.rounds} rounds")
    print("round  first   base_s  change_s  change/base")
    for r in range(args.rounds):
        order = ["base", "change"] if r % 2 == 0 else ["change", "base"]
        for side in order:
            times[side].append(run_side(sides[side], args))
        b, c = times["base"][-1], times["change"][-1]
        print(f"{r:5d}  {order[0]:6s} {b:8.4f}  {c:8.4f}  {c / b:11.3f}")
    b, c = times["base"], times["change"]
    lo, hi = quartiles(b)
    wins = sum(x < y for x, y in zip(c, b))
    print(f"median base {statistics.median(b):.4f} s [{lo:.4f}-{hi:.4f}], "
          f"change {statistics.median(c):.4f} s, "
          f"ratio {statistics.median(c) / statistics.median(b):.3f}; "
          f"change faster in {wins}/{len(b)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
