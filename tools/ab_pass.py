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

With ``--gauss N`` a pass decides one congruent Gaussian cloud pair the
same way: N standard normal points drawn with the seed and their copy
placed by ``perfbench/workloads.place`` with the same generator:

    python tools/ab_pass.py --base ../parent/src --gauss 256000 \\
        --rounds 4 --passes 1

With ``--polytope NAME DELTA0`` a pass decides one congruent pair the same
way: ``harness.gen_regular_polytope(NAME)`` and its placed copy, under
``PipelineOptions(delta0=DELTA0)``:

    python tools/ab_pass.py --base ../parent/src --polytope 600-cell 0.7

With ``--hopf M SAMPLES`` a pass runs ``marking.mark_circles(circles,
1e-9, 8)`` once to its end, through ``iterprune.run_steps``, on the
circles of ``harness.gen_hopf_circles(M, SAMPLES, seed)``, generated
untimed from each side's own package.  A side whose ``mark_circles``
returns its (result, keys) tuple has run to its end at the call.  One
right Hopf bundle merges one pair of classes per M11 round down to 8
circles, which is the condensing path the benchmark never reaches: of its
pairs, the 32 ``dense`` ones that reach marking all stop at M3, and point
sets sampled from Hopf circles decide at the "sphere" stage:

    python tools/ab_pass.py --base ../parent/src --hopf 160 3 --rounds 4 \
        --passes 3

With ``--count NAME`` each side then runs one more interpreter that
decides every pair once untimed and once under cProfile, and the script
prints the calls in that profiled pass of every function whose qualified
name ends in NAME.  The profile counts a function whatever name it was
imported under:

    python tools/ab_pass.py --base ../parent/src --workload gauss \\
        --rounds 0 --count lowdim.circle_axes --count condense.joint_ranks

``--rounds 0`` skips the timing and only counts.

``--workload all`` runs the above on every workload of
``perfbench/workloads.WORKLOADS`` in turn, then prints one summary line
per workload, so one command shows whether any of them got slower:

    python tools/ab_pass.py --base ../parent/src --workload all --rounds 6

The workload module is read, never changed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from stream_digest import ROOT, load_workloads


def passes(src: str, args) -> list:
    """Seconds of each timed pass, after one untimed pass; with --count,
    the calls of each function it names in one more, profiled pass."""
    sys.path.insert(0, src)
    from hypercongruence import harness, iterprune, marking, pipeline
    workloads = load_workloads()
    one_pair = args.helix or args.gauss or args.polytope
    circles = []
    if args.hopf:
        circles = harness.gen_hopf_circles(*args.hopf, args.seed)[1]
        cases = []
    elif args.helix:
        ell, k, r1 = args.helix
        a = harness.gen_orbit_helix(int(ell), int(k), r1)
        cases = [(a, workloads.place(a, np.random.default_rng(args.seed)), None)]
    elif args.gauss:
        rng = np.random.default_rng(args.seed)
        a = rng.normal(size=(args.gauss, 4))
        cases = [(a, workloads.place(a, rng), None)]
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
        if len(circles):
            steps = marking.mark_circles(circles, 1e-9, 8)
            if not isinstance(steps, tuple):
                iterprune.run_steps(steps)
        verdicts = [pipeline.congruence_test_4d(a, b, o) for a, b, o in cases]
        seconds = perf_counter() - t0
        if one_pair and not verdicts[0].congruent:
            raise SystemExit(f"{src}: the pair came out not congruent")
        return seconds

    one_pass()
    if args.count:
        profile = cProfile.Profile()
        profile.runcall(one_pass)
        return call_counts(pstats.Stats(profile).stats, args.count)
    return [one_pass() for _ in range(args.passes)]


def call_counts(stats: dict, names: list) -> dict:
    """{qualified name: calls} of the profiled functions whose qualified
    name (package, module and function, as hypercongruence.geom.frames)
    ends in one of names."""
    out = {}
    for (filename, _, func), (_, calls, *_) in stats.items():
        parts = Path(filename).with_suffix("").parts
        qual = ".".join((*parts[-2:], func))
        if any(qual == n or qual.endswith("." + n) for n in names):
            out[qual] = out.get(qual, 0) + calls
    return dict(sorted(out.items()))


def run_side(src: str, args, count: bool = False):
    what = (["--helix", *map(str, args.helix)] if args.helix
            else ["--gauss", str(args.gauss)] if args.gauss
            else ["--polytope", *args.polytope] if args.polytope
            else ["--hopf", *map(str, args.hopf)] if args.hopf
            else ["--workload", args.workload])
    for name in args.count if count else []:
        what += ["--count", name]
    out = subprocess.run(
        [sys.executable, __file__, "--worker", "--src", src, *what,
         "--seed", str(args.seed), "--passes", str(args.passes)],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    return result if count else statistics.median(result)


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
    ap.add_argument("--workload", default="dense",
                    help="a perfbench workload, or all of them (default: dense)")
    pair = ap.add_mutually_exclusive_group()
    pair.add_argument("--helix", nargs=3, type=float, metavar=("ELL", "K", "R1"),
                      help="time one congruent orbit helix pair instead")
    pair.add_argument("--gauss", type=int, metavar="N",
                      help="time one congruent Gaussian cloud pair instead")
    pair.add_argument("--polytope", nargs=2, metavar=("NAME", "DELTA0"),
                      help="time one congruent regular polytope pair instead")
    pair.add_argument("--hopf", nargs=2, type=int, metavar=("M", "SAMPLES"),
                      help="time marking one right Hopf bundle instead")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--count", action="append", default=[], metavar="NAME",
                    help="print the calls per pass of the functions whose "
                    "qualified name ends in NAME (repeatable)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(passes(args.src, args)))
        return 0
    if args.base is None:
        ap.error("--base is required")
    sides = {"base": str(Path(args.base).resolve()),
             "change": str(Path(args.src).resolve())}
    if (args.workload != "all" or args.helix or args.gauss or args.polytope
            or args.hopf):
        compare(sides, args)
        return 0
    summaries = []
    for name in load_workloads().WORKLOADS:
        args.workload = name
        summaries.append(f"{name}: {compare(sides, args)}")
        print()
    print("\n".join(summaries))
    return 0


def compare(sides: dict, args) -> str:
    """Print the interleaved rounds of one workload or pair and its
    summary, and return the summary."""
    times: dict = {"base": [], "change": []}
    what = ("helix " + " ".join(f"{x:g}" for x in args.helix) if args.helix
            else f"gauss {args.gauss}" if args.gauss
            else "polytope " + " ".join(args.polytope) if args.polytope
            else "hopf " + " ".join(map(str, args.hopf)) if args.hopf
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
    summary = "not timed"
    if b:
        lo, hi = quartiles(b)
        wins = sum(x < y for x, y in zip(c, b))
        summary = (f"median base {statistics.median(b):.4f} s "
                   f"[{lo:.4f}-{hi:.4f}], change {statistics.median(c):.4f} s, "
                   f"ratio {statistics.median(c) / statistics.median(b):.3f}; "
                   f"change faster in {wins}/{len(b)} rounds")
        print(summary)
    if args.count:
        counts = {side: run_side(src, args, count=True)
                  for side, src in sides.items()}
        print("calls in one profiled pass:  base  change")
        for qual in sorted(counts["base"].keys() | counts["change"].keys()):
            print(f"  {qual}  {counts['base'].get(qual, 0)}  "
                  f"{counts['change'].get(qual, 0)}")
    return summary


if __name__ == "__main__":
    sys.exit(main())
