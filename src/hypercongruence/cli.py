"""Command-line front end.

Subcommands: `test` two point files, `generate` instances from the
structured families, `oracle` for brute-force verdicts on tiny inputs,
and `bench` for wall-time scaling.  Exit codes of test/oracle: 0 means
congruent, 1 not congruent, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import harness
from .fileio import PointFileError, read_points, write_points
from .geom import EPS_EQ
from .pipeline import PipelineOptions, congruence_test_4d

MAX_GENERATE = 5_000_000


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_pair(path_a, path_b):
    a, la = read_points(path_a)
    b, lb = read_points(path_b)
    return a, la, b, lb


def cmd_test(args) -> int:
    try:
        a, la, b, lb = _load_pair(args.file_a, args.file_b)
    except (OSError, PointFileError) as e:
        return _fail(str(e))
    sink: list = []
    try:
        opts = PipelineOptions(eps_eq=args.tolerance,
                               allow_reflection=args.reflect)
        v = congruence_test_4d(a, b, opts, sink if args.trace else None,
                               labels_a=la, labels_b=lb)
    except ValueError as e:
        return _fail(str(e))
    if args.json:
        out = {"verdict": "congruent" if v.congruent else "not_congruent"}
        if v.congruent:
            out["rotation"] = [[float(x) for x in row] for row in v.rotation]
            out["translation"] = [float(x) for x in v.translation]
            out["reflected"] = bool(v.reflected)
        else:
            out["stage"] = v.stage
        if args.trace:
            out["stage_trace"] = [
                {"stage": s, "key_a": repr(ka), "key_b": repr(kb)}
                for s, ka, kb in sink]
        print(json.dumps(out))
    else:
        if v.congruent:
            kind = "reflection" if v.reflected else "rotation"
            print(f"congruent ({kind})")
            for row in v.rotation:
                print("  " + " ".join(f"{x: .17g}" for x in row))
            print("translation: " +
                  " ".join(f"{x: .17g}" for x in v.translation))
        else:
            print(f"not congruent (stage: {v.stage})")
        if args.trace:
            for s, ka, kb in sink:
                print(f"trace {s}: {ka!r} | {kb!r}", file=sys.stderr)
    return 0 if v.congruent else 1


def _generate_points(args):
    fam = args.family
    p = args.params
    rng_seed = args.seed

    def want(k):
        if len(p) != k:
            raise ValueError(
                f"family {fam!r} takes {k} parameter(s), got {len(p)}")

    if fam == "random":
        want(1)
        n = int(p[0])
        if n < 1:
            raise ValueError("need n >= 1")
        return np.random.default_rng(rng_seed).normal(size=(n, 4))
    if fam == "torus-grid":
        if len(p) == 2:
            return harness.gen_torus_grid(int(p[0]), int(p[1]),
                                          1 / math.sqrt(2))
        want(3)
        return harness.gen_torus_grid(int(p[0]), int(p[1]), float(p[2]))
    if fam == "helix":
        if len(p) == 2:
            return harness.gen_orbit_helix(int(p[0]), int(p[1]), 0.8,
                                           seed=rng_seed)
        want(3)
        return harness.gen_orbit_helix(int(p[0]), int(p[1]), float(p[2]),
                                       seed=rng_seed)
    if fam == "hopf":
        want(2)
        pts, _ = harness.gen_hopf_circles(int(p[0]), int(p[1]), rng_seed)
        return pts
    if fam == "polytope":
        want(1)
        return harness.gen_regular_polytope(p[0])
    raise ValueError(f"unknown family {fam!r}")


def _estimate_count(args) -> int:
    p = args.params
    if args.family == "torus-grid" and len(p) >= 2:
        return int(p[0]) * int(p[1])
    if args.family == "hopf" and len(p) == 2:
        return int(p[0]) * int(p[1])
    if args.family in ("random", "helix", "pair") and p:
        return int(p[0])
    return 0


def cmd_generate(args) -> int:
    try:
        if _estimate_count(args) > MAX_GENERATE:
            raise ValueError(
                f"instance would exceed {MAX_GENERATE} points; refusing")
        if args.family == "pair":
            if len(args.params) != 1:
                raise ValueError("family 'pair' takes 1 parameter (n)")
            a, b, _, _ = harness.gen_congruent_pair(int(args.params[0]),
                                                    args.seed)
            write_points(args.out, a, comment=f"pair seed={args.seed} (A)")
            write_points(args.out + ".b", b,
                         comment=f"pair seed={args.seed} (B)")
            print(f"wrote {len(a)} points to {args.out} and {args.out}.b")
            return 0
        pts = _generate_points(args)
    except ValueError as e:
        return _fail(str(e))
    write_points(args.out, pts,
                 comment=f"{args.family} {' '.join(args.params)} "
                         f"seed={args.seed}")
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    try:
        a, la, b, lb = _load_pair(args.file_a, args.file_b)
        if la is not None or lb is not None:
            return _fail("the oracle takes unlabeled points")
        v = harness.oracle_congruent(a, b, allow_reflection=args.reflect)
    except (OSError, PointFileError, ValueError) as e:
        return _fail(str(e))
    print("congruent" if v.congruent else "not congruent")
    return 0 if v.congruent else 1


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
        if any(n < 2 for n in sizes) or len(sizes) < 2:
            raise ValueError("need at least two sizes, all >= 2")
    except ValueError as e:
        return _fail(str(e))
    rng = np.random.default_rng(args.seed)
    print("n,seconds")
    times = []
    for n in sizes:
        a = rng.normal(size=(n, 4))
        r = harness.random_rotation(rng)
        b = (a @ r.T + rng.normal(size=4))[rng.permutation(n)]
        t0 = time.perf_counter()
        v = congruence_test_4d(a, b)
        dt = time.perf_counter() - t0
        if not v.congruent:
            return _fail(f"benchmark instance n={n} unexpectedly rejected")
        times.append(dt)
        print(f"{n},{dt:.6f}")
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    print(f"# log-log slope: {slope:.4f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hypercongruence",
        description="Orientation-preserving congruence of 4D point sets.")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="decide congruence of two point files")
    t.add_argument("file_a")
    t.add_argument("file_b")
    t.add_argument("--tolerance", type=float, default=EPS_EQ,
                   help="coordinate equality tolerance (default %(default)g)")
    t.add_argument("--reflect", action="store_true",
                   help="also accept orientation-reversing congruences")
    t.add_argument("--json", action="store_true")
    t.add_argument("--trace", action="store_true",
                   help="report the stage key comparisons")
    t.set_defaults(fn=cmd_test)

    g = sub.add_parser("generate", help="write an instance file")
    g.add_argument("family",
                   choices=["random", "torus-grid", "helix", "hopf",
                            "polytope", "pair"])
    g.add_argument("params", nargs="*",
                   help="random: n | torus-grid: p q [r1] | helix: ell k [r1]"
                        " | hopf: m samples | polytope: name | pair: n")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    o = sub.add_parser("oracle",
                       help="brute-force verdict for files of <= 10 points")
    o.add_argument("file_a")
    o.add_argument("file_b")
    o.add_argument("--reflect", action="store_true")
    o.set_defaults(fn=cmd_oracle)

    bench = sub.add_parser("bench", help="wall-time scaling on random pairs")
    bench.add_argument("--sizes", default="1024,2048,4096,8192,16384",
                       help="comma-separated point counts")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(fn=cmd_bench)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
