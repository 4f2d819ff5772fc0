"""Command-line front end: reproducible runs of every lab operation.

All outputs are deterministic for a fixed configuration: JSON is dumped
with sorted keys, CSV floats use repr (shortest round-trip), random
sampling always flows through a recorded seed, and wall-clock timings go
to a separate file so result artifacts stay byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys

import numpy as np

from . import acceptance
from .aniso2d import (
    GridSpec2D,
    conjugate2d,
    constructed_triple_fn,
    intro_exp_fn,
    power_sum_fn,
    quadratic_fn,
    radial_power_fn,
    trudinger_fn,
)
from .capacity import disk_mask, relative_capacity, sobolev_capacity
from .comparability import (
    default_probe_family,
    equivalent_on_rays,
    essential_anisotropy_probe,
)
from .construction import TripleBuild, build_triple
from .gridfield import GridField2D
from .pde import ApproxSequence, DiscreteMeasure, uniqueness_experiment
from .rearrangement import phi_circ, sublevel_area, verify_levelset_bounds
from .sobolev import build_profile
from .tables import MonotoneTable
from .young1d import PowerFn


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def parse_phi(spec):
    """Parse a 2-D function spec: a path ending in .json (a saved triple)
    or a builtin tag; a builtin given arguments it does not take raises
    ValueError naming the spec it takes."""
    if spec.endswith(".json"):
        return constructed_triple_fn(TripleBuild.load(spec))
    builtins = {
        "quadratic": (quadratic_fn, "quadratic[:coef]"),
        "introexp": (intro_exp_fn, "introexp"),
        "powersum": (power_sum_fn, "powersum:p1,p2[,c1,c2]"),
        "trudinger": (trudinger_fn, "trudinger[:a,b,d,c]"),
        "radial": (radial_power_fn, "radial:p[,coef]"),
    }
    tag, _, args = spec.partition(":")
    if tag not in builtins:
        raise SystemExit(f"unknown phi spec {spec!r}")
    build, usage = builtins[tag]
    try:
        vals = [float(v) for v in args.split(",")] if args else []
        inspect.signature(build).bind(*vals)
    except (TypeError, ValueError):
        raise ValueError(f"phi spec {spec!r}: expected {usage}") from None
    return build(*vals)


def cmd_construct(args):
    build = build_triple(args.p, args.alpha, args.cycles)
    build.save(args.out)
    if args.schedule_csv:
        build.schedule_csv(args.schedule_csv)
    print(f"wrote {args.out} ({args.cycles} cycles)")
    return 0


def cmd_table(args):
    table = MonotoneTable.load(args.table)
    _write_csv(
        args.out,
        ["s", "t"],
        list(zip(np.exp(table.logx).tolist(), np.exp(table.logy).tolist())),
    )
    return 0


def cmd_phicirc(args):
    phi = parse_phi(args.phi)
    for flag, t in (("--t-lo", args.t_lo), ("--t-hi", args.t_hi)):
        if not 0.0 < t < np.inf:
            raise ValueError(f"{flag} {t:g} must be positive and finite")
    if args.points < 2:
        raise ValueError(f"--points {args.points} must be at least 2")
    grid = np.logspace(np.log10(args.t_lo), np.log10(args.t_hi), args.points)
    table = phi_circ(phi, grid, n_angles=args.angles)
    table.save(args.out)
    return 0


def cmd_sobconj(args):
    table = MonotoneTable.load(args.table)
    prof = build_profile(table)
    out = {
        "growth": prof.growth.label,
        "tail_slope": prof.growth.tail_slope,
        "spliced": prof.spliced,
        "H": prof.H.to_json_dict(),
    }
    if prof.phin is not None:
        out["phin"] = prof.phin.to_json_dict()
    _dump_json(out, args.out)
    return 0


def cmd_conjugate(args):
    phi = parse_phi(args.phi)
    spec = GridSpec2D.square(args.extent, args.n)
    star = conjugate2d(phi, spec)
    if args.out.endswith(".bin"):
        star.to_binary(args.out)
    else:
        star.to_csv(args.out)
    return 0


def cmd_sublevel(args):
    phi = parse_phi(args.phi)
    levels = [float(v) for v in args.levels.split(",")]
    rows = []
    if hasattr(phi, "build"):
        rep = verify_levelset_bounds(phi.build, levels, n_angles=args.angles)
        for r in rep["rows"]:
            rows.append(
                (
                    r["t"],
                    float(np.exp(r["log_area"])),
                    float(np.exp(r["log_lower"])),
                    float(np.exp(r["log_upper"])),
                )
            )
        _write_csv(args.out, ["t", "area", "lower_bound", "upper_bound"], rows)
    else:
        for t in levels:
            rows.append((t, sublevel_area(phi, t, n_angles=args.angles)))
        _write_csv(args.out, ["t", "area"], rows)
    return 0


def cmd_compare(args):
    f = parse_phi(args.f)
    g = parse_phi(args.g)
    dirs = [(1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5)), (np.sqrt(0.5), -np.sqrt(0.5))]
    logr = np.linspace(-6 * np.log(10.0), 8 * np.log(10.0), 43)
    rep = equivalent_on_rays(f.log_value_dir, g.log_value_dir, dirs, logr)
    fwd, bwd = rep["forward"], rep["backward"]
    _dump_json(
        {
            "f": args.f,
            "g": args.g,
            "f_dominates_g": fwd.dominates,
            "g_dominates_f": bwd.dominates,
            "equivalent": rep["equivalent"],
            "forward_constants": {"c": fwd.c, "d": fwd.d},
            "backward_constants": {"c": bwd.c, "d": bwd.d},
        },
        args.report,
    )
    return 0


def cmd_probe(args):
    phi = parse_phi(args.phi)
    mats, params = default_probe_family(args.rotations, args.shears, args.scales)
    rep = essential_anisotropy_probe(phi, mats)
    rows = [
        (theta, s, lam, "fail" if fail else "pass", float(drop))
        for (theta, s, lam), fail, drop in zip(params.tolist(), rep["fails"], rep["worst_drops"])
    ]
    _write_csv(args.out, ["theta_deg", "shear", "scale", "verdict", "worst_drop"], rows)
    print(
        f"{rep['n_failing']}/{rep['n_maps']} maps fail the axis decomposition"
        f" ({rep['n_evaluated']} evaluated up to sign)"
    )
    return 0


def cmd_capacity(args):
    phi = parse_phi(args.phi)
    phicirc = PowerFn(args.phicirc_p)
    n = args.n
    K = disk_mask(n, 0.5, 0.5, args.inner_r)
    if args.relative:
        Om = disk_mask(n, 0.5, 0.5, args.outer_r)
        res = relative_capacity(phi, phicirc, args.kappa, K, Om, n, mode=args.mode)
    else:
        res = sobolev_capacity(phi, phicirc, args.kappa, K, n)
    payload = {
        "value": res.value,
        "iterations": res.iterations,
        "mode": res.mode,
        "n": res.n,
        "stop_reason": res.stop_reason,
        "gap": res.gap,
        "evaluations": res.evaluations,
    }
    _dump_json(payload, args.out)
    if args.field:
        res.minimizer.to_binary(args.field)
    return 0


def cmd_solve(args):
    phi = parse_phi(args.phi)
    if args.stages < 1:
        raise ValueError(f"--stages {args.stages} must be at least 1")
    base = GridField2D.unit_square(args.n)
    kind, _, rest = args.measure.partition(":")
    if kind == "dirac":
        try:
            x, y = (float(v) for v in rest.split(","))
        except ValueError:
            raise ValueError(f"--measure {args.measure!r}: expected dirac:x,y") from None
        mu = DiscreteMeasure(atoms=[(x, y, 1.0)])
    elif kind == "square":
        half = float(rest) if rest else 0.2
        dens = GridField2D.unit_square(args.n)
        ax = dens.axis()
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        dens.values = np.where(
            (np.abs(X - 0.5) <= half) & (np.abs(Y - 0.5) <= half), 1.0, 0.0
        )
        mu = DiscreteMeasure(atoms=[], density=dens)
    else:
        raise SystemExit(f"unknown measure {args.measure!r}")
    scales = [0.5 * 2.0**-s for s in range(1, args.stages + 1)]
    seq_a = ApproxSequence(kernel=args.seq, scales=scales)
    seq_b = ApproxSequence(kernel="bump" if args.seq == "gaussian" else "gaussian", scales=scales)
    rep = uniqueness_experiment(phi, mu, seq_a, seq_b, base)
    payload = {
        "l1_gaps": rep.l1_gaps,
        "gap_integrals": rep.gap_integrals,
        "l1_decreasing": rep.gaps_decreasing(),
        "gap_decreasing": rep.gap_integrals_decreasing(),
        "stages": rep.stages,
    }
    _dump_json(payload, args.out)
    if args.fields_dir:
        os.makedirs(args.fields_dir, exist_ok=True)
        for s, u in enumerate(rep.solutions_a):
            u.to_binary(os.path.join(args.fields_dir, f"uA_{s}.bin"))
        for s, u in enumerate(rep.solutions_b):
            u.to_binary(os.path.join(args.fields_dir, f"uB_{s}.bin"))
    return 0


def cmd_verify_all(args):
    summary, timings = acceptance.run_all(quick=args.quick, seed=args.seed)
    _dump_json(summary, args.out)
    if args.timings:
        _dump_json(timings, args.timings)
    for name, crit in sorted(summary["criteria"].items()):
        print(f"{name}: {'PASS' if crit['pass'] else 'FAIL'}")
    print(f"all: {'PASS' if summary['all_pass'] else 'FAIL'}")
    return 0 if summary["all_pass"] else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="anisolab")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build the competing triple")
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--alpha", type=float, default=1.0)
    c.add_argument("--cycles", type=int, default=6)
    c.add_argument("--out", default="triple.json")
    c.add_argument("--schedule-csv", default=None)
    c.set_defaults(fn=cmd_construct)

    c = sub.add_parser("table", help="export a monotone table to CSV")
    c.add_argument("--table", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_table)

    c = sub.add_parser("phicirc", help="radial rearrangement table of a 2-D function")
    c.add_argument("--phi", required=True)
    c.add_argument("--t-lo", type=float, default=1e-6)
    c.add_argument("--t-hi", type=float, default=1e6)
    c.add_argument("--points", type=int, default=120)
    c.add_argument("--angles", type=int, default=2048)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_phicirc)

    c = sub.add_parser("sobconj", help="H and the Sobolev conjugate from a table")
    c.add_argument("--table", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_sobconj)

    c = sub.add_parser("conjugate", help="Young conjugate on a dual grid")
    c.add_argument("--phi", required=True)
    c.add_argument("--extent", type=float, default=4.0)
    c.add_argument("--n", type=int, default=257)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_conjugate)

    c = sub.add_parser("sublevel", help="sublevel areas (with bounds for triples)")
    c.add_argument("--phi", required=True)
    c.add_argument("--levels", required=True)
    c.add_argument("--angles", type=int, default=2048)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_sublevel)

    c = sub.add_parser("compare", help="two-sided domination verdict")
    c.add_argument("--f", required=True)
    c.add_argument("--g", required=True)
    c.add_argument("--report", required=True)
    c.set_defaults(fn=cmd_compare)

    c = sub.add_parser("probe", help="axis decomposition over a map family")
    c.add_argument("--phi", required=True)
    c.add_argument("--rotations", type=int, default=360)
    c.add_argument("--shears", type=int, default=21)
    c.add_argument("--scales", type=int, default=21)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_probe)

    c = sub.add_parser("capacity", help="condenser capacity on disk masks")
    c.add_argument("--phi", required=True)
    c.add_argument("--phicirc-p", type=float, default=2.0)
    c.add_argument("--kappa", type=float, default=1.0)
    c.add_argument("--inner-r", type=float, default=0.1)
    c.add_argument("--outer-r", type=float, default=0.4)
    c.add_argument("--n", type=int, default=257)
    c.add_argument("--relative", action="store_true")
    c.add_argument("--mode", default="full", choices=["full", "dirichlet-only"])
    c.add_argument("--out", required=True)
    c.add_argument("--field", default=None)
    c.set_defaults(fn=cmd_capacity)

    c = sub.add_parser("solve", help="two-sequence measure-data experiment")
    c.add_argument("--phi", required=True)
    c.add_argument("--measure", default="dirac:0.5,0.5")
    c.add_argument("--seq", default="gaussian", choices=["gaussian", "bump"])
    c.add_argument("--stages", type=int, default=5)
    c.add_argument("--n", type=int, default=129)
    c.add_argument("--out", required=True)
    c.add_argument("--fields-dir", default=None)
    c.set_defaults(fn=cmd_solve)

    c = sub.add_parser("verify-all", help="run the acceptance battery")
    c.add_argument("--quick", action="store_true")
    c.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    c.add_argument("--out", default="summary.json")
    c.add_argument("--timings", default=None)
    c.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except Exception as exc:  # argparse handles usage errors with code 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
