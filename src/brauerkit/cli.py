"""Command-line front end.

Subcommands:

  gen         build (or load from cache) a family and print a summary
  count       cardinalities across a degree range, with formulas where known
  green       Green-structure table of one family instance
  kernel      group kernel of one family instance
  verify      run named verification targets and emit PASS/FAIL reports
  complexity  derive and print the certified complexity interval table

Exit codes: 0 on success with all verifications passing, 1 on any FAIL or
computation error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from collections import Counter

from . import __version__
from .diagrams import encode, identity
from .engine import essential_depth, green, index_period, is_aperiodic, units
from .errors import BrauerKitError, CrossCheckFailed
from .families import CLOSED_FORMS, FAMILY_IDS, as_closure, construct
from .kernel import kernel
from .store import default_cache_dir, load_or_build, make_report
from .verify import TARGETS, run_target

FORMATS = ("json", "csv", "md")


def _emit_rows(rows, headers, fmt, out):
    if fmt == "json":
        json.dump(rows, out, indent=2, default=str)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=headers)
        writer.writeheader()
        for row in rows:
            writer.writerow({h: row.get(h, "") for h in headers})
    else:
        cells = [[str(row.get(h, "")) for h in headers] for row in rows]
        widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
                  for i, h in enumerate(headers)]
        line = "| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |"
        sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        out.write(line + "\n" + sep + "\n")
        for c in cells:
            out.write("| " + " | ".join(v.ljust(w) for v, w in zip(c, widths)) + " |\n")


def _rank_histogram(elements):
    return dict(sorted(Counter(d.rank for d in elements).items(), reverse=True))


def cmd_gen(args):
    t0 = time.time()
    instance, hit = load_or_build(
        args.family, args.n, budget=args.budget, cache_dir=args.cache_dir
    )
    out = {
        "family": args.family,
        "n": args.n,
        "count": instance.size,
        "strategy": instance.strategy,
        "source": "cache" if hit else "built",
        "rank_histogram": _rank_histogram(instance.elements),
    }
    try:
        sg = as_closure(instance, budget=args.budget)
        data = green(sg)
        out["j_classes"] = data.num_j
        out["aperiodic"] = is_aperiodic(sg)
        if identity(args.n) in instance.elements:
            out["units"] = len(units(sg))
        out["essential_depth"] = essential_depth(sg)
    except BrauerKitError as exc:
        out["green_summary"] = f"skipped ({exc})"
    out["duration_ms"] = round((time.time() - t0) * 1000, 1)
    if args.format == "json":
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        path = default_cache_dir(args.cache_dir)
        for key, value in out.items():
            print(f"{key}: {value}")
        print(f"cache: {path / (args.family + '-' + str(args.n) + '.cache')}")
    return 0


def cmd_count(args):
    rows = []
    for k in range(1, args.n + 1):
        row = {"family": args.family, "n": k}
        formula = CLOSED_FORMS.get(args.family)
        row["formula"] = formula(k) if formula else ""
        row["count"] = construct(args.family, k, budget=args.budget).size
        if formula and row["count"] != row["formula"]:
            raise CrossCheckFailed(
                f"{args.family}:{k} has {row['count']} elements, "
                f"the formula gives {row['formula']}")
        rows.append(row)
    _emit_rows(rows, ["family", "n", "count", "formula"], args.format, sys.stdout)
    return 0


def cmd_green(args):
    sg = as_closure(construct(args.family, args.n, budget=args.budget))
    data = green(sg)
    rows = []
    for j in range(data.num_j):
        members = data.j_members[j]
        ranks = {sg.elements[i].rank for i in members}
        r_count = len({int(data.r[i]) for i in members})
        l_count = len({int(data.l[i]) for i in members})
        rows.append({
            "j_class": j,
            "rank": "/".join(str(r) for r in sorted(ranks, reverse=True)),
            "size": len(members),
            "r_classes": r_count,
            "l_classes": l_count,
            "subgroup": data.j_subgroup_order[j],
            "regular": data.j_regular[j],
            "essential": data.j_essential[j],
        })
    rows.sort(key=lambda r: (-int(r["rank"].split("/")[0]), r["j_class"]))
    _emit_rows(
        rows,
        ["j_class", "rank", "size", "r_classes", "l_classes",
         "subgroup", "regular", "essential"],
        args.format, sys.stdout,
    )
    print(f"elements: {sg.size}  j_classes: {data.num_j}  "
          f"essential_depth: {essential_depth(sg)}  aperiodic: {is_aperiodic(sg)}",
          file=sys.stderr)
    return 0


def cmd_kernel(args):
    sg = as_closure(construct(args.family, args.n, budget=args.budget))
    result = kernel(sg)
    out = {
        "family": args.family,
        "n": args.n,
        "semigroup_size": sg.size,
        "kernel_size": len(result.kernel_ids),
        "iterations": result.iterations,
        "kernel_aperiodic": result.is_aperiodic,
        "aperiodic_by_groups": result.is_aperiodic,
    }
    if result.witness is not None:
        idx, per = index_period(sg, result.witness)
        out["witness"] = encode(sg.elements[result.witness])
        out["witness_index"] = idx
        out["witness_period"] = per
    if args.format == "json":
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        for key, value in out.items():
            print(f"{key}: {value}")
    return 0


def cmd_verify(args):
    names = list(args.targets)
    if names == ["all"]:
        names = list(TARGETS)
    unknown = [t for t in names if t not in TARGETS]
    if unknown:
        print(f"unknown verify target(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known targets: {', '.join(TARGETS)}", file=sys.stderr)
        return 2
    reports = []
    all_pass = True
    for name in names:
        t0 = time.time()
        try:
            passed, params, details = run_target(name, {"n": args.n})
        except BrauerKitError as exc:
            passed, params, details = False, {}, {"error": str(exc)}
        duration = round((time.time() - t0) * 1000, 1)
        reports.append(make_report(
            name, TARGETS[name].anchor, params,
            "PASS" if passed else "FAIL", details, duration,
        ))
        all_pass &= passed
    if args.format == "json":
        json.dump(reports, sys.stdout, indent=2)
        print()
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["target", "verdict", "duration_ms", "anchor"])
        for rep in reports:
            writer.writerow([rep["target"], rep["verdict"],
                             rep["duration_ms"], rep["anchor"]])
    else:
        for rep in reports:
            print(f"{rep['verdict']}  {rep['target']:<24} "
                  f"{rep['duration_ms']:9.1f} ms  {rep['anchor']}")
            if rep["verdict"] == "FAIL":
                print(f"      {json.dumps(rep['details'], default=str)}")
    return 0 if all_pass else 1


def cmd_complexity(args):
    from .derivations import FAMILY_ROWS, build_standard_ledger, standard_table
    keep = set(args.targets)
    missing = keep - {f"{code}:{n}" for code, degrees in FAMILY_ROWS
                      for n in degrees}
    if missing:
        print(f"unknown table row(s): {', '.join(sorted(missing))}",
              file=sys.stderr)
        return 2
    if args.verify_checks < 0:
        print("--verify-checks must be at least 0", file=sys.stderr)
        return 2
    led = build_standard_ledger()
    entries = led.derive_all(exclude_rules=args.exclude_rule,
                             order_seed=args.order_seed)
    rows = standard_table(entries)
    if keep:
        rows = [r for r in rows if f"{r['family']}:{r['n']}" in keep]
    shaped = [
        {
            "family": r["family"], "n": r["n"], "lo": r["lo"], "hi": r["hi"],
            "interval": f"[{r['lo']},{r['hi']}]",
            "status": "OPEN" if r["open"] else "exact",
        }
        for r in rows
    ]
    _emit_rows(shaped, ["family", "n", "lo", "hi", "interval", "status"],
               args.format, sys.stdout)
    if args.verify_checks:
        n = led.verify_sample(count=args.verify_checks)
        print(f"re-ran {n} stored checks, all reproduced", file=sys.stderr)
    if args.explain:
        matches = [ref for ref in led.instances if ref.key == args.explain]
        if not matches:
            print(f"no registered instance {args.explain!r}", file=sys.stderr)
            return 2
        tree = led.derivation_tree(matches[0])
        json.dump(tree, sys.stdout, indent=2)
        print()
    return 0


def _add_family_flags(sub, required=True):
    sub.add_argument("--family", required=required, choices=FAMILY_IDS)
    sub.add_argument("--n", type=int, required=required)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brauerkit",
        description="diagram semigroup computation kit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    common = dict(budget=lambda p: p.add_argument("--budget", type=int, default=None),
                  fmt=lambda p: p.add_argument("--format", choices=FORMATS,
                                               default="md"),
                  cache=lambda p: p.add_argument("--cache-dir", default=None))

    gen = subs.add_parser("gen", help="build a family and cache it")
    _add_family_flags(gen)
    common["budget"](gen)
    common["fmt"](gen)
    common["cache"](gen)
    gen.set_defaults(func=cmd_gen)

    count = subs.add_parser("count", help="cardinalities for degrees 1..n")
    _add_family_flags(count)
    common["budget"](count)
    common["fmt"](count)
    count.set_defaults(func=cmd_count)

    grn = subs.add_parser("green", help="Green-structure table")
    _add_family_flags(grn)
    common["budget"](grn)
    common["fmt"](grn)
    grn.set_defaults(func=cmd_green)

    ker = subs.add_parser("kernel", help="group kernel of a family instance")
    _add_family_flags(ker)
    common["budget"](ker)
    common["fmt"](ker)
    ker.set_defaults(func=cmd_kernel)

    ver = subs.add_parser("verify", help="run verification targets")
    ver.add_argument("targets", nargs="+",
                     help="target ids, or 'all' for the full suite")
    ver.add_argument("--n", type=int, default=None,
                     help="override the default maximum degree")
    common["budget"](ver)
    common["fmt"](ver)
    ver.set_defaults(func=cmd_verify)

    cpx = subs.add_parser("complexity", help="derived complexity intervals")
    cpx.add_argument("targets", nargs="*",
                     help="optional row filters like B:4")
    cpx.add_argument("--explain", default=None, metavar="KEY",
                     help="print the derivation tree of one instance")
    cpx.add_argument("--exclude-rule", action="append", default=[], metavar="KIND",
                     choices=("ideal", "local", "principal", "kernel-chain",
                              "sub", "iso"),
                     help="drop a rule kind before deriving (repeatable)")
    cpx.add_argument("--order-seed", type=int, default=None, metavar="N",
                     help="shuffle the rule application order")
    cpx.add_argument("--verify-checks", type=int, default=0, metavar="N",
                     help="re-run N stored side-condition checks")
    common["fmt"](cpx)
    cpx.set_defaults(func=cmd_complexity)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrauerKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
