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

import numpy as np

from . import __version__
from .diagrams import encode, from_labels, identity, ranks
from .engine import essential_depth, green, index_period, is_aperiodic, units
from .errors import BrauerKitError
from .families import CLOSED_FORMS, FAMILY_IDS, as_closure, cardinality_table, construct
from .kernel import kernel
from .store import cache_path, default_cache_dir, load_or_build, make_report
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


def _emit_record(record, fmt, out):
    """One record: a json object, a csv header and value row, or one
    "key: value" line per field."""
    if fmt == "json":
        json.dump(record, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        _emit_rows([record], list(record), fmt, out)
    else:
        for key, value in record.items():
            out.write(f"{key}: {value}\n")


def _rank_histogram(elements):
    """{rank: count} over an ElementSet, highest rank first."""
    counts = Counter(ranks(elements.labels).tolist())
    return dict(sorted(counts.items(), reverse=True))


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
    _emit_record(out, args.format, sys.stdout)
    if args.format == "md":
        path = cache_path(default_cache_dir(args.cache_dir), args.family, args.n)
        print(f"cache: {path}")
    return 0


def cmd_count(args):
    formula = CLOSED_FORMS.get(args.family)
    counts = cardinality_table(args.family, args.n, budget=args.budget)
    rows = [{"family": args.family, "n": k, "formula": formula(k) if formula else "",
             "count": count} for k, count in counts.items()]
    _emit_rows(rows, ["family", "n", "count", "formula"], args.format, sys.stdout)
    return 0


def cmd_green(args):
    sg = as_closure(construct(args.family, args.n, budget=args.budget))
    data = green(sg)
    j_ranks = np.unique(np.column_stack([data.j, ranks(sg.labels)]), axis=0)[::-1].tolist()
    size = np.bincount(data.j, minlength=data.num_j).tolist()
    r_count, l_count = (  # the J-class of each R- or L-class's least member, counted
        np.bincount(data.j[np.unique(labels, return_index=True)[1]],
                    minlength=data.num_j).tolist() for labels in (data.r, data.l))
    rows = []
    for j, order in enumerate(data.j_subgroup_order.tolist()):
        rows.append({
            "j_class": j,
            "rank": "/".join(str(r) for c, r in j_ranks if c == j),  # descending
            "size": size[j],
            "r_classes": r_count[j],
            "l_classes": l_count[j],
            "subgroup": order,
            "regular": order > 0,
            "essential": order > 1,
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
        out["witness"] = encode(from_labels(sg.labels[result.witness]))
        out["witness_index"] = idx
        out["witness_period"] = per
    _emit_record(out, args.format, sys.stdout)
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
    if args.format in ("json", "csv"):
        _emit_rows(reports, ["target", "verdict", "duration_ms", "anchor"],
                   args.format, sys.stdout)
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


def _at_least(low):
    """The argparse type of an integer of at least low: a smaller one is a
    usage error, exit code 2."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brauerkit",
        description="diagram semigroup computation kit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="build a family and cache it")
    count = subs.add_parser("count", help="cardinalities for degrees 1..n")
    grn = subs.add_parser("green", help="Green-structure table")
    ker = subs.add_parser("kernel", help="group kernel of a family instance")
    for sub, func in ((gen, cmd_gen), (count, cmd_count), (grn, cmd_green),
                      (ker, cmd_kernel)):
        sub.add_argument("--family", required=True, choices=FAMILY_IDS)
        sub.add_argument("--n", type=_at_least(1), required=True)
        sub.add_argument("--budget", type=_at_least(1), default=None)
        sub.add_argument("--format", choices=FORMATS, default="md")
        sub.set_defaults(func=func)
    gen.add_argument("--cache-dir", default=None)

    ver = subs.add_parser("verify", help="run verification targets")
    ver.add_argument("targets", nargs="+",
                     help="target ids, or 'all' for the full suite")
    ver.add_argument("--n", type=_at_least(1), default=None,
                     help="override the default maximum degree")
    ver.add_argument("--format", choices=FORMATS, default="md")
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
    cpx.add_argument("--verify-checks", type=_at_least(0), default=0, metavar="N",
                     help="re-run N stored side-condition checks")
    cpx.add_argument("--format", choices=FORMATS, default="md")
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
