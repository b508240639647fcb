"""Command line front end.

Subcommands build a ring from a compact identifier (pn:<n>, quadric:<r>,
gr:<k>,<n>, fci:<m1>,<m2>,...;r=<r>) and emit a JSON, CSV, or text report.
Exit codes: 0 success, 1 computation failure (with a machine-readable error
object), 2 usage error.
"""

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from math import comb, gcd, isfinite, nan

from . import acceptance, complexity, partitions, rings
from .linalg import is_positive_definite

class UsageError(ValueError):
    pass


def build_ring(spec):
    """Turn a ring identifier string into a ring; bad grammar raises UsageError.

    The identifier is parsed in full before any constructor runs, so every
    ValueError a constructor raises is a domain error.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"ring identifier {spec!r} has no ':'")

    def ints(text, count=None):
        try:
            values = [int(x) for x in text.split(",")]
        except ValueError as exc:
            raise UsageError(f"cannot parse ring identifier {spec!r}") from exc
        if count is not None and len(values) != count:
            raise UsageError(f"cannot parse ring identifier {spec!r}")
        return values

    if kind == "pn":
        return rings.projective_space(*ints(rest, 1))
    if kind == "quadric":
        return rings.quadric(*ints(rest, 1))
    if kind == "gr":
        return rings.grassmannian(*ints(rest, 2))
    if kind == "fci":
        ms, sep2, rpart = rest.partition(";")
        if not sep2 or not rpart.startswith("r="):
            raise UsageError(
                f"fci identifier {spec!r} must look like fci:2,3;r=3")
        return rings.fano_ci(ints(ms), *ints(rpart[2:], 1))
    raise UsageError(f"unknown ring kind {kind!r} "
                     "(use pn:, quadric:, gr:, or fci:)")


def parse_state(ring, text):
    """A state name: 'unit', 'point', or any basis label of the ring."""
    if text == "unit":
        return ring.unit()
    if text in ("point", "pt"):
        if ring.point_index is None:
            raise ValueError(f"ring {ring.name} has no designated point class")
        return ring.basis_element(ring.point_index)
    if text in ring.labels:
        return ring.element({text: 1})
    raise ValueError(f"unknown state {text!r}; use 'unit', 'point', "
                     "or a basis label")


def element_json(ring, x):
    """Element as {label: {q exponent: coefficient}} with string rationals."""
    out = {}
    for (i, e), c in sorted(x.coeffs.items()):
        out.setdefault(ring.labels[i], {})[str(e)] = str(c)
    return out


def element_str(ring, x):
    """Human form like '10 s[3,3] + 5 q s[1]'."""
    bits = []
    for (i, e), c in sorted(x.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        parts = []
        if mag != 1 or (e == 0 and i == ring.unit_index):
            parts.append(str(mag))
        if e:
            parts.append("q" if e == 1 else f"q^{e}")
        if i != ring.unit_index:
            parts.append(ring.labels[i])
        term = " ".join(parts)
        if not bits:
            bits.append(term if sign == "+" else f"-{term}")
        else:
            bits.append(f"{sign} {term}")
    return " ".join(bits) if bits else "0"


def state_json(ring, point):
    """{label: coordinate} over the nonzero coordinates of a state: a
    float tuple as it is, or a ProjState as x / pivot over its integers x,
    pivot the first nonzero one, written as str(Fraction(x, pivot)) would."""
    if not isinstance(point, complexity.ProjState):
        return {ring.labels[i]: v for i, v in enumerate(point) if v != 0}
    ints = point.ints
    pivot = next(x for x in ints if x)
    out = {}
    for i, x in enumerate(ints):
        if x:
            g = gcd(x, pivot)
            num, den = x // g, pivot // g
            if den < 0:
                num, den = -num, -den
            out[ring.labels[i]] = str(num) if den == 1 else f"{num}/{den}"
    return out


# -- subcommand bodies: each returns a JSON-ready report dict ---------------


def cmd_ring(args):
    ring = build_ring(args.ring)
    return {
        "name": ring.name, "dim": ring.dim, "tau": ring.tau,
        "labels": list(ring.labels), "degrees": list(ring.degrees),
        "unit": ring.labels[ring.unit_index],
        "point": None if ring.point_index is None else ring.labels[ring.point_index],
        "pairing": [[{str(ring.pairing_q_power(i, j)): str(row[j])} if j in row else {}
                     for j in range(ring.dim)] for i, row in enumerate(ring.pairing)],
    }


def cmd_delta(args):
    ring = build_ring(args.ring)
    delta = ring.handle_element()
    formulas = rings.handle_closed_forms(ring)
    agree = all(f == delta for f in formulas.values())
    return {
        "ring": ring.name,
        "delta": element_json(ring, delta),
        "display": element_str(ring, delta),
        "formulas": {name: element_str(ring, f) for name, f in formulas.items()},
        "formulas_agree": agree,
    }


def cmd_powers(args):
    ring = build_ring(args.ring)
    if args.k < 0:
        raise ValueError("power exponent must be nonnegative")
    power = ring.power(ring.handle_element(), args.k)
    return {"ring": ring.name, "k": args.k,
            "power": element_json(ring, power),
            "display": element_str(ring, power)}


def cmd_complexity(args):
    ring = build_ring(args.ring)
    source = parse_state(ring, args.source)
    target = parse_state(ring, args.target)
    if args.eps is None:
        k = complexity.exact_complexity(ring, source, target, kmax=args.kmax)
        mode = "exact"
    else:
        k = complexity.approx_complexity(ring, source, target, args.eps,
                                         kmax=args.kmax)
        mode = "approximate"
    found = k is not complexity.NOT_FOUND
    return {"ring": ring.name, "from": args.source, "to": args.target,
            "mode": mode, "eps": args.eps,
            "found": found, "complexity": k if found else None}


def cmd_orbit(args):
    ring = build_ring(args.ring)
    source = parse_state(ring, args.source)
    traj = complexity.trajectory(ring, source, kmax=args.kmax)
    return {"ring": ring.name, "from": args.source,
            "count": len(traj.states),
            "closed": traj.closed, "hit_zero": traj.hit_zero,
            "cycle_start": traj.cycle_start, "cycle_length": traj.cycle_length,
            "states": [state_json(ring, s) for s in traj.states]}


def cmd_sinfty(args):
    ring = build_ring(args.ring)
    source = parse_state(ring, args.source)
    rep = complexity.s_infinity(ring, source)
    return {"ring": ring.name, "from": args.source,
            "count": len(rep.points), "exact": rep.exact,
            "method": rep.method, "notes": rep.notes,
            "points": [state_json(ring, p) for p in rep.points]}


def cmd_dimf(args):
    ring = build_ring(args.ring)
    rank, powers = ring.f_span_dim()
    closed = rings.dim_f_closed_form(ring)
    return {"ring": ring.name, "computed": rank, "powers": powers,
            "bound": ring.dim_bound(), "closed_form": closed,
            "matches_closed_form": None if closed is None else rank == closed}


def cmd_amatrix(args):
    ring = build_ring(args.ring)
    mat, den = ring.a_matrix()
    sym = all(mat[i][j] == mat[j][i]
              for i in range(ring.dim) for j in range(i))
    pd, minors = is_positive_definite((mat, den)) if sym else (False, [])
    return {"ring": ring.name, "labels": list(ring.labels),
            "matrix": [[str(Fraction(x, den)) for x in row] for row in mat],
            "symmetric": sym, "positive_definite": pd,
            "leading_minors": [str(v) for v in minors]}


def cmd_estimate(args):
    if args.table:
        rows = []
        for k, n, _, _ in acceptance.EST_TABLE:
            ring = rings.grassmannian(k, n)
            rank, _ = ring.f_span_dim()
            rows.append({"ring": f"gr:{k},{n}", "dimH": ring.dim,
                         "Est": partitions.est_bound(k, n),
                         "dimF-computed": rank})
        return {"table": rows}
    if args.k is None or args.n is None:
        raise UsageError("estimate needs 'k n' arguments or --table")
    bound = partitions.est_bound(args.k, args.n)
    return {"k": args.k, "n": args.n, "dimH": comb(args.n, args.k),
            "Est": bound}


def cmd_verify(args):
    only = None
    if args.only:
        try:
            only = {int(x) for x in args.only.split(",")}
        except ValueError as exc:
            raise UsageError(f"--only wants comma-separated integers, "
                             f"got {args.only!r}") from exc
        unknown = only - {cid for cid, _ in acceptance.CRITERIA}
        if unknown:
            raise UsageError(f"unknown criteria {sorted(unknown)}")
    result = acceptance.run_all(only=only)
    result["summary"] = acceptance.summary_lines(result)
    return result


# -- report rendering --------------------------------------------------------


def _text_lines(obj, indent=""):
    lines = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            if not isinstance(val, (dict, list)) or not val:
                shown = val if val not in ({}, []) else "(empty)"
                lines.append(f"{indent}{key}: {shown}")
            else:
                compact = json.dumps(val, sort_keys=True)
                if len(compact) <= 100:
                    lines.append(f"{indent}{key}: {compact}")
                else:
                    lines.append(f"{indent}{key}:")
                    lines.extend(_text_lines(val, indent + "  "))
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}- {json.dumps(val, sort_keys=True)}")
            else:
                lines.append(f"{indent}- {val}")
    else:
        lines.append(f"{indent}{obj}")
    return lines


def render(report, fmt):
    if fmt == "text" and isinstance(report, dict) and "summary" in report \
            and "criteria" in report:
        lines = list(report["summary"])
        for rec in report["criteria"]:
            for detail in rec["details"]:
                if not detail.startswith("ok: "):
                    lines.append(f"  [{rec['id']}] {detail}")
        verdict = "PASS" if report["ok"] else "FAIL"
        known = report["known_failure_count"]
        tail = f" ({known} known discrepancy)" if known else ""
        lines.append(f"overall: {verdict}{tail}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        rows = report.get("table") if isinstance(report, dict) else None
        if rows is None:
            raise UsageError("csv output is only available for estimate --table")
        header = ["ring", "dimH", "Est", "dimF-computed"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[h] for h in header] for row in rows)
        return buf.getvalue()
    return "\n".join(_text_lines(report)) + "\n"


def _finite_float(text):
    """argparse type for tolerances: NaN and infinities have no JSON form."""
    try:
        value = float(text)
    except ValueError:
        value = nan
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qh",
        description="Exact small quantum cohomology rings and handle dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        if ring:
            p.add_argument("ring", help="pn:<n> | quadric:<r> | gr:<k>,<n> "
                                        "| fci:<m1>,<m2>,...;r=<r>")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="json")
        p.add_argument("--out", help="write the report to a file")

    common(sub.add_parser("ring", help="basis, degrees, grading, pairing"))
    common(sub.add_parser("delta", help="handle element and formula agreement"))

    p = sub.add_parser("powers", help="a power of the handle element")
    common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("complexity", help="steps from one state to another")
    common(p)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--eps", type=_finite_float, default=None,
                   help="tolerance for approximate complexity")
    p.add_argument("--kmax", type=int, default=None)

    p = sub.add_parser("orbit", help="trajectory of a state under the handle")
    common(p)
    p.add_argument("--from", dest="source", default="unit")
    p.add_argument("--kmax", type=int, default=None)

    p = sub.add_parser("sinfty", help="accumulation points outside the orbit")
    common(p)
    p.add_argument("--from", dest="source", default="unit")

    common(sub.add_parser("dimf",
                          help="dimension of the span of handle powers"))
    common(sub.add_parser("amatrix",
                          help="handle/point matrix with certificates"))

    p = sub.add_parser("estimate", help="span dimension bound for gr:<k>,<n>")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--table", action="store_true",
                   help="emit the full bound table for the standard rings")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out")
    return parser


COMMANDS = {
    "ring": cmd_ring, "delta": cmd_delta, "powers": cmd_powers,
    "complexity": cmd_complexity, "orbit": cmd_orbit, "sinfty": cmd_sinfty,
    "dimf": cmd_dimf, "amatrix": cmd_amatrix, "estimate": cmd_estimate,
    "verify": cmd_verify,
}


def _check_finite(report):
    """Raise ValueError on a float that strict JSON cannot hold."""
    if isinstance(report, float) and not isfinite(report):
        raise ValueError(f"report holds a non-finite float {report!r}")
    if isinstance(report, (dict, list, tuple)):
        for value in report.values() if isinstance(report, dict) else report:
            _check_finite(value)


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        report = COMMANDS[args.command](args)
        _check_finite(report)
        text = None if args.format == "json" else render(report, args.format)
    except UsageError as exc:
        sys.stderr.write(f"qh: {exc}\n")
        return 2
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(error, sort_keys=True, allow_nan=False) + "\n")
        return 1
    try:
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            if text is None:  # JSON is streamed, never held whole
                json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
                text = "\n"
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"qh: cannot write the report: {exc}\n")
        return 2
    if args.command == "verify" and not report["ok"]:
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
