"""Command line interface: parameter reports, tables, matrices, verification.

All data goes to stdout (JSON unless another format is requested), all
diagnostics to stderr.  Exit codes: 0 ok, 1 verification failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .code import (
    CartesianCode,
    code_params,
    digit_items,
    legend_text,
    matrix_text,
    regularity,
    standard_monomials,
)
from .constructions import degenerate_torus_for_degrees
from .errors import CartesianCodeError
from .field import field_for_order
from .grid import Grid
from .oracle import OracleBudget, verify_degrees
from .poly import monomial_blocks

_REPEAT = re.compile(r"^(.+?)\s*[x×*]\s*(\d+)$")


def _resolve_field(q: int, ext):
    field = field_for_order(q)
    if ext not in (None, "auto") and int(ext) != field.e:
        raise ValueError(f"q = {q} is {field.p}^{field.e}, not an extension of degree {ext}")
    return field


def _split_top_level(text: str) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced braces in set expression")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced braces in set expression")
    parts.append("".join(cur))
    return parts


def _parse_one_set(field, expr: str):
    expr = expr.strip()
    if expr == "full":
        return tuple(field.elements())
    if expr == "units":
        return tuple(range(1, field.q))
    if expr.startswith("subgroup:"):
        return field.subgroup_of_order(int(expr.split(":", 1)[1])).elements
    if expr.startswith("{") and expr.endswith("}"):
        inner = expr[1:-1].strip()
        if not inner:
            raise ValueError("empty explicit set")
        return tuple(int(tok) for tok in inner.split(","))
    raise ValueError(f"bad set expression {expr!r}")


def parse_set_expressions(field, text: str) -> list[tuple[int, ...]]:
    """Comma-separated per-coordinate expressions.

    Forms: full | units | subgroup:k | {c1,c2,...}; an xN / ×N / *N suffix
    repeats the expression N times.
    """
    sets = []
    for raw in _split_top_level(text):
        expr = raw.strip()
        if not expr:
            raise ValueError("empty set expression")
        m = _REPEAT.match(expr)
        if m:
            try:
                base = _parse_one_set(field, m.group(1))
            except ValueError:
                base = None
            if base is not None:
                sets.extend([base] * int(m.group(2)))
                continue
        sets.append(_parse_one_set(field, expr))
    return sets


# vars(): CodeParams' fields in order, as asdict gives them but without its
# deep copy, which costs about 15 us per table row in a fresh process
def _params_report(code: CartesianCode) -> dict:
    pr = code.params()
    return {"q": code.field.q, "cards": list(code.cards), "d": code.d, **vars(pr),
            "saturated": pr.saturated}


def _table_rows(cards, dmax: int) -> list[dict]:
    rows = [{"d": d, **vars(code_params(cards, d))} for d in range(1, dmax + 1)]
    for row in rows:
        del row["regularity"]  # one value for the whole table
    return rows


def _format_table(qval: int, cards, rows, fmt: str) -> str:
    if fmt == "csv":
        lines = ["d,length,dimension,min_distance"]
        lines += [
            f"{r['d']},{r['length']},{r['dimension']},{r['min_distance']}" for r in rows
        ]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"q": qval, "cards": list(cards), "rows": rows}) + "\n"
    # markdown: one column per degree, one row per parameter
    header = "| d | " + " | ".join(str(r["d"]) for r in rows) + " |"
    sep = "| --- |" + " --- |" * len(rows)
    lines = [header, sep]
    for key in ("length", "dimension", "min_distance"):
        lines.append("| " + key + " | " + " | ".join(str(r[key]) for r in rows) + " |")
    return "\n".join(lines) + "\n"


def cmd_params(args) -> int:
    field = _resolve_field(args.q, args.ext)
    code = CartesianCode(Grid(field, parse_set_expressions(field, args.sets)), args.d)
    print(json.dumps(_params_report(code)))
    return 0


def cmd_table(args) -> int:
    if args.dmax < 1:
        raise ValueError("--dmax must be >= 1")
    if (args.torus is None) == (args.sets is None):
        raise ValueError("give exactly one of --sets or --torus")
    if args.torus is not None:
        degrees = [int(x) for x in args.torus.split(",")]
        spec = degenerate_torus_for_degrees(degrees)
        field, grid = spec.field, spec.grid
    else:
        if args.q is None:
            raise ValueError("--sets needs --q")
        field = _resolve_field(args.q, args.ext)
        grid = Grid(field, parse_set_expressions(field, args.sets))
    cards = grid.normalized()[0].cards
    sys.stdout.write(_format_table(field.q, cards, _table_rows(cards, args.dmax), args.format))
    return 0


def cmd_matrix(args) -> int:
    field = _resolve_field(args.q, args.ext)
    code = CartesianCode(Grid(field, parse_set_expressions(field, args.sets)), args.d)
    monos = standard_monomials(code.cards, code.d)
    shape = (len(monos), code.length)
    blocks = monomial_blocks(code.grid, monos, digit_items(field.q))  # gathered straight into text
    with open(args.out, "wb") as fh:  # each block of rows is evaluated and written in turn
        fh.writelines(matrix_text(field.q, shape, blocks))
    with open(args.out + ".legend", "w") as fh:
        fh.write(legend_text(monos))
    print(json.dumps({"out": args.out, "rows": shape[0], "cols": shape[1]}))
    return 0


def cmd_verify(args) -> int:
    if (args.d is None) == (not args.dall):
        raise ValueError("give exactly one of --d or --dall")
    field = _resolve_field(args.q, args.ext)
    grid = Grid(field, parse_set_expressions(field, args.sets))
    budget = OracleBudget(max_words=args.max_words)
    if args.dall:
        degrees = range(0, regularity(grid.normalized()[0].cards) + 1)
    else:
        degrees = [args.d]
    report = verify_degrees(grid, degrees, budget)
    print(json.dumps(report.to_dict()))
    return 0 if report.ok else 1


def cmd_construct(args) -> int:
    degrees = [int(x) for x in args.degrees.split(",")]
    spec = degenerate_torus_for_degrees(degrees, allow_prime_powers=args.allow_prime_powers)
    cards = spec.grid.normalized()[0].cards
    reg = regularity(cards)
    report = {
        "q": spec.field.q,
        "p": spec.field.p,
        "e": spec.field.e,
        "degrees": list(spec.degrees),
        "v": list(spec.v),
        "subgroups": [list(s) for s in spec.grid.sets],
        "regularity": reg,
        "rows": _table_rows(cards, reg),
    }
    print(json.dumps(report))
    return 0


@functools.cache  # built on the first main() call, then reused
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cartcodes",
        description="Evaluation codes on cartesian grids: parameters, tables, matrices, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_field_args(p, required=True):
        p.add_argument("--q", type=int, required=required, help="field size (a prime power)")
        p.add_argument("--ext", default="auto",
                       help="extension degree check, or 'auto' to factor q (default)")

    p = sub.add_parser("params", help="exact parameters of one code")
    add_field_args(p)
    p.add_argument("--sets", required=True, help="per-coordinate set expressions")
    p.add_argument("--d", type=int, required=True)

    t = sub.add_parser("table", help="parameter table for d = 1..dmax")
    add_field_args(t, required=False)
    t.add_argument("--sets")
    t.add_argument("--torus", help="degenerate-torus degrees d1,d2,...")
    t.add_argument("--dmax", type=int, required=True)
    t.add_argument("--format", choices=("csv", "json", "md"), default="md")

    m = sub.add_parser("matrix", help="write generator matrix and monomial legend")
    add_field_args(m)
    m.add_argument("--sets", required=True)
    m.add_argument("--d", type=int, required=True)
    m.add_argument("--out", required=True, help="matrix file path (legend at PATH.legend)")

    v = sub.add_parser("verify", help="brute-force oracles vs formulas")
    add_field_args(v)
    v.add_argument("--sets", required=True)
    v.add_argument("--d", type=int)
    v.add_argument("--dall", action="store_true", help="verify every d up to the regularity")
    v.add_argument("--max-words", type=int, default=OracleBudget.max_words)

    c = sub.add_parser("construct", help="degenerate torus with prescribed set sizes")
    c.add_argument("--degrees", required=True, help="comma-separated sizes, each >= 2")
    c.add_argument("--allow-prime-powers", action="store_true")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a rebound cmd_* is used by the cached parser
        return globals()[f"cmd_{args.command}"](args)
    except (CartesianCodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
