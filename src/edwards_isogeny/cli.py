"""Command-line interface.

Every command prints one JSON document (search-primes prints JSON
lines first).  A command that does field arithmetic carries the
field-operation counters it consumed; search-primes and verify-table1,
which do none, carry no counters; opcount-bench counts one step of the
x-line core that chains run.  Exit codes: 0 success, 1 domain error (an
`EdwardsError`), 2 usage error.

Integers are accepted in decimal (negative allowed, reduced mod p) or
0x-prefixed hex.  Small-field outputs use the signed representative of
least magnitude for readability; fields wider than 64 bits switch to
bare hex strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial

from .curve import AffinePoint, EdwardsCurve, j_fraction
from .errors import EdwardsError
from .field import FieldElement, PrimeField
from .isogeny import IsogenyChain, OddIsogeny, OddKernel, _affine_views
from .sidh import run_exchange
from .supersingular import (COMPLETE_4, QUADRATIC_8, SearchSpec,
                            search_sidh_primes, sidh_key_bits,
                            verify_reference_table)
from .xonly import odd_image

_SIGNED_LIMIT_BITS = 64


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text}")
    return int(text)


def _parse_degrees(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return _parse_int(parts[0]), _parse_int(parts[1])


def _fmt(v: FieldElement):
    if v.field.p.bit_length() <= _SIGNED_LIMIT_BITS:
        return v.signed()
    return v.to_str()


def _fmt_point(P: AffinePoint):
    return [_fmt(P.x), _fmt(P.y)]


def _curve(args) -> EdwardsCurve:
    field = PrimeField(args.p)
    return EdwardsCurve(field, field(args.a), field(args.d))


def _point(curve: EdwardsCurve, xy: tuple[int, int]) -> AffinePoint:
    return curve.check_point(AffinePoint(curve.field(xy[0]), curve.field(xy[1])))


def _finish(payload: dict, field) -> dict:
    """Attach the counters accumulated on the command's own field."""
    return {**payload, "counters": field.counter.as_dict()}


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _cmd_classify(args):
    curve = _curve(args)
    return _finish({"class": curve.class_tag}, curve.field)


def _cmd_j(args):
    curve = _curve(args)
    return _finish({"j": _fmt(curve.j_invariant())}, curve.field)


def _cmd_points(args):
    curve = _curve(args)
    pts = curve.points()
    return _finish({"order": curve.order(),
                    "affine_count": len(pts),
                    "singular_count": curve.singular_count(),
                    "points": [_fmt_point(P) for P in pts]}, curve.field)


def _cmd_order(args):
    curve = _curve(args)
    n = curve.point_order(_point(curve, args.point))
    return _finish({"order": n}, curve.field)


def _cmd_isogeny(args):
    curve = _curve(args)
    gen = _point(curve, args.gen)
    phi = OddIsogeny(OddKernel.from_generator(gen, args.degree, curve))
    E, k = phi.codomain, phi.kernel
    points = [] if args.point is None else [_point(curve, args.point)]
    images, _ = _affine_views([phi], points)
    image = {"image": _fmt_point(images[0])} if images else {}
    return _finish({"l": phi.degree,
                    "kernel": [_fmt_point(P) for P in k.points],
                    "A": _fmt(k.A),
                    "d_prime": _fmt(E.d),
                    "codomain_class": E.class_tag, **image}, curve.field)


def _cmd_chain(args):
    curve = _curve(args)
    gen = _point(curve, args.gen)
    points = [] if args.point is None else [_point(curve, args.point)]
    chain = IsogenyChain(curve, gen, args.degrees)
    D, C = chain.codomain.pair
    images, (j,) = _affine_views(chain.steps, points, j_fraction(C, D))
    out = {"degrees": args.degrees,
           "steps": [{"degree": s.degree,
                      "kernel": [{"x": _fmt(x)} for x in s.kernel.xs],
                      "d_prime": _fmt(s.codomain_d)} for s in chain.steps],
           "d_prime": _fmt(chain.codomain.d),
           "j": _fmt(j)}
    if images:
        out["image"] = _fmt_point(images[0])
    return _finish(out, curve.field)


def _cmd_search_primes(args):
    variant = COMPLETE_4 if args.variant == "complete" else QUADRATIC_8
    spec = SearchSpec(target_bits=args.bits, variant=variant,
                      window=args.window, bits_tolerance=args.tolerance)
    results = search_sidh_primes(spec)
    if args.limit is not None:
        results = results[: args.limit]
    for r in results:
        print(json.dumps(r.to_json()))
    return {"count": len(results), "target_bits": args.bits,
            "target_key_bits": sidh_key_bits(args.bits)}


def _cmd_verify_table(args):
    rows = verify_reference_table()
    return {"rows": rows,
            "all_bits_match": all(r["bits_match"] for r in rows),
            "all_prime": all(r["is_prime"] for r in rows),
            "all_hex_match": all(r["hex_match"] for r in rows)}


def _cmd_sidh_demo(args):
    return run_exchange(args.m, args.n, seed=args.seed,
                        secret_a=args.secret_a, secret_b=args.secret_b)


def _cmd_opcount_bench(args):
    # One chain step of the raw x-line core, built as a chain builds it,
    # on the worked kernels of acceptance criteria 1 and 2: x = -10 of
    # (-10, 9) over F_23 and x(Q), x(2Q) = 6, -8 of Q = (6, 4) over F_19,
    # both on d = -1, each pushing the x = 2 of a worked mapping, (2, 2)
    # -> (7, 7) and (2, 8) -> (0, 1).  Only the degree-5 codomain branches
    # on a value, D or C being one: the counts hold on any (d : 1), d != 1.
    field = PrimeField(23 if args.op == "proj3" else 19)
    K = ([(field(-10), field.one)] if args.op == "proj3"
         else [(field(6), field.one), (field(-8), field.one)])
    kernel = OddKernel(EdwardsCurve(field, 1, -1), 2 * len(K) + 1, K)
    phases = {"codomain": partial(OddIsogeny, kernel),
              "eval": partial(odd_image, (field(2), field.one), K)}
    counter, breakdown = field.counter, {}
    for name, run in phases.items():
        since = counter.as_dict()
        run()
        breakdown[name] = {k: n - since[k]
                           for k, n in counter.as_dict().items()}
    return _finish({"op": args.op, **counter.as_dict(),
                    "breakdown": breakdown}, field)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="edwards-isogeny",
        description="Odd-degree isogenies of supersingular Edwards curves")
    sub = top.add_subparsers(dest="command", required=True)

    def curve_flags(p):
        p.add_argument("--p", type=_parse_int, required=True, help="field modulus")
        p.add_argument("--a", type=_parse_int, default=1)
        p.add_argument("--d", type=_parse_int, required=True)

    c = sub.add_parser("classify", help="curve class from chi(a), chi(d)")
    curve_flags(c)
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("j", help="j-invariant of E_{a,d}")
    curve_flags(c)
    c.set_defaults(func=_cmd_j)

    c = sub.add_parser("points", help="desk-scale point enumeration and order")
    curve_flags(c)
    c.set_defaults(func=_cmd_points)

    c = sub.add_parser("order", help="order of a point")
    curve_flags(c)
    c.add_argument("--point", type=_parse_pair, required=True)
    c.set_defaults(func=_cmd_order)

    c = sub.add_parser("isogeny", help="odd-degree isogeny from a kernel generator")
    curve_flags(c)
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--gen", type=_parse_pair, required=True)
    c.add_argument("--point", type=_parse_pair, default=None)
    c.set_defaults(func=_cmd_isogeny)

    c = sub.add_parser("chain", help="composition of 3-/5-isogenies")
    curve_flags(c)
    c.add_argument("--gen", type=_parse_pair, required=True)
    c.add_argument("--degrees", type=_parse_degrees, required=True,
                   help="e.g. 3,3,5")
    c.add_argument("--point", type=_parse_pair, default=None)
    c.set_defaults(func=_cmd_chain)

    c = sub.add_parser("search-primes", help="search p = cof*3^m*5^n - 1")
    c.add_argument("--bits", type=int, required=True)
    c.add_argument("--window", type=int, default=8)
    c.add_argument("--tolerance", type=int, default=16)
    c.add_argument("--variant", choices=("complete", "quadratic"), default="complete")
    c.add_argument("--limit", type=_parse_count, default=None)
    c.set_defaults(func=_cmd_search_primes)

    c = sub.add_parser("verify-table1", help="recompute the built-in reference table")
    c.set_defaults(func=_cmd_verify_table)

    c = sub.add_parser("sidh-demo", help="desk-scale SIDH key exchange")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--secret-a", type=int, default=None)
    c.add_argument("--secret-b", type=int, default=None)
    c.set_defaults(func=_cmd_sidh_demo)

    c = sub.add_parser("opcount-bench", help="exact M/S counts of the x-only ops")
    c.add_argument("--op", choices=("proj3", "proj5"), required=True)
    c.set_defaults(func=_cmd_opcount_bench)

    # Let values like "-10,9" pass as arguments, not option strings.
    pair_matcher = re.compile(r"^-\d+")
    for parser in [top, *sub.choices.values()]:
        if hasattr(parser, "_negative_number_matcher"):
            parser._negative_number_matcher = pair_matcher

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except EdwardsError as exc:
        print(json.dumps({"status": "error",
                          "code": type(exc).__name__,
                          "message": str(exc)}))
        return 1
    print(json.dumps({"status": "ok", **payload}))
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
