"""Command-line surface: argparse subcommands over the library.

Exit codes: 0 success, 2 invalid input (a p that is not prime included), 3
precision insufficiency, 64 usage errors (a missing required flag
included).  Output is byte-deterministic for fixed inputs; --format selects
text (default), json, or dot where applicable.  The precision N of witt,
cartier and dieudonne is --N, else the environment variable
ISOLAB_PRECISION, else 6; a presentation read from JSON takes its own "N",
else ISOLAB_PRECISION, else h + 2.
"""

import argparse
import json
import operator
import os
import re
import sys
from fractions import Fraction

from .cartier import artin_hasse, cartier_from_json
from .dieudonne import (
    DieudonnePresentation,
    DisplayNormalForm,
    a_number,
    dualize,
    gmn_module,
    np_of_display,
    np_sigma_trivial,
    serre_tate_torsion,
)
from .errors import InputError, IsolabError, PrecisionError
from .newton import (
    np_compare,
    np_diamond,
    np_dim,
    np_dual,
    np_from_json,
    np_from_pairs,
    np_is_symmetric,
    np_of_polynomial,
    np_sdim,
    p_rank,
    render_pairs,
)
from .poset import dot_export, longest_chain, poset_build, poset_to_json, specialization_witness
from .semimodule import sm_dual, sm_enumerate, sm_from_jumps, sm_normalize
from .weil import honda_tate, weil_from_real_trace, weil_verify
from .witt import WittContext, ghost_components

USAGE_EXIT = 64
# Largest precision N and polygon height served.  On a 2-vCPU Xeon,
# `witt add` over F_{31^3} takes 0.07 s at N = 128 and 0.12 s at 256, and
# `np dim --pairs "k*(1,0)+k*(0,1)"` 0.7 s at h = 2k = 1000 and 3.2 s at
# 2000.
MAX_PRECISION = 128
MAX_POLYGON_HEIGHT = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, "%s: error: %s\n" % (self.prog, message))


_PAIR_TERM = re.compile(r"^(?:(\d+)\*)?\((\d+),(\d+)\)$")


def parse_polygon(text):
    """Parse the mini-language "k*(m,n)+(m,n)+..." into a polygon."""
    body = text.replace(" ", "").replace("\t", "")
    if not body:
        raise InputError("empty polygon expression")
    pairs = []
    height = 0
    for term in body.split("+"):
        m = _PAIR_TERM.match(term)
        if not m:
            raise InputError(
                "bad polygon term %r (grammar: [k*](m,n) joined by '+')" % term
            )
        k = int(m.group(1)) if m.group(1) else 1
        if k < 1:
            raise InputError("multiplier must be >= 1 in %r" % term)
        pair = (int(m.group(2)), int(m.group(3)))
        height += k * max(sum(pair), 1)  # (0,0) is invalid, but counts 1 here
        if height > MAX_POLYGON_HEIGHT:
            raise InputError("polygon height exceeds the cap of %d" % MAX_POLYGON_HEIGHT)
        pairs.extend([pair] * k)
    return np_from_pairs(pairs)


def _payload(value):
    """Inline JSON, a path, or '-' for stdin."""
    if value == "-":
        return json.loads(sys.stdin.read())
    stripped = value.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    with open(value) as fh:
        return json.load(fh)


def _precision(n, default):
    """The working precision: n when given, else ISOLAB_PRECISION, else default."""
    if n is None:
        n = os.environ.get("ISOLAB_PRECISION") or default
    n = int(n)
    if n > MAX_PRECISION:
        raise InputError("precision N = %d exceeds the cap of %d" % (n, MAX_PRECISION))
    return n


def _polygon_arg(args):
    if args.pairs:
        return parse_polygon(args.pairs)
    if args.json:
        z = np_from_json(_payload(args.json))  # linear in the payload, unlike the work after it
        if z.h > MAX_POLYGON_HEIGHT:
            raise InputError("polygon height %d exceeds the cap of %d" % (z.h, MAX_POLYGON_HEIGHT))
        return z
    raise InputError("provide --pairs or --json")


def _ints(csv):
    try:
        return [int(tok) for tok in csv.replace(" ", "").split(",") if tok]
    except ValueError:
        raise InputError("expected a comma-separated integer list, got %r" % csv)


def _fractions(csv):
    return [Fraction(tok) for tok in csv.replace(" ", "").split(",") if tok]


def _emit(args, text_value, json_value):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _emit_polygon(args, z):
    _emit(args, render_pairs(z.pairs()), z.to_json())


def _emit_coordinates(args, w):
    coords = [list(c.coeffs) for c in w.coordinates()]
    _emit(args, ";".join(",".join(str(v) for v in c) for c in coords), {"coordinates": coords})


def _emit_slopes(args, vp, **extra):
    slopes = [str(s) for s in vp.slopes()]
    vertices = [[int(x), int(y)] for x, y in vp.vertices]
    _emit(args, " ".join(slopes), {"slopes": slopes, "vertices": vertices, **extra})


# ---------------------------------------------------------------------------
# handlers, one per action; each prints its result


def _np_compare(args):
    res = np_compare(parse_polygon(args.a), parse_polygon(args.b))
    _emit(args, res.value, {"comparison": res.value})


def _np_dim(args):
    z = _polygon_arg(args)
    val = np_dim(z)
    _emit(args, str(val), {"dim": val, "diamond": sorted(np_diamond(z))})


def _np_sdim(args):
    val = np_sdim(_polygon_arg(args))
    _emit(args, str(val), {"sdim": val})


def _np_p_rank(args):
    val = p_rank(_polygon_arg(args))
    _emit(args, str(val), {"p_rank": val})


def _np_symmetric(args):
    val = np_is_symmetric(_polygon_arg(args))
    _emit(args, "true" if val else "false", {"symmetric": val})


def _np_poly(args):
    vp = np_of_polynomial(_fractions(args.coeffs), args.p)
    _emit_slopes(args, vp, infinite_multiplicity=vp.infinite_multiplicity)


def _weil_number(args):
    if args.json:
        obj = _payload(args.json)
        return weil_verify(obj["minpoly"], int(obj["p"]), int(obj["n"]))
    return weil_verify(_ints(args.minpoly), args.p, args.n)


def _weil_verify(args):
    _emit(args, "valid", {"valid": True, **_weil_number(args).to_json()})


def _weil_classify(args):
    ht = honda_tate(_weil_number(args))
    _emit(
        args,
        "case=%s albert=%s g=%d d=%d slopes=%s"
        % (ht.case, ht.albert, ht.g, ht.d, ",".join(str(s) for s in ht.slopes)),
        ht.to_json(),
    )


def _weil_trace(args):
    w = weil_from_real_trace(args.beta, args.p, args.n)
    _emit(args, ",".join(str(c) for c in w.minpoly), w.to_json())


def _witt_ghost(args):
    ghosts = [str(g) for g in ghost_components(_ints(args.coords), args.p)]
    _emit(args, ",".join(ghosts), {"ghost": ghosts})


def _witt_vector(ctx, csv):
    return ctx.from_coordinates([ctx.field(c) for c in (_ints(csv) if csv else [])])


def _witt_operand(args):
    """The context of a witt action and its --a operand."""
    ctx = WittContext(args.p, args.m, args.N)
    return ctx, _witt_vector(ctx, args.a)


def _witt_binary(op):
    def handler(args):
        ctx, x = _witt_operand(args)
        if not args.b:
            raise InputError("--b required")
        _emit_coordinates(args, op(x, _witt_vector(ctx, args.b)))

    return handler


def _witt_teichmuller(args):
    ctx, _ = _witt_operand(args)
    residue = _ints(args.a)
    if not residue:
        raise InputError("--a must give the residue to lift")
    _emit_coordinates(args, ctx.teichmuller(ctx.field(residue[0])))


def _witt_valuation(args):
    v = _witt_operand(args)[1].valuation()
    _emit(args, ">=%d" % args.N if v is None else str(v), {"valuation": v})


def _cartier_mul(args):
    ctx, x = cartier_from_json(_payload(args.x))
    _, y = cartier_from_json(_payload(args.y), context=ctx)
    z = x * y
    _emit(args, repr(z), {**z.to_json(), "truncated": z.truncated})


def _cartier_act(args):
    ctx, x = cartier_from_json(_payload(args.x))
    _emit_coordinates(args, x.act(_witt_vector(WittContext(ctx.p, ctx.m, args.N), args.w)))


def _cartier_artin_hasse(args):
    coeffs = [str(c) for c in artin_hasse(args.p, args.degree)]
    _emit(args, ",".join(coeffs), {"coefficients": coeffs})


def _dieudonne_gmn(args):
    need = args.gm + args.gn + 2
    if need > MAX_PRECISION:
        raise InputError("m + n + 2 = %d exceeds the precision cap of %d" % (need, MAX_PRECISION))
    ctx = WittContext(args.p, args.m, max(args.N, need))
    pres = gmn_module(args.gm, args.gn, ctx)
    a = a_number(pres)
    _emit(
        args,
        "ht=%d dim=%d a=%d" % (pres.ht, pres.dim, a),
        {"ht": pres.ht, "dim": pres.dim, "a_number": a, **pres.to_json()},
    )


def _entry_value(ring, raw):
    if isinstance(raw, (int, str)):
        return ring.from_int(int(raw))
    if isinstance(raw, list):
        return ring.from_coeffs([int(v) for v in raw])
    raise InputError("bad matrix entry %r" % (raw,))


def _presentation(args):
    obj = _payload(args.json)
    p, m = int(obj["p"]), int(obj.get("m", 1))
    ctx = WittContext(p, m, _precision(obj.get("N"), int(obj["h"]) + 2))
    F = [[_entry_value(ctx.ring, e) for e in row] for row in obj["F"]]
    V = None
    if obj.get("V"):
        V = [[_entry_value(ctx.ring, e) for e in row] for row in obj["V"]]
    return DieudonnePresentation(ctx, F, V)


def _dieudonne_a_number(args):
    val = a_number(_presentation(args))
    _emit(args, str(val), {"a_number": val})


def _dieudonne_dual(args):
    d = dualize(_presentation(args))
    _emit(args, "ht=%d dim=%s" % (d.ht, d.dim), d.to_json())


def _dieudonne_np_display(args):
    obj = _payload(args.json)
    h, s = int(obj["h"]), int(obj["s"])
    ctx = WittContext(int(obj.get("p", args.p)), int(obj.get("m", 1)), _precision(obj.get("N"), h + 2))
    entries = {}
    for cell in obj["a"]:
        raw = cell["c"]
        val = ctx.ring.one() if raw == "unit" else _entry_value(ctx.ring, raw)
        entries[(int(cell["i"]), int(cell["j"]))] = val
    _emit_polygon(args, np_of_display(DisplayNormalForm(ctx, h, s, entries)))


def _dieudonne_serre_tate(args):
    prof = serre_tate_torsion(tuple(_ints(args.exponents)), args.p)
    _emit(args, ",".join(str(o) for o in prof.orders) or "trivial", prof.to_json())


def _semimod_shape(args):
    if args.sm_m is None or args.sm_n is None:
        raise InputError("provide --m and --n")
    return args.sm_m, args.sm_n


def _semimod_input(args):
    """Raw members + tail: either --json {"m","n","heads"[,"tail"]} with a
    normalized head set (the emitted form), or --heads/--tail."""
    if args.json:
        obj = _payload(args.json)
        m, n = int(obj["m"]), int(obj["n"])
        heads = set(int(h) for h in obj.get("heads", []))
        r = (m - 1) * (n - 1) // 2
        tail = int(obj.get("tail", 2 * r))
        return heads, tail, m, n
    if args.sm_m is None or args.sm_n is None or args.tail is None:
        raise InputError("provide --m, --n and --tail (or --json)")
    heads = set(_ints(args.heads)) if args.heads else set()
    return heads, args.tail, args.sm_m, args.sm_n


def _emit_semimodule(args, s):
    _emit(args, s.text(), s.to_json())


def _semimod_enumerate(args):
    mods = sm_enumerate(*_semimod_shape(args))
    _emit(
        args,
        "\n".join(s.text() for s in mods),
        {"count": len(mods), "semimodules": [s.to_json() for s in mods]},
    )


def _semimod_from_jumps(args):
    m, n = _semimod_shape(args)
    _emit_semimodule(args, sm_from_jumps(_ints(args.jumps), m, n))


def _poset(args):
    return poset_build(args.h, args.d, symmetric=args.symmetric)


def _poset_build(args):
    poset = _poset(args)
    if args.format == "dot":
        print(dot_export(poset), end="")
        return
    _emit(
        args,
        "\n".join("%s rank=%d" % (render_pairs(z.pairs()), poset.ranks[i]) for i, z in enumerate(poset.elements)),
        poset_to_json(poset),
    )


def _poset_endpoints(args):
    """The poset and the --from/--to polygons; "iso" and "ord" name its
    bottom and top."""
    poset = _poset(args)
    named = {"iso": poset.bottom, "ord": poset.top}
    frm, to = (named[t]() if t in named else parse_polygon(t) for t in (args.frm, args.to))
    return poset, frm, to


def _emit_chain(args, chain):
    names = [render_pairs(z.pairs()) for z in chain]
    _emit(
        args,
        "length %d\n%s" % (len(chain) - 1, "\n".join(names)),
        {"length": len(chain) - 1, "chain": names},
    )


def _poset_chain(args):
    _emit_chain(args, longest_chain(*_poset_endpoints(args)))


def _poset_witness(args):
    _, frm, to = _poset_endpoints(args)
    _emit_chain(args, specialization_witness(frm, to))


# The one table of actions, read by the parsers' choices, the missing-flag
# check and dispatch: command -> action -> (handler, the options it cannot
# run without, by attribute name); a command without actions has the single
# key None.  Actions that accept alternatives (--pairs or --json, say) check
# their own input.
_ACTIONS = {
    "np": {
        "construct": (lambda args: _emit_polygon(args, _polygon_arg(args)), ()),
        "compare": (_np_compare, ("a", "b")),
        "dim": (_np_dim, ()),
        "sdim": (_np_sdim, ()),
        "dual": (lambda args: _emit_polygon(args, np_dual(_polygon_arg(args))), ()),
        "p-rank": (_np_p_rank, ()),
        "symmetric": (_np_symmetric, ()),
    },
    "np-poly": {None: (_np_poly, ())},
    "weil": {
        "verify": (_weil_verify, ("minpoly", "p", "n")),
        "classify": (_weil_classify, ("minpoly", "p", "n")),
    },
    "weil-trace": {None: (_weil_trace, ())},
    "witt": {
        "ghost": (_witt_ghost, ("coords",)),
        "add": (_witt_binary(operator.add), ()),
        "mul": (_witt_binary(operator.mul), ()),
        "teichmuller": (_witt_teichmuller, ("a",)),
        "frobenius": (lambda args: _emit_coordinates(args, _witt_operand(args)[1].frobenius()), ()),
        "valuation": (_witt_valuation, ()),
    },
    "cartier": {
        "mul": (_cartier_mul, ("x", "y")),
        "act": (_cartier_act, ("x", "w")),
        "artin-hasse": (_cartier_artin_hasse, ()),
    },
    "dieudonne": {
        "gmn": (_dieudonne_gmn, ("gm", "gn")),
        "a-number": (_dieudonne_a_number, ("json",)),
        "dual": (_dieudonne_dual, ("json",)),
        "np-display": (_dieudonne_np_display, ("json",)),
        "np-sigma-trivial": (lambda args: _emit_slopes(args, np_sigma_trivial(_presentation(args))), ("json",)),
        "serre-tate-torsion": (_dieudonne_serre_tate, ("exponents",)),
    },
    "semimod": {
        "normalize": (lambda args: _emit_semimodule(args, sm_normalize(*_semimod_input(args))), ()),
        "dual": (lambda args: _emit_semimodule(args, sm_dual(sm_normalize(*_semimod_input(args)))), ()),
        "enumerate": (_semimod_enumerate, ()),
        "from-jumps": (_semimod_from_jumps, ("jumps",)),
    },
    "poset": {
        "build": (_poset_build, ()),
        "chain": (_poset_chain, ("frm", "to")),
        "witness": (_poset_witness, ("frm", "to")),
        "dot": (lambda args: print(dot_export(_poset(args)), end=""), ()),
    },
}
_FLAG_NAMES = {"frm": "--from", "gm": "--m", "gn": "--n"}


def build_parser():
    root = _Parser(prog="isocrystal-lab", description=__doc__)
    root.add_argument("--format", choices=("text", "json", "dot"), default="text")
    sub = root.add_subparsers(dest="command", required=True)

    def command(name, help):
        parser = sub.add_parser(name, help=help)
        if None not in _ACTIONS[name]:
            parser.add_argument("action", choices=tuple(_ACTIONS[name]))
        return parser

    np_p = command("np", "Newton polygon operations")
    np_p.add_argument("--pairs", help='polygon like "2*(1,0)+(2,1)+(1,5)"')
    np_p.add_argument("--json", help="polygon JSON (inline, path, or -)")
    np_p.add_argument("--a", help="first polygon (compare)")
    np_p.add_argument("--b", help="second polygon (compare)")

    poly_p = command("np-poly", "valuation polygon of a monic polynomial")
    poly_p.add_argument("--coeffs", required=True, help="leading first, e.g. 1,0,-5,-125")
    poly_p.add_argument("--p", type=int, required=True)

    weil_p = command("weil", "q-Weil numbers")
    weil_p.add_argument("--minpoly", help="integer coefficients, leading first")
    weil_p.add_argument("--p", type=int)
    weil_p.add_argument("--n", type=int)
    weil_p.add_argument("--json", help='{"minpoly": [...], "p":, "n":}')

    trace_p = command("weil-trace", "quadratic Weil number from a real trace")
    trace_p.add_argument("--beta", type=int, required=True)
    trace_p.add_argument("--p", type=int, required=True)
    trace_p.add_argument("--n", type=int, required=True)

    witt_p = command("witt", "truncated Witt vectors")
    witt_p.add_argument("--p", type=int, required=True)
    witt_p.add_argument("--m", type=int, default=1)
    witt_p.add_argument("--N", type=int)
    witt_p.add_argument("--coords", help="integer coordinates (ghost)")
    witt_p.add_argument("--a", help="first operand coordinates")
    witt_p.add_argument("--b", help="second operand coordinates")

    car_p = command("cartier", "local Cartier ring")
    car_p.add_argument("--p", type=int, default=2)
    car_p.add_argument("--N", type=int)
    car_p.add_argument("--degree", type=int, default=20)
    car_p.add_argument("--x", help="Cartier element JSON")
    car_p.add_argument("--y", help="Cartier element JSON (mul)")
    car_p.add_argument("--w", help="Witt coordinates (act)")

    dieu_p = command("dieudonne", "module presentations and slope polygons")
    dieu_p.add_argument("--m", dest="gm", type=int, help="slope numerator for gmn")
    dieu_p.add_argument("--n", dest="gn", type=int, help="slope conumerator for gmn")
    dieu_p.add_argument("--p", type=int, default=2)
    dieu_p.add_argument("--field-degree", dest="m", type=int, default=1)
    dieu_p.add_argument("--N", type=int)
    dieu_p.add_argument("--exponents", help="sorted exponents for serre-tate-torsion")
    dieu_p.add_argument("--json", help="presentation / normal form JSON")

    sm_p = command("semimod", "(m,n)-semimodules")
    sm_p.add_argument("--m", dest="sm_m", type=int)
    sm_p.add_argument("--n", dest="sm_n", type=int)
    sm_p.add_argument("--heads", help="finite members, comma separated")
    sm_p.add_argument("--tail", type=int, help="start of the full tail")
    sm_p.add_argument("--jumps", help="jump sequence, last entry = tail start")
    sm_p.add_argument("--json", help='{"m":, "n":, "heads": [...]} (inline, path, or -)')

    pos_p = command("poset", "Newton polygon posets")
    pos_p.add_argument("--h", type=int, required=True)
    pos_p.add_argument("--d", type=int, required=True)
    pos_p.add_argument("--symmetric", action="store_true")
    pos_p.add_argument("--from", dest="frm", help='"iso", "ord" or a pair expression')
    pos_p.add_argument("--to", dest="to", help='"iso", "ord" or a pair expression')

    return root


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        action = getattr(args, "action", None)
        handler, needs = _ACTIONS[args.command][action]
        if args.command == "weil" and args.json:
            needs = ()  # the payload carries minpoly, p and n
        missing = [_FLAG_NAMES.get(name, "--" + name) for name in needs if getattr(args, name) is None]
        if missing:
            parser.error("%s %s requires %s" % (args.command, action, ", ".join(missing)))
    except SystemExit as ex:
        return ex.code if ex.code is not None else USAGE_EXIT
    try:
        if "N" in vars(args):
            args.N = _precision(args.N, 6)
            if args.N < 2:
                raise InputError("precision N must be >= 2")
        handler(args)
        return 0
    except PrecisionError as ex:
        print("precision error: %s" % ex, file=sys.stderr)
        return 3
    except (IsolabError, ValueError, KeyError, OSError, json.JSONDecodeError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
