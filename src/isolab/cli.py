"""Command-line surface: argparse subcommands over the library.

Exit codes: 0 success, 2 invalid input, 3 precision insufficiency,
64 usage errors.  Output is byte-deterministic for fixed inputs; --format
selects text (default), json, or dot where applicable.  The environment
variable ISOLAB_PRECISION overrides the default working precision N.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    """Shared run options; precision defaults honour ISOLAB_PRECISION."""

    p: int = 2
    m: int = 1
    N: int = 6
    vcap: int = 8

    @staticmethod
    def from_args(args):
        env_n = os.environ.get("ISOLAB_PRECISION")
        n = getattr(args, "N", None)
        if n is None:
            n = int(env_n) if env_n else 6
        cfg = RunConfig(
            p=getattr(args, "p", 2) or 2,
            m=getattr(args, "m", 1) or 1,
            N=n,
            vcap=getattr(args, "vcap", 8) or 8,
        )
        if cfg.N < 2:
            raise InputError("precision N must be >= 2")
        if cfg.vcap < 1:
            raise InputError("V-cap must be >= 1")
        return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, "%s: error: %s\n" % (self.prog, message))


# Options an action cannot run without, by attribute name; actions that
# accept alternatives (--pairs or --json, say) check their own input.
_NEEDS = {
    ("np", "compare"): ("a", "b"),
    ("weil", "verify"): ("minpoly", "p", "n"),
    ("weil", "classify"): ("minpoly", "p", "n"),
    ("witt", "ghost"): ("coords",),
    ("witt", "teichmuller"): ("a",),
    ("cartier", "mul"): ("x", "y"),
    ("cartier", "act"): ("x", "w"),
    ("dieudonne", "gmn"): ("gm", "gn"),
    ("dieudonne", "a-number"): ("json",),
    ("dieudonne", "dual"): ("json",),
    ("dieudonne", "np-display"): ("json",),
    ("dieudonne", "np-sigma-trivial"): ("json",),
    ("dieudonne", "serre-tate-torsion"): ("exponents",),
    ("semimod", "from-jumps"): ("jumps",),
    ("poset", "chain"): ("frm", "to"),
    ("poset", "witness"): ("frm", "to"),
}
_FLAGS = {"frm": "--from", "gm": "--m", "gn": "--n"}


def _missing_flags(args):
    """The flags the chosen action needs but was not given."""
    if args.command == "weil" and args.json:
        return []
    needs = _NEEDS.get((args.command, getattr(args, "action", None)), ())
    return [_FLAGS.get(name, "--" + name) for name in needs if getattr(args, name) is None]


_PAIR_TERM = re.compile(r"^(?:(\d+)\*)?\((\d+),(\d+)\)$")


def parse_polygon(text):
    """Parse the mini-language "k*(m,n)+(m,n)+..." into a polygon."""
    body = text.replace(" ", "").replace("\t", "")
    if not body:
        raise InputError("empty polygon expression")
    pairs = []
    for term in body.split("+"):
        m = _PAIR_TERM.match(term)
        if not m:
            raise InputError(
                "bad polygon term %r (grammar: [k*](m,n) joined by '+')" % term
            )
        k = int(m.group(1)) if m.group(1) else 1
        if k < 1:
            raise InputError("multiplier must be >= 1 in %r" % term)
        pairs.extend([(int(m.group(2)), int(m.group(3)))] * k)
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


def _polygon_arg(args):
    if getattr(args, "pairs", None):
        return parse_polygon(args.pairs)
    if getattr(args, "json", None):
        return np_from_json(_payload(args.json))
    raise InputError("provide --pairs or --json")


def _ints(csv):
    try:
        return [int(tok) for tok in csv.replace(" ", "").split(",") if tok]
    except ValueError:
        raise InputError("expected a comma-separated integer list, got %r" % csv)


def _fractions(csv):
    return [Fraction(tok) for tok in csv.replace(" ", "").split(",") if tok]


def _emit(args, text_value, json_value):
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


# ---------------------------------------------------------------------------
# handlers


def _cmd_np(args):
    if args.action == "construct":
        z = _polygon_arg(args)
        _emit(args, render_pairs(z.pairs()), z.to_json())
        return 0
    if args.action == "compare":
        a = parse_polygon(args.a)
        b = parse_polygon(args.b)
        res = np_compare(a, b)
        _emit(args, res.value, {"comparison": res.value})
        return 0
    z = _polygon_arg(args)
    if args.action == "dim":
        val = np_dim(z)
        _emit(args, str(val), {"dim": val, "diamond": sorted(np_diamond(z))})
    elif args.action == "sdim":
        val = np_sdim(z)
        _emit(args, str(val), {"sdim": val})
    elif args.action == "dual":
        d = np_dual(z)
        _emit(args, render_pairs(d.pairs()), d.to_json())
    elif args.action == "p-rank":
        val = p_rank(z)
        _emit(args, str(val), {"p_rank": val})
    elif args.action == "symmetric":
        val = np_is_symmetric(z)
        _emit(args, "true" if val else "false", {"symmetric": val})
    else:
        raise InputError("unknown np action %r" % args.action)
    return 0


def _cmd_np_poly(args):
    coeffs = _fractions(args.coeffs)
    vp = np_of_polynomial(coeffs, args.p)
    slopes = [str(s) for s in vp.slopes()]
    _emit(
        args,
        " ".join(slopes),
        {
            "vertices": [[int(x), int(y)] for x, y in vp.vertices],
            "slopes": slopes,
            "infinite_multiplicity": vp.infinite_multiplicity,
        },
    )
    return 0


def _cmd_weil(args):
    if getattr(args, "json", None):
        obj = _payload(args.json)
        minpoly, p, n = obj["minpoly"], int(obj["p"]), int(obj["n"])
    else:
        minpoly, p, n = _ints(args.minpoly), args.p, args.n
    w = weil_verify(minpoly, p, n)
    if args.action == "verify":
        _emit(args, "valid", {"valid": True, **w.to_json()})
        return 0
    ht = honda_tate(w)
    _emit(
        args,
        "case=%s albert=%s g=%d d=%d slopes=%s"
        % (ht.case, ht.albert, ht.g, ht.d, ",".join(str(s) for s in ht.slopes)),
        ht.to_json(),
    )
    return 0


def _cmd_weil_trace(args):
    w = weil_from_real_trace(args.beta, args.p, args.n)
    _emit(args, ",".join(str(c) for c in w.minpoly), w.to_json())
    return 0


def _cmd_witt(args):
    cfg = RunConfig.from_args(args)
    if args.action == "ghost":
        ghosts = ghost_components(_ints(args.coords), args.p)
        _emit(args, ",".join(str(g) for g in ghosts), {"ghost": [str(g) for g in ghosts]})
        return 0
    ctx = WittContext(cfg.p, cfg.m, cfg.N)
    coords_a = _ints(args.a) if args.a else []
    x = ctx.from_coordinates([ctx.field(c) for c in coords_a])
    if args.action in ("add", "mul"):
        if not args.b:
            raise InputError("--b required for add/mul")
        y = ctx.from_coordinates([ctx.field(c) for c in _ints(args.b)])
        z = x + y if args.action == "add" else x * y
    elif args.action == "teichmuller":
        z = ctx.teichmuller(ctx.field(_ints(args.a)[0]))
    elif args.action == "frobenius":
        z = x.frobenius()
    elif args.action == "valuation":
        v = x.valuation()
        _emit(args, ">=%d" % cfg.N if v is None else str(v), {"valuation": v})
        return 0
    else:
        raise InputError("unknown witt action %r" % args.action)
    coords = [list(c.coeffs) for c in z.coordinates()]
    _emit(args, ";".join(",".join(str(v) for v in c) for c in coords), {"coordinates": coords})
    return 0


def _cmd_cartier(args):
    cfg = RunConfig.from_args(args)
    if args.action == "artin-hasse":
        coeffs = artin_hasse(cfg.p, args.degree)
        strs = [str(c) for c in coeffs]
        _emit(args, ",".join(strs), {"coefficients": strs})
        return 0
    ctx, x = cartier_from_json(_payload(args.x))
    if args.action == "mul":
        _, y = cartier_from_json(_payload(args.y), context=ctx)
        z = x * y
        _emit(args, repr(z), {**z.to_json(), "truncated": z.truncated})
        return 0
    if args.action == "act":
        wctx = WittContext(ctx.p, ctx.m, cfg.N)
        w = wctx.from_coordinates([wctx.field(c) for c in _ints(args.w)])
        res = x.act(w)
        coords = [list(c.coeffs) for c in res.coordinates()]
        _emit(args, ";".join(",".join(str(v) for v in c) for c in coords), {"coordinates": coords})
        return 0
    raise InputError("unknown cartier action %r" % args.action)


def _entry_value(ring, raw):
    if isinstance(raw, int):
        return ring.from_int(raw)
    if isinstance(raw, str):
        return ring.from_int(int(raw))
    if isinstance(raw, list):
        return ring.from_coeffs([int(v) for v in raw])
    raise InputError("bad matrix entry %r" % (raw,))


def _presentation_from_json(obj):
    p, m = int(obj["p"]), int(obj.get("m", 1))
    n = int(obj.get("N") or os.environ.get("ISOLAB_PRECISION") or (int(obj["h"]) + 2))
    ctx = WittContext(p, m, n)
    ring = ctx.ring
    F = [[_entry_value(ring, e) for e in row] for row in obj["F"]]
    V = None
    if obj.get("V"):
        V = [[_entry_value(ring, e) for e in row] for row in obj["V"]]
    return ctx, DieudonnePresentation(ctx, F, V)


def _cmd_dieudonne(args):
    cfg = RunConfig.from_args(args)
    if args.action == "gmn":
        ctx = WittContext(cfg.p, cfg.m, max(cfg.N, args.gm + args.gn + 2))
        pres = gmn_module(args.gm, args.gn, ctx)
        _emit(
            args,
            "ht=%d dim=%d a=%d" % (pres.ht, pres.dim, a_number(pres)),
            {"ht": pres.ht, "dim": pres.dim, "a_number": a_number(pres), **pres.to_json()},
        )
        return 0
    if args.action == "serre-tate-torsion":
        prof = serre_tate_torsion(tuple(_ints(args.exponents)), args.p)
        _emit(args, ",".join(str(o) for o in prof.orders) or "trivial", prof.to_json())
        return 0
    if args.action == "np-display":
        obj = _payload(args.json)
        h, s = int(obj["h"]), int(obj["s"])
        p = int(obj.get("p", cfg.p))
        m = int(obj.get("m", 1))
        n = int(obj.get("N") or os.environ.get("ISOLAB_PRECISION") or (h + 2))
        ctx = WittContext(p, m, n)
        entries = {}
        for cell in obj["a"]:
            raw = cell["c"]
            if raw == "unit":
                val = ctx.ring.one()
            elif raw == "0":
                val = ctx.ring.zero()
            else:
                val = _entry_value(ctx.ring, raw)
            entries[(int(cell["i"]), int(cell["j"]))] = val
        dnf = DisplayNormalForm(ctx, h, s, entries)
        z = np_of_display(dnf)
        _emit(args, render_pairs(z.pairs()), z.to_json())
        return 0
    ctx, pres = _presentation_from_json(_payload(args.json))
    if args.action == "a-number":
        val = a_number(pres)
        _emit(args, str(val), {"a_number": val})
    elif args.action == "dual":
        d = dualize(pres)
        _emit(args, "ht=%d dim=%s" % (d.ht, d.dim), d.to_json())
    elif args.action == "np-sigma-trivial":
        vp = np_sigma_trivial(pres)
        slopes = [str(s) for s in vp.slopes()]
        _emit(args, " ".join(slopes), {"slopes": slopes, "vertices": [[int(a), int(b)] for a, b in vp.vertices]})
    else:
        raise InputError("unknown dieudonne action %r" % args.action)
    return 0


def _semimod_input(args):
    """Raw members + tail: either --json {"m","n","heads"[,"tail"]} with a
    normalized head set (the emitted form), or --heads/--tail."""
    if getattr(args, "json", None):
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


def _cmd_semimod(args):
    if args.action in ("enumerate", "from-jumps") and (args.sm_m is None or args.sm_n is None):
        raise InputError("provide --m and --n")
    if args.action == "enumerate":
        mods = sm_enumerate(args.sm_m, args.sm_n)
        _emit(
            args,
            "\n".join(s.text() for s in mods),
            {"count": len(mods), "semimodules": [s.to_json() for s in mods]},
        )
        return 0
    if args.action == "from-jumps":
        s = sm_from_jumps(_ints(args.jumps), args.sm_m, args.sm_n)
    elif args.action == "normalize":
        s = sm_normalize(*_semimod_input(args))
    elif args.action == "dual":
        s = sm_dual(sm_normalize(*_semimod_input(args)))
    else:
        raise InputError("unknown semimod action %r" % args.action)
    _emit(args, s.text(), s.to_json())
    return 0


def _named_polygon(token, poset):
    if token == "iso":
        return poset.bottom()
    if token == "ord":
        return poset.top()
    return parse_polygon(token)


def _cmd_poset(args):
    poset = poset_build(args.h, args.d, symmetric=args.symmetric)
    if args.action == "build":
        if getattr(args, "format", "text") == "dot":
            print(dot_export(poset), end="")
        else:
            _emit(
                args,
                "\n".join(
                    "%s rank=%d" % (render_pairs(z.pairs()), poset.ranks[i])
                    for i, z in enumerate(poset.elements)
                ),
                poset_to_json(poset),
            )
        return 0
    if args.action == "dot":
        print(dot_export(poset), end="")
        return 0
    frm = _named_polygon(args.frm, poset)
    to = _named_polygon(args.to, poset)
    if args.action == "chain":
        chain = longest_chain(poset, frm, to)
    elif args.action == "witness":
        chain = specialization_witness(frm, to)
    else:
        raise InputError("unknown poset action %r" % args.action)
    names = [render_pairs(z.pairs()) for z in chain]
    _emit(
        args,
        "length %d\n%s" % (len(chain) - 1, "\n".join(names)),
        {"length": len(chain) - 1, "chain": names},
    )
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    root = _Parser(prog="isocrystal-lab", description=__doc__)
    root.add_argument("--format", choices=("text", "json", "dot"), default="text")
    sub = root.add_subparsers(dest="command", required=True)

    np_p = sub.add_parser("np", help="Newton polygon operations")
    np_p.add_argument("action", choices=("construct", "compare", "dim", "sdim", "dual", "p-rank", "symmetric"))
    np_p.add_argument("--pairs", help='polygon like "2*(1,0)+(2,1)+(1,5)"')
    np_p.add_argument("--json", help="polygon JSON (inline, path, or -)")
    np_p.add_argument("--a", help="first polygon (compare)")
    np_p.add_argument("--b", help="second polygon (compare)")
    np_p.set_defaults(func=_cmd_np)

    poly_p = sub.add_parser("np-poly", help="valuation polygon of a monic polynomial")
    poly_p.add_argument("--coeffs", required=True, help="leading first, e.g. 1,0,-5,-125")
    poly_p.add_argument("--p", type=int, required=True)
    poly_p.set_defaults(func=_cmd_np_poly)

    weil_p = sub.add_parser("weil", help="q-Weil numbers")
    weil_p.add_argument("action", choices=("verify", "classify"))
    weil_p.add_argument("--minpoly", help="integer coefficients, leading first")
    weil_p.add_argument("--p", type=int)
    weil_p.add_argument("--n", type=int)
    weil_p.add_argument("--json", help='{"minpoly": [...], "p":, "n":}')
    weil_p.set_defaults(func=_cmd_weil)

    trace_p = sub.add_parser("weil-trace", help="quadratic Weil number from a real trace")
    trace_p.add_argument("--beta", type=int, required=True)
    trace_p.add_argument("--p", type=int, required=True)
    trace_p.add_argument("--n", type=int, required=True)
    trace_p.set_defaults(func=_cmd_weil_trace)

    witt_p = sub.add_parser("witt", help="truncated Witt vectors")
    witt_p.add_argument("action", choices=("ghost", "add", "mul", "teichmuller", "frobenius", "valuation"))
    witt_p.add_argument("--p", type=int, required=True)
    witt_p.add_argument("--m", type=int, default=1)
    witt_p.add_argument("--N", type=int)
    witt_p.add_argument("--coords", help="integer coordinates (ghost)")
    witt_p.add_argument("--a", help="first operand coordinates")
    witt_p.add_argument("--b", help="second operand coordinates")
    witt_p.set_defaults(func=_cmd_witt)

    car_p = sub.add_parser("cartier", help="local Cartier ring")
    car_p.add_argument("action", choices=("mul", "act", "artin-hasse"))
    car_p.add_argument("--p", type=int, default=2)
    car_p.add_argument("--N", type=int)
    car_p.add_argument("--degree", type=int, default=20)
    car_p.add_argument("--x", help="Cartier element JSON")
    car_p.add_argument("--y", help="Cartier element JSON (mul)")
    car_p.add_argument("--w", help="Witt coordinates (act)")
    car_p.set_defaults(func=_cmd_cartier)

    dieu_p = sub.add_parser("dieudonne", help="module presentations and slope polygons")
    dieu_p.add_argument(
        "action",
        choices=("gmn", "a-number", "dual", "np-display", "np-sigma-trivial", "serre-tate-torsion"),
    )
    dieu_p.add_argument("--m", dest="gm", type=int, help="slope numerator for gmn")
    dieu_p.add_argument("--n", dest="gn", type=int, help="slope conumerator for gmn")
    dieu_p.add_argument("--p", type=int, default=2)
    dieu_p.add_argument("--field-degree", dest="m", type=int, default=1)
    dieu_p.add_argument("--N", type=int)
    dieu_p.add_argument("--exponents", help="sorted exponents for serre-tate-torsion")
    dieu_p.add_argument("--json", help="presentation / normal form JSON")
    dieu_p.set_defaults(func=_cmd_dieudonne)

    sm_p = sub.add_parser("semimod", help="(m,n)-semimodules")
    sm_p.add_argument("action", choices=("normalize", "dual", "enumerate", "from-jumps"))
    sm_p.add_argument("--m", dest="sm_m", type=int)
    sm_p.add_argument("--n", dest="sm_n", type=int)
    sm_p.add_argument("--heads", help="finite members, comma separated")
    sm_p.add_argument("--tail", type=int, help="start of the full tail")
    sm_p.add_argument("--jumps", help="jump sequence, last entry = tail start")
    sm_p.add_argument("--json", help='{"m":, "n":, "heads": [...]} (inline, path, or -)')
    sm_p.set_defaults(func=_cmd_semimod)

    pos_p = sub.add_parser("poset", help="Newton polygon posets")
    pos_p.add_argument("action", choices=("build", "chain", "witness", "dot"))
    pos_p.add_argument("--h", type=int, required=True)
    pos_p.add_argument("--d", type=int, required=True)
    pos_p.add_argument("--symmetric", action="store_true")
    pos_p.add_argument("--from", dest="frm", help='"iso", "ord" or a pair expression')
    pos_p.add_argument("--to", dest="to", help='"iso", "ord" or a pair expression')
    pos_p.set_defaults(func=_cmd_poset)

    return root


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        missing = _missing_flags(args)
        if missing:
            parser.error("%s %s requires %s" % (args.command, args.action, ", ".join(missing)))
    except SystemExit as ex:
        return ex.code if ex.code is not None else USAGE_EXIT
    try:
        return args.func(args)
    except PrecisionError as ex:
        print("precision error: %s" % ex, file=sys.stderr)
        return 3
    except (IsolabError, ValueError, KeyError, OSError, json.JSONDecodeError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
