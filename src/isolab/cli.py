"""Command-line surface: argparse subcommands over the library.

Exit codes: 0 success, 2 invalid input (a p that is not prime included), 3
precision insufficiency, 64 usage errors (a missing required flag
included).  Output is byte-deterministic for fixed inputs; --format selects
text (default), json, or dot where applicable.  The precision N of witt,
cartier and dieudonne is --N, else the environment variable
ISOLAB_PRECISION, else 6; a presentation read from JSON takes its own "N",
else ISOLAB_PRECISION, else h + 2.

A well-formed request (--format X pairs, the command, its action, then
options spelled as the table spells them, each at most once, with values
argparse reads as values) is read straight from the argument table and
builds no parser.  Any other argv goes to argparse, which words every help
text and message: the root parser and only the subcommand argv names, or
every subcommand for help, an abbreviated --format, "--" and a missing or
unknown command, so each message reads as it does with the full parser.
(This paragraph is left out of the --help description.)
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
from .poset import (
    check_endpoints,
    dot_export,
    interval_chain,
    isoclinic_polygon,
    ordinary_polygon,
    poset_build,
    poset_to_json,
    specialization_witness,
)
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
        text = sys.stdin.read()
    else:
        text = value.strip()
        if not text.startswith(("{", "[")):
            with open(value) as fh:
                text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        # json recurses once per level of [ and {
        raise InputError("JSON payload nested too deeply") from None


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
    # each root at 0 has valuation +infinity and prints as "inf"
    text = " ".join(slopes + ["inf"] * vp.infinite_multiplicity)
    _emit(args, text, {"slopes": slopes, "vertices": [list(v) for v in vp.vertices], **extra})


# ---------------------------------------------------------------------------
# handlers, one per action; each prints its result


def _np_compare(args):
    res = np_compare(parse_polygon(args.a), parse_polygon(args.b))
    _emit(args, res.value, {"comparison": res.value})


def _np_dim(args):
    z = _polygon_arg(args)
    val = np_dim(z)
    # only JSON lists the diamond; text needs its size alone
    _emit(args, str(val), {"dim": val, "diamond": sorted(np_diamond(z))} if args.format == "json" else None)


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
    """The --from/--to polygons, once (h, d) passes the poset's checks;
    "iso" and "ord" name the bottom and top of its poset."""
    check_endpoints(args.h, args.d, args.symmetric)
    named = {"iso": isoclinic_polygon, "ord": ordinary_polygon}
    return [named[t](args.h, args.d) if t in named else parse_polygon(t) for t in (args.frm, args.to)]


def _emit_chain(args, chain):
    names = [render_pairs(z.pairs()) for z in chain]
    _emit(
        args,
        "length %d\n%s" % (len(chain) - 1, "\n".join(names)),
        {"length": len(chain) - 1, "chain": names},
    )


def _poset_chain(args):
    _emit_chain(args, interval_chain(args.h, args.d, *_poset_endpoints(args), symmetric=args.symmetric))


def _poset_witness(args):
    _emit_chain(args, specialization_witness(*_poset_endpoints(args), symmetric=args.symmetric))


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


_FORMATS = ("text", "json", "dot")

# The one table of arguments, in the order --help lists them: command ->
# (its help line, its options as (flag, add_argument keywords)); the action
# positional comes from _ACTIONS and --format's choices from _FORMATS.  An
# option's attribute is its "dest", else its flag without the leading
# dashes, "-" read as "_".
_COMMANDS = {
    "np": ("Newton polygon operations", (
        ("--pairs", {"help": 'polygon like "2*(1,0)+(2,1)+(1,5)"'}),
        ("--json", {"help": "polygon JSON (inline, path, or -)"}),
        ("--a", {"help": "first polygon (compare)"}),
        ("--b", {"help": "second polygon (compare)"}),
    )),
    "np-poly": ("valuation polygon of a monic polynomial", (
        ("--coeffs", {"required": True, "help": "leading first, e.g. 1,0,-5,-125"}),
        ("--p", {"type": int, "required": True}),
    )),
    "weil": ("q-Weil numbers", (
        ("--minpoly", {"help": "integer coefficients, leading first"}),
        ("--p", {"type": int}),
        ("--n", {"type": int}),
        ("--json", {"help": '{"minpoly": [...], "p":, "n":}'}),
    )),
    "weil-trace": ("quadratic Weil number from a real trace", (
        ("--beta", {"type": int, "required": True}),
        ("--p", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
    )),
    "witt": ("truncated Witt vectors", (
        ("--p", {"type": int, "required": True}),
        ("--m", {"type": int, "default": 1}),
        ("--N", {"type": int}),
        ("--coords", {"help": "integer coordinates (ghost)"}),
        ("--a", {"help": "first operand coordinates"}),
        ("--b", {"help": "second operand coordinates"}),
    )),
    "cartier": ("local Cartier ring", (
        ("--p", {"type": int, "default": 2}),
        ("--N", {"type": int}),
        ("--degree", {"type": int, "default": 20}),
        ("--x", {"help": "Cartier element JSON"}),
        ("--y", {"help": "Cartier element JSON (mul)"}),
        ("--w", {"help": "Witt coordinates (act)"}),
    )),
    "dieudonne": ("module presentations and slope polygons", (
        ("--m", {"dest": "gm", "type": int, "help": "slope numerator for gmn"}),
        ("--n", {"dest": "gn", "type": int, "help": "slope conumerator for gmn"}),
        ("--p", {"type": int, "default": 2}),
        ("--field-degree", {"dest": "m", "type": int, "default": 1}),
        ("--N", {"type": int}),
        ("--exponents", {"help": "sorted exponents for serre-tate-torsion"}),
        ("--json", {"help": "presentation / normal form JSON"}),
    )),
    "semimod": ("(m,n)-semimodules", (
        ("--m", {"dest": "sm_m", "type": int}),
        ("--n", {"dest": "sm_n", "type": int}),
        ("--heads", {"help": "finite members, comma separated"}),
        ("--tail", {"type": int, "help": "start of the full tail"}),
        ("--jumps", {"help": "jump sequence, last entry = tail start"}),
        ("--json", {"help": '{"m":, "n":, "heads": [...]} (inline, path, or -)'}),
    )),
    "poset": ("Newton polygon posets", (
        ("--h", {"type": int, "required": True}),
        ("--d", {"type": int, "required": True}),
        ("--symmetric", {"action": "store_true"}),
        ("--from", {"dest": "frm", "help": '"iso", "ord" or a pair expression'}),
        ("--to", {"help": '"iso", "ord" or a pair expression'}),
    )),
}


def _command_named(argv):
    """The command argv names and its position, when only --format X or
    --format=X precede it; else None: what argparse prints for help, an
    abbreviated option, "--", or a missing or unknown command depends on
    every command's parser."""
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _COMMANDS:
            return token, i
        if token == "--format":
            i += 2
        elif token.startswith("--format="):
            i += 1
        else:
            return None
    return None


def _dest(flag, kwargs):
    return kwargs.get("dest", flag[2:].replace("-", "_"))


# argparse reads a token that starts with "-" as a value only when it is "-"
# or matches this pattern (and no option of the parser does)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _exact_args(argv):
    """The namespace build_parser().parse_args(argv) returns, read from the
    tables, for argv of one shape: --format X pairs, the command, its
    action, then options exactly as the table spells them, each at most
    once, every value one argparse reads as a value and accepts.  None for
    any other argv (help, an abbreviation, "=", "--", a repeated or unknown
    option, a missing or bad value, a missing required option), which
    argparse parses itself."""
    named = _command_named(argv)
    if named is None:
        return None
    command, i = named
    args = {"format": "text", "command": command}
    for j in range(0, i, 2):
        if argv[j] != "--format" or argv[j + 1] not in _FORMATS:
            return None
        args["format"] = argv[j + 1]
    rest = argv[i + 1:]
    if None not in _ACTIONS[command]:
        if not rest or rest[0] not in _ACTIONS[command]:
            return None
        args["action"], rest = rest[0], rest[1:]
    options = dict(_COMMANDS[command][1])
    for flag, kwargs in options.items():
        args[_dest(flag, kwargs)] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
    seen = set()
    tokens = iter(rest)
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None or flag in seen:
            return None
        seen.add(flag)
        if kwargs.get("action") == "store_true":
            value = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-" and not _NEGATIVE_NUMBER.match(value):
                return None
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except ValueError:
                    return None
            if value not in kwargs.get("choices", (value,)):
                return None
        args[_dest(flag, kwargs)] = value
    if any(kwargs.get("required") and flag not in seen for flag, kwargs in options.items()):
        return None
    return argparse.Namespace(**args)


def build_parser(command=None):
    """The parser of every command, or of `command` alone."""
    root = _Parser(prog="isocrystal-lab", description=(__doc__ or "").rpartition("\n\n")[0])
    root.add_argument("--format", choices=_FORMATS, default="text")
    # with one command registered, the metavar keeps the usage line that
    # argparse prints for unrecognized arguments and main's missing flags
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = root.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        summary, options = _COMMANDS[name]
        parser = sub.add_parser(name, help=summary)
        if None not in _ACTIONS[name]:
            parser.add_argument("action", choices=tuple(_ACTIONS[name]))
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
    return root


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = None
    try:
        args = _exact_args(argv)
        if args is None:
            named = _command_named(argv)
            parser = build_parser(named[0] if named else None)
            args = parser.parse_args(argv)
        action = getattr(args, "action", None)
        handler, needs = _ACTIONS[args.command][action]
        if args.command == "weil" and args.json:
            needs = ()  # the payload carries minpoly, p and n
        flags = {_dest(flag, kwargs): flag for flag, kwargs in _COMMANDS[args.command][1]}
        missing = [flags[name] for name in needs if getattr(args, name) is None]
        if missing:
            message = "%s %s requires %s" % (args.command, action, ", ".join(missing))
            (parser or build_parser(args.command)).error(message)
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
    except (IsolabError, ValueError, KeyError, TypeError, ArithmeticError, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
