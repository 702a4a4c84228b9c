"""Command-line front end.

Parses group descriptions (inline JSON or file paths), dispatches to the
library, and emits deterministic JSON reports: sorted keys, no whitespace,
integers that can be large as decimal strings.  Domain errors exit 1 with a
structured error report; usage errors exit 2.  The optional ``--summary``
flag adds a human-readable line on stderr so stdout stays byte-stable.

Each verb reaches the library through the package (``nilcert.linalg.hnf``),
whose PEP 562 ``__getattr__`` imports a submodule on first use, so a verb
loads only the modules it runs.  A plain argv is read straight off the verb
table (``_read_argv``); argparse, in ``nilcert.usage``, is loaded only for
help, usage errors and the spellings that reader leaves to it.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import types

import nilcert

from .arith import SCHEMA, canonical_json, decimals, euler_length_bound, minkowski_bound, parse_int
from .errors import (
    InvalidParameters,
    NilcertError,
    QuotientTooLarge,
    UnsupportedGroupShape,
)

DEFAULT_MAX_INDEX = 10**6
DEFAULT_MAX_ENUM = 10**4
# The largest n whose M(n) has at most 4300 decimal digits, the interpreter's
# default limit for printing an int (M(1331) has 4294 digits, M(1332) 4308).
MAX_MINKOWSKI_N = 1331


# ---------------------------------------------------------------------------
# Presets: the worked-example groups, embedded and versioned
# ---------------------------------------------------------------------------


def preset_description(name: str, k: int | None = None, n: int | None = None) -> dict:
    """Embedded group descriptions for the worked examples, written out so
    that listing them loads no group family."""
    if name in ("sol3", "kxs1"):
        matrix = [["5", "2"], ["2", "1"]] if name == "sol3" else [["-1", "0"], ["0", "1"]]
        desc = {"type": "semidirect", "n": 2, "matrix": matrix,
                "sublattice": [["1", "0"], ["0", "1"]], "m": 1}
    elif name == "heisenberg":
        k = 1 if k is None else k
        if k < 1:
            raise InvalidParameters("heisenberg preset needs k >= 1")
        plus, minus = decimals((k, -k))
        desc = {"type": "twostep", "f": 1, "b": 2, "forms": [[["0", plus], [minus, "0"]]]}
    elif name == "torus":
        n = 3 if n is None else n
        if n < 1:
            raise InvalidParameters("torus preset needs n >= 1")
        desc = {"type": "twostep", "f": n, "b": 0, "forms": [[] for _ in range(n)]}
    else:
        raise InvalidParameters("unknown preset %r" % name)
    return dict(desc, schema=SCHEMA)


def presets() -> dict[str, dict]:
    """All embedded presets at their default parameters."""
    names = ("sol3", "heisenberg:k", "torus:n", "kxs1")
    return {name: preset_description(name.partition(":")[0]) for name in names}


def _load_json_arg(value: str):
    """Inline JSON if the argument looks like it, otherwise a file path."""
    text = value
    try:
        if not value.lstrip().startswith(("{", "[")):
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        # A file that is not UTF-8, an integer literal past the interpreter's
        # digit limit, or nesting deeper than the parser's recursion limit.
        raise json.JSONDecodeError(str(exc), text, 0) from None


def _group_from_description(desc: dict):
    """(type, group): the type field picks the one module that reads the group."""
    if not isinstance(desc, dict):
        raise InvalidParameters("a group description must be a JSON object")
    kind = desc.get("type")
    if kind == "semidirect":
        return kind, nilcert.semidirect.SemidirectLattice.from_json(desc)
    if kind == "twostep":
        return kind, nilcert.nilpotent2.TwoStepLattice.from_json(desc)
    raise UnsupportedGroupShape("unknown group type %r" % kind)


def _resolve_group(args) -> tuple[str, object]:
    if getattr(args, "preset", None):
        desc = preset_description(args.preset, k=getattr(args, "k", None), n=getattr(args, "n", None))
        return _group_from_description(desc)
    if getattr(args, "input", None):
        return _group_from_description(_load_json_arg(args.input))
    raise InvalidParameters("provide --preset or --input")


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------


def _twostep(kind: str, group, verb: str):
    """The group of a (type, group) pair, which ``verb`` needs to be twostep."""
    if kind != "twostep":
        raise UnsupportedGroupShape("%s needs a twostep group" % verb)
    return group


def _cmd_hnf(args):
    A = nilcert.linalg.IntMatrix.from_json(_load_json_arg(args.input))
    form = nilcert.linalg.hnf(A)
    return {"H": form.H.to_json(), "U": form.U.to_json()}


def _cmd_snf(args):
    A = nilcert.linalg.IntMatrix.from_json(_load_json_arg(args.input))
    form = nilcert.linalg.snf(A)
    return {
        "S": form.S.to_json(),
        "U": form.U.to_json(),
        "V": form.V.to_json(),
        "factors": decimals(form.factors),
    }


def _cmd_center(args):
    kind, group = _resolve_group(args)
    if kind == "semidirect":
        rank, structure = nilcert.semidirect.center_rank(group)
        return {"rank": rank, "structure": structure.to_json()}
    rank, kernel = nilcert.nilpotent2.center(group)
    return {"rank": rank, "kernel_basis": kernel.to_json()}


def _cmd_isolator(args):
    sqrt, l = nilcert.nilpotent2.isolator(_twostep(*_resolve_group(args), "isolator"))
    return {"sqrt_commutator": sqrt.to_json(), "l": l}


def _cmd_hbar1(args):
    group = _twostep(*_resolve_group(args), "hbar1")
    return {"structure": nilcert.nilpotent2.hbar1(group).to_json()}


def _pair_of_semidirect(args):
    g_kind, G = _group_from_description(_load_json_arg(args.group))
    s_kind, S = _group_from_description(_load_json_arg(args.subgroup))
    if g_kind != "semidirect" or s_kind != "semidirect":
        raise UnsupportedGroupShape("this verb needs two semidirect groups")
    return G, S


def _cmd_normalizer(args):
    G, S = _pair_of_semidirect(args)
    return {"normalizer": nilcert.semidirect.normalizer(G, S).to_json()}


def _cmd_quotient(args):
    G, S = _pair_of_semidirect(args)
    return {"quotient": nilcert.semidirect.quotient(G, S).to_json()}


def _cmd_intermediates(args):
    G, S = _pair_of_semidirect(args)
    subs = nilcert.semidirect.intermediates(G, S, max_quotient=args.max_enum)
    return {"count": len(subs), "subgroups": [s.to_json() for s in subs]}


def _cmd_series(args):
    group = _twostep(*_group_from_description(_load_json_arg(args.input)), "series")
    sub = nilcert.nilpotent2.NilSublattice.from_json(group, _load_json_arg(args.gamma))
    cert = nilcert.nilpotent2.subnormal_series(group, sub, max_index=args.max_index)
    return cert.to_json_dict()


def _cmd_cohomology(args):
    cohomology = nilcert.cohomology
    act = cohomology.ModuleAction.from_json(_load_json_arg(args.input))
    op = args.op
    if op == "z1":
        space = cohomology.z1(act)
    elif op == "b1":
        space = cohomology.b1(act)
    elif op == "h1":
        return {"op": "h1", "structure": cohomology.h1(act).to_json()}
    else:
        return {"op": "h1-brute", "structure": cohomology.h1_brute(act).to_json()}
    return {
        "op": op,
        "structure": space.structure.to_json(),
        "basis": [[decimals(vec) for vec in cocycle] for cocycle in space.basis],
    }


def _cmd_minkowski(args):
    if args.n > MAX_MINKOWSKI_N:
        raise InvalidParameters(
            "n must be at most %d: M(n) would not print in 4300 digits" % MAX_MINKOWSKI_N
        )
    bound = minkowski_bound(args.n)
    decimals((bound,))  # a TooLarge report, not a traceback, under a lowered digit limit
    return {"n": args.n, "bound": bound}


def _cmd_euler_bound(args):
    return {"chi": args.chi, "bound": euler_length_bound(args.chi)}


def _cmd_discsym2(args):
    return nilcert.invariants.discsym2_upper(_resolve_group(args)[1]).to_json()


def _cmd_sol3_tower(args):
    # 4^k has 2k + 1 bits: compare bit lengths before forming the power.
    if args.k >= 0 and (2 * args.k > args.max_index.bit_length() or 4**args.k > args.max_index):
        raise QuotientTooLarge(
            "tower index 4^%d exceeds --max-index %d" % (args.k, args.max_index)
        )
    return nilcert.semidirect.sol3_tower(args.k).to_json_dict()


def _cmd_witness(args):
    return nilcert.nilpotent2.heisenberg_witness(args.k, args.p, args.a, args.max_index).to_json_dict()


def _cmd_verify(args):
    cert = _load_json_arg(args.input)
    return {"verified": nilcert.invariants.verify_certificate(cert, args.max_index)}


def _cmd_presets(args):
    return {"presets": presets()}


# ---------------------------------------------------------------------------
# Argument grammar
# ---------------------------------------------------------------------------


# Options every verb takes, ahead of its own.
_COMMON = (
    ("--max-index", {"type": int, "help": "guardrail for index computations "
                     "(default: env NILCERT_MAX_INDEX, else 10^6)"}),
    ("--max-enum", {"type": int, "default": DEFAULT_MAX_ENUM,
                    "help": "guardrail for finite enumerations"}),
    ("--json", {"action": "store_true", "help": "emit JSON (default; kept for compatibility)"}),
    ("--summary", {"action": "store_true", "help": "also print a plain-text summary on stderr"}),
)
_INT = {"type": int, "required": True}  # a required integer option
_MATRIX = (("--input", {"required": True, "help": "matrix JSON (inline or path)"}),)
_GROUP = (
    ("--input", {"help": "group description JSON (inline or path)"}),
    ("--preset", {"help": "embedded preset name"}),
    ("--k", {"type": int, "help": "preset parameter k"}),
    ("--n", {"type": int, "help": "preset parameter n"}),
)
_PAIR = (
    ("--group", {"required": True, "help": "ambient group JSON (inline or path)"}),
    ("--subgroup", {"required": True, "help": "subgroup JSON (inline or path)"}),
)

# verb -> (handler, help, options), in the order --help lists them
_VERBS = {
    "hnf": (_cmd_hnf, "row Hermite normal form of an integer matrix", _MATRIX),
    "snf": (_cmd_snf, "Smith normal form of an integer matrix", _MATRIX),
    "center": (_cmd_center, "center rank of a lattice", _GROUP),
    "isolator": (_cmd_isolator, "isolator of the commutator subgroup", _GROUP),
    "hbar1": (_cmd_hbar1, "outer classes trivial on both extension ends", _GROUP),
    "discsym2-bound": (_cmd_discsym2, "lexicographic (f, b) upper bound", _GROUP),
    "normalizer": (_cmd_normalizer, "normalizer of S in G", _PAIR),
    "quotient": (_cmd_quotient, "abelian quotient G/S", _PAIR),
    "intermediates": (_cmd_intermediates, "subgroups strictly between S and G", _PAIR),
    "series": (_cmd_series, "two-layer subnormal series certificate", (
        ("--input", {"required": True, "help": "twostep group JSON"}),
        ("--gamma", {"required": True, "help": 'sublattice JSON {"U": ..., "W": ...}'}),
    )),
    "cohomology": (_cmd_cohomology, "crossed-homomorphism cohomology", (
        ("--input", {"required": True, "help": "module action JSON"}),
        ("--op", {"choices": ["z1", "b1", "h1", "h1-brute"], "default": "h1"}),
    )),
    "minkowski": (_cmd_minkowski, "Minkowski bound for GL(n, Z)",
                  (("--n", dict(_INT, help="1 <= n <= %d" % MAX_MINKOWSKI_N)),)),
    "euler-bound": (_cmd_euler_bound, "log2 length bound from the Euler characteristic",
                    (("--chi", _INT),)),
    "sol3-tower": (_cmd_sol3_tower, "length-k Sol3 tower certificate", (("--k", _INT),)),
    "heisenberg-witness": (_cmd_witness, "(1,2) witness chain certificate",
                           (("--k", _INT), ("--p", _INT), ("--a", _INT))),
    "verify": (_cmd_verify, "re-verify a certificate from scratch",
               (("--input", {"required": True, "help": "certificate JSON (inline or path)"}),)),
    "presets": (_cmd_presets, "list the embedded group presets", ()),
}


def _is_value(arg: str) -> bool:
    """Does argparse read ``arg`` after an option as its value on every
    Python?  Anything not starting with ``-``, and ASCII negative integers."""
    return arg[:1] != "-" or (arg[1:].isdigit() and arg[1:].isascii())


def _read_argv(argv: list[str]):
    """The namespace argparse gives a plain argv, read off the verb table;
    None for anything else, which argparse then parses itself.

    Plain means: a verb, then exact option names, each at most once, each
    value-taking one followed by its value (see ``_is_value``), every
    required option present, every ``type`` and ``choices`` satisfied.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    fn, _, options = _VERBS[argv[0]]
    table = dict(_COMMON + options)
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        kwargs = table.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(rest, None)
        if value is None or not _is_value(value):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except (TypeError, ValueError):
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    args = types.SimpleNamespace(verb=argv[0], fn=fn)
    for flag, kwargs in table.items():
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _summarize(verb: str, result: dict) -> str:
    if verb == "verify":
        return "certificate verified" if result["verified"] else "certificate REJECTED"
    if verb in ("sol3-tower", "heisenberg-witness", "series"):
        return "%s: total index %s, %d levels, min length %s" % (
            verb,
            result.get("total_index"),
            len(result.get("levels", result.get("chain", []))),
            result.get("min_length"),
        )
    if verb == "discsym2-bound":
        return "disc-sym_2 upper bound (%d, %d)" % (result["f"], result["b"])
    if verb == "minkowski":
        return "minkowski(%d) = %d" % (result["n"], result["bound"])
    return "%s: ok" % verb


def _max_index(flag: int | None) -> int:
    """``--max-index``, else the ``NILCERT_MAX_INDEX`` environment value, else the default."""
    if flag is not None:
        return flag
    env = os.environ.get("NILCERT_MAX_INDEX")
    if env is None:
        return DEFAULT_MAX_INDEX
    try:
        return parse_int(env)
    except InvalidParameters as exc:
        raise InvalidParameters("NILCERT_MAX_INDEX: %s" % exc) from None


def _report(argv: list[str]):
    """The parsed argv, None after an error, and the JSON report of running it."""
    args = _read_argv(argv)
    if args is None:
        # Only a verb's own parser is built; no verb (or -h) needs them all.
        verbs = argv[:1] if argv and argv[0] in _VERBS else _VERBS
        args = nilcert.usage.build_parser(_VERBS, _COMMON, verbs).parse_args(argv)
    try:
        args.max_index = _max_index(args.max_index)
        result = args.fn(args)
    except (NilcertError, OSError, json.JSONDecodeError) as exc:
        kind = type(exc).__name__ if isinstance(exc, NilcertError) else "InputError"
        return None, {"schema": SCHEMA, "error": {"type": kind, "message": str(exc)}}
    return args, {"schema": SCHEMA, "verb": args.verb, "result": result}


def run(argv: list[str]) -> int:
    """Parse argv, execute, and print the JSON report; returns the exit code.
    Out of memory, the report is a TooLarge error, written once the exception
    has released the frames its traceback held."""
    try:
        args, report = _report(argv)
        text = canonical_json(report)
    except MemoryError:
        args = report = text = None
    if text is None:
        text = canonical_json({"schema": SCHEMA, "error": {"type": "TooLarge", "message": "out of memory"}})
    sys.stdout.write(text + "\n")
    if args is None:
        return 1
    if args.summary:
        sys.stderr.write(_summarize(args.verb, report["result"]) + "\n")
    return 0


def main() -> None:
    """The console script: ``run`` on the process's argv, then exit.

    Everything the run created survives until exit, so the collection the
    interpreter makes at shutdown would only traverse it.  ``gc.freeze``
    moves it to the permanent generation, which that collection skips;
    ``atexit`` hooks, stream flushes and the exit code are unchanged.  The
    ``finally`` gives argparse's exits (help, usage errors) the same path.
    ``run`` itself keeps normal collection for in-process callers.
    """
    try:
        code = run(sys.argv[1:])
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
