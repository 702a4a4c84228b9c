"""The argparse grammar of the command line: help, usage and error texts.

``cli`` reads a plain argv straight off its verb table and builds this
parser only for what that reader leaves to it: ``-h``, usage errors and
every spelling outside its subset (abbreviations, ``--opt=value``, options
given twice).  Importing argparse also loads gettext and locale, so only
those runs pay for them, and their texts stay argparse's own.
"""

from __future__ import annotations

import argparse


def build_parser(table: dict, common: tuple, verbs) -> argparse.ArgumentParser:
    """The root parser with the sub-parsers of ``verbs`` only.

    ``table`` maps every verb to (handler, help, options) in the order
    ``--help`` lists them; ``common`` options come ahead of each verb's own.
    With one verb built, the metavar keeps the root usage listing every
    verb; with all of them argparse spells out the same list itself, and
    errors about the verb argument still name it ``verb``.
    """
    parser = argparse.ArgumentParser(
        prog="nilcert",
        description="Exact certificates for lattice invariants in nilpotent and solvable groups.",
    )
    metavar = "{%s}" % ",".join(table) if len(verbs) == 1 else None
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name in verbs:
        fn, helptext, options = table[name]
        p = sub.add_parser(name, help=helptext)
        for flag, kwargs in common + options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser
