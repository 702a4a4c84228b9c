"""Outside-in span tracing of nilcert's layers.

:class:`Tracer` wraps the library's public names with a span recorder from
outside the package.  ``from .linalg import hnf`` copies the binding into
every importing module, so patching ``nilcert.linalg`` alone would miss most
calls: :meth:`Tracer.install` rebinds every module-level name in every
``nilcert`` module that refers to a traced function, and replaces the traced
methods on their classes.

Each span records its name, start, end, parent span and (for a few names)
the call's arguments and result.  Spans of one op stay in memory until the op
ends; :meth:`Tracer.end_op` then folds them into per-name aggregates (calls,
self time, outermost total time and the extras below), so memory is bounded
by the largest op.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.attribute); the span name is "<module>.<attr>",
# with "__init__" and "__mul__" written as "init" and "mul".
TRACED = [
    ("linalg", "IntMatrix.__init__"),
    ("linalg", "IntMatrix.__mul__"),
    ("linalg", "hnf"),
    ("linalg", "snf"),
    ("linalg", "unimodular_inverse"),
    ("linalg", "Lattice.from_rows"),
    ("linalg", "Lattice.coords_of"),
    ("linalg", "solve_row_combination"),
    ("semidirect", "conj"),
    ("semidirect", "mul"),
    ("semidirect", "inv"),
    ("semidirect", "normalizer"),
    ("semidirect", "quotient"),
    ("semidirect", "SemidirectGroup.holonomy_order"),
    ("semidirect", "intermediates"),
    ("semidirect", "center_rank"),
    ("semidirect", "sol3_tower"),
    ("nilpotent2", "TwoStepLattice.beta"),
    ("nilpotent2", "nil_mul"),
    ("nilpotent2", "nil_commutator"),
    ("nilpotent2", "box_quotient"),
    ("nilpotent2", "subnormal_series"),
    ("nilpotent2", "heisenberg_witness"),
    ("nilpotent2", "hbar1"),
    ("nilpotent2", "isolator"),
    ("cohomology", "ModuleAction.__init__"),
    ("cohomology", "z1"),
    ("cohomology", "b1"),
    ("cohomology", "h1"),
    ("cohomology", "h1_brute"),
    ("cohomology", "coset_enumeration"),
    ("invariants", "verify_certificate"),
    ("invariants", "discsym2_upper"),
    ("certificates", "SeriesCertificate.to_json_dict"),
    ("certificates", "SeriesCertificate.from_json_dict"),
]

# Spans whose arguments and result the fold reads.
KEEP = {
    "linalg.hnf", "linalg.snf", "semidirect.intermediates", "cohomology.z1",
    "cohomology.h1_brute", "invariants.verify_certificate",
}

# Every per-layer metric the traced run reports, with its unit and the
# direction that counts as better.  Counts and times are per op.
PER_LAYER = [
    ("linalg.IntMatrix.init.calls", "count/op", "lower"),
    ("linalg.IntMatrix.mul.calls", "count/op", "lower"),
    ("linalg.IntMatrix.mul.self_s", "s/op", "lower"),
    ("linalg.hnf.calls", "count/op", "lower"),
    ("linalg.hnf.self_s", "s/op", "lower"),
    ("linalg.hnf.max_dim", "rows", "lower"),
    ("linalg.hnf.max_bits", "bits", "lower"),
    ("linalg.hnf.u_discarded_ratio", "ratio", "lower"),
    ("linalg.snf.calls", "count/op", "lower"),
    ("linalg.snf.self_s", "s/op", "lower"),
    ("linalg.snf.max_dim", "rows", "lower"),
    ("linalg.snf.max_bits", "bits", "lower"),
    ("linalg.unimodular_inverse.calls", "count/op", "lower"),
    ("linalg.unimodular_inverse.self_s", "s/op", "lower"),
    ("linalg.Lattice.from_rows.calls", "count/op", "lower"),
    ("linalg.Lattice.from_rows.self_s", "s/op", "lower"),
    ("linalg.Lattice.coords_of.calls", "count/op", "lower"),
    ("linalg.solve_row_combination.calls", "count/op", "lower"),
    ("semidirect.conj.calls", "count/op", "lower"),
    ("semidirect.conj.self_s", "s/op", "lower"),
    ("semidirect.mul.calls", "count/op", "lower"),
    ("semidirect.inv.calls", "count/op", "lower"),
    ("semidirect.normalizer.total_s", "s/op", "lower"),
    ("semidirect.quotient.total_s", "s/op", "lower"),
    ("semidirect.SemidirectGroup.holonomy_order.calls", "count/op", "lower"),
    ("semidirect.SemidirectGroup.holonomy_order.self_s", "s/op", "lower"),
    ("semidirect.intermediates.total_s", "s/op", "lower"),
    ("semidirect.intermediates.table_entries", "count/op", "lower"),
    ("semidirect.intermediates.found", "count/op", "higher"),
    ("nilpotent2.TwoStepLattice.beta.calls", "count/op", "lower"),
    ("nilpotent2.nil_mul.calls", "count/op", "lower"),
    ("nilpotent2.nil_commutator.calls", "count/op", "lower"),
    ("nilpotent2.box_quotient.calls", "count/op", "lower"),
    ("nilpotent2.box_quotient.self_s", "s/op", "lower"),
    ("nilpotent2.subnormal_series.total_s", "s/op", "lower"),
    ("nilpotent2.heisenberg_witness.total_s", "s/op", "lower"),
    ("cohomology.ModuleAction.init.total_s", "s/op", "lower"),
    ("cohomology.z1.total_s", "s/op", "lower"),
    ("cohomology.b1.total_s", "s/op", "lower"),
    ("cohomology.h1.total_s", "s/op", "lower"),
    ("cohomology.h1_brute.total_s", "s/op", "lower"),
    ("cohomology.coset_enumeration.calls", "count/op", "lower"),
    ("cohomology.coset_enumeration.self_s", "s/op", "lower"),
    ("cohomology.h1_brute.candidates", "count/op", "lower"),
    ("cohomology.h1_brute.cocycle_yield", "ratio", "higher"),
    ("invariants.verify_certificate.calls", "count/op", "lower"),
    ("invariants.verify_certificate.total_s", "s/op", "lower"),
    ("invariants.verify_certificate.rejected", "count/op", "lower"),
    ("invariants.discsym2_upper.total_s", "s/op", "lower"),
    ("certificates.to_json_dict.self_s", "s/op", "lower"),
    ("certificates.from_json_dict.self_s", "s/op", "lower"),
    ("certificates.json_bytes", "bytes/op", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.run_s", "s/op", "lower"),
    ("cli.process_s", "s/op", "lower"),
    ("cli.stdout_bytes", "bytes/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def span_name(module: str, attr: str) -> str:
    short = {"__init__": "init", "__mul__": "mul"}
    parts = attr.split(".")
    parts[-1] = short.get(parts[-1], parts[-1])
    return ".".join([module] + parts)


class _Stats:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Span recorder for the calls into nilcert's layers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.stats = {span_name(m, a): _Stats() for m, a in TRACED}
        self.extra = {
            "hnf_discarded": 0, "hnf_max_dim": 0, "hnf_max_bits": 0,
            "snf_max_dim": 0, "snf_max_bits": 0, "rejected": 0,
            "table_entries": 0, "found": 0, "candidates": 0, "cocycles": 0,
        }
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, keep = self.spans, self.stack, name in KEEP
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(spans)
            record = [name, stack[-1], 0.0, 0.0, None]
            spans.append(record)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                record[2] = t0
                record[3] = t1
            if keep:
                record[4] = (args, out)
            return out

        return span

    def install(self) -> None:
        """Patch every binding of every traced name in the nilcert modules."""
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "nilcert" or key.startswith("nilcert."))]
        for module, attr in TRACED:
            mod = sys.modules["nilcert." + module]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, name)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, fn))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def unpatched(self) -> list[str]:
        """Bindings in nilcert modules that still point at a traced original."""
        originals = {id(v) for owner, key, v in self._restore if not isinstance(owner, type)}
        return [
            "%s.%s" % (key, name)
            for key, m in sys.modules.items()
            if m is not None and (key == "nilcert" or key.startswith("nilcert."))
            for name, value in vars(m).items()
            if id(value) in originals
        ]

    # -- folding -----------------------------------------------------------

    def end_op(self) -> None:
        """Fold the finished op's spans into the aggregates and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        extra = self.extra
        z1_order = None
        for sid, (name, parent, t0, t1, kept) in enumerate(spans):
            stats = self.stats[name]
            stats.calls += 1
            stats.self_s += (t1 - t0) - child[sid]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][1]
            if anc < 0:
                stats.total_s += t1 - t0
            if kept is None:
                continue
            args, out = kept
            if name == "linalg.hnf":
                if parent >= 0 and spans[parent][0] == "linalg.Lattice.from_rows":
                    extra["hnf_discarded"] += 1
                extra["hnf_max_dim"] = max(extra["hnf_max_dim"], out.H.rows, out.H.cols)
                extra["hnf_max_bits"] = max(extra["hnf_max_bits"], _bits(out.H, out.U))
            elif name == "linalg.snf":
                extra["snf_max_dim"] = max(extra["snf_max_dim"], out.S.rows, out.S.cols)
                extra["snf_max_bits"] = max(extra["snf_max_bits"], _bits(out.S, out.U, out.V))
            elif name == "invariants.verify_certificate":
                extra["rejected"] += out is False
            elif name == "semidirect.intermediates":
                G, S = args[0], args[1]
                order = _det(S.L) // _det(G.L) * (S.m // G.m)
                extra["table_entries"] += order * order
                extra["found"] += len(out)
            elif name == "cohomology.z1":
                z1_order = out.structure.order()
            elif name == "cohomology.h1_brute":
                act = args[0]
                extra["candidates"] += act.module.order() ** act.ngens
                extra["cocycles"] += z1_order or 0
        spans.clear()

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op values of the span-derived per-layer metrics."""
        out = {}
        for name, stats in self.stats.items():
            out[name + ".calls"] = stats.calls / ops
            out[name + ".self_s"] = stats.self_s / ops
            out[name + ".total_s"] = stats.total_s / ops
        extra = self.extra
        hnf_calls = self.stats["linalg.hnf"].calls
        out.update({
            "linalg.hnf.max_dim": extra["hnf_max_dim"],
            "linalg.hnf.max_bits": extra["hnf_max_bits"],
            "linalg.hnf.u_discarded_ratio": extra["hnf_discarded"] / hnf_calls if hnf_calls else 0.0,
            "linalg.snf.max_dim": extra["snf_max_dim"],
            "linalg.snf.max_bits": extra["snf_max_bits"],
            "invariants.verify_certificate.rejected": extra["rejected"] / ops,
            "semidirect.intermediates.table_entries": extra["table_entries"] / ops,
            "semidirect.intermediates.found": extra["found"] / ops,
            "cohomology.h1_brute.candidates": extra["candidates"] / ops,
            "cohomology.h1_brute.cocycle_yield":
                extra["cocycles"] / extra["candidates"] if extra["candidates"] else 0.0,
            "certificates.to_json_dict.self_s": out["certificates.SeriesCertificate.to_json_dict.self_s"],
            "certificates.from_json_dict.self_s": out["certificates.SeriesCertificate.from_json_dict.self_s"],
        })
        return out


def _bits(*mats) -> int:
    return max((abs(x).bit_length() for m in mats for row in m.data for x in row), default=0)


def _det(L) -> int:
    """Index of a full-rank lattice: its basis is triangular (row HNF)."""
    d = 1
    for i, row in enumerate(L.basis.data):
        d *= row[i]
    return abs(d)
