"""Per-layer tracing for the benchmark, installed from outside the package.

Only the traced child calls `install()`, which replaces public functions of
the comphomfly modules with wrappers that record spans and counts; nothing
under src/ is edited. An untraced child imports this module only after its
pass, to show with `count_wrapped()` that it ran unwrapped.

A span records name, start, end and parent. A layer's self time is its span
minus its direct child spans. `Laurent.__mul__` is a kernel, not a span: its
calls, time and operand sizes are counted, and its time belongs to whichever
span called it (the multiplies inside `exact_divide` belong to the divide, the
ones in the engine's assembly to the engine's self time).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

MARK = "_perfbench_traced"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = {}
        self.mul = [0, 0.0, 0, 0]  # calls, seconds, term pairs, peak terms

    def _patch(self, owner, attr, make):
        """Replace owner.attr (or owner[attr] for a dict) by make(original)."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapper = functools.update_wrapper(make(original), original)
        setattr(wrapper, MARK, True)
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, on_result=None):
        """Record a span around every call of owner.attr."""
        spans, stack = self.spans, self.stack

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [name, perf_counter(), None, stack[-1] if stack else None]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec[2] = perf_counter()
                if on_result:
                    on_result(result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr, name, on_result=None):
        """Count every call of owner.attr, with no span."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                result = fn(*args, **kwargs)
                if on_result:
                    on_result(result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def kernel_mul(self, cls, attr):
        """Count calls, time, term pairs and peak product size of cls.attr."""
        stats = self.mul

        def make(fn):
            def wrapper(a, b):
                t0 = perf_counter()
                out = fn(a, b)
                stats[1] += perf_counter() - t0
                stats[0] += 1
                stats[2] += len(a.terms) * (len(b.terms) if isinstance(b, cls) else 1)
                if len(out.terms) > stats[3]:
                    stats[3] = len(out.terms)
                return out

            return wrapper

        self._patch(cls, attr, make)

    # -- aggregation ----------------------------------------------------------

    def _ancestors(self, rec):
        names = set()
        while rec[3] is not None:
            rec = self.spans[rec[3]]
            names.add(rec[0])
        return names

    def metrics(self):
        """The per-layer metrics of everything recorded so far."""
        total, calls, self_s = {}, {}, {}
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child_s[rec[3]] += rec[2] - rec[1]
        for i, rec in enumerate(self.spans):
            dur = rec[2] - rec[1]
            names = [rec[0]]
            if rec[0] == "qexact.exact_divide":
                above = self._ancestors(rec)
                if "rosso.oracle" in above:
                    names.append("rosso.oracle_divide")
                elif "rosso.engine" in above:
                    names.append("rosso.normalize")
            for name in names:
                total[name] = total.get(name, 0.0) + dur
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]

        def s(name):
            return total.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        c = self.counts.get
        mul_calls, mul_s, pairs, peak = self.mul
        div_s, steps = s("qexact.exact_divide"), c("qexact.exact_divide.steps", 0)
        engine_calls = c("verify.engine.calls", 0)
        out = {
            "symfunc.composite_adams.s": s("symfunc.composite_adams"),
            "symfunc.composite_adams.calls": n("symfunc.composite_adams"),
            "symfunc.composite_adams.keys": c("symfunc.composite_adams.keys", 0),
            "symfunc.adams_at_rank.s": s("symfunc.adams_at_rank"),
            "symfunc.adams_at_rank.calls": n("symfunc.adams_at_rank"),
            "symfunc.adams_at_rank.keys": c("symfunc.adams_at_rank.keys", 0),
            "symfunc.lr_coefficient.calls": c("symfunc.lr_coefficient", 0),
            "rosso.engine.s": s("rosso.engine"),
            "rosso.engine.calls": n("rosso.engine"),
            "rosso.out_terms": c("rosso.out_terms", 0),
            "rosso.terms.s": s("rosso.terms"),
            "rosso.terms.count": n("rosso.terms"),
            "rosso.brackets.count": c("rosso.brackets", 0),
            "rosso.assemble.self_s": self_s.get("rosso.engine", 0.0),
            "rosso.normalize.s": s("rosso.normalize"),
            "rosso.oracle.s": s("rosso.oracle"),
            "rosso.oracle.calls": n("rosso.oracle"),
            "rosso.qdim_at_rank.s": s("rosso.qdim_at_rank"),
            "rosso.qdim_at_rank.calls": n("rosso.qdim_at_rank"),
            "rosso.oracle_divide.s": s("rosso.oracle_divide"),
            "rosso.oracle_divide.calls": n("rosso.oracle_divide"),
            "qexact.mul.calls": mul_calls,
            "qexact.mul.s": mul_s,
            "qexact.mul.term_pairs": pairs,
            "qexact.mul.pairs_per_s": pairs / mul_s if mul_s else 0.0,
            "qexact.mul.peak_terms": peak,
            "qexact.exact_divide.calls": n("qexact.exact_divide"),
            "qexact.exact_divide.self_s": self_s.get("qexact.exact_divide", 0.0),
            "qexact.exact_divide.steps": steps,
            "qexact.exact_divide.steps_per_s": steps / div_s if div_s else 0.0,
            "qexact.substitute.calls": n("qexact.substitute"),
            "qexact.substitute.s": s("qexact.substitute"),
        }
        for suite in ("connection", "duality", "evaluation", "exceptional", "oracle"):
            out["verify.suite.%s.s" % suite] = s("verify.suite." + suite)
        computed = c("verify.composite_homfly", 0)
        out.update(
            {
                "verify.engine.calls": engine_calls,
                "verify.engine.hit_ratio": (
                    (engine_calls - computed) / engine_calls if engine_calls else 0.0
                ),
                "verify.checks": c("verify.checks", 0),
                "verify.skips": c("verify.skips", 0),
                "cli.format.s": s("cli.format"),
            }
        )
        return out


def install():
    """Wrap the layers' public functions at every module that binds them."""
    from comphomfly import cli, qexact, rosso, symfunc, verify

    tr = Tracer()

    def keys(name):
        return lambda result: tr.add(name, len(result))

    def divided(result):
        tr.add("qexact.exact_divide.steps", len(result.terms))

    def engine_done(result):
        tr.add("rosso.out_terms", len(result.normalized.terms))

    def summarized(counts):
        tr.add("verify.checks", sum(counts.values()))
        tr.add("verify.skips", counts.get("SKIP", 0))

    # symfunc
    for module in (rosso, cli):
        tr.span(module, "composite_adams", "symfunc.composite_adams", keys("symfunc.composite_adams.keys"))
    tr.span(rosso, "adams_at_rank", "symfunc.adams_at_rank", keys("symfunc.adams_at_rank.keys"))
    tr.count(symfunc, "lr_coefficient", "symfunc.lr_coefficient")

    # rosso: the engine is entered from cli and from verify
    tr.span(cli, "composite_homfly", "rosso.engine", engine_done)
    tr.span(verify, "composite_homfly", "rosso.engine", engine_done)
    tr.count(verify, "composite_homfly", "verify.composite_homfly")
    for name in ("braiding_eigenvalue", "quantum_dimension"):
        tr.span(rosso, name, "rosso.terms")
    tr.count(rosso, "bracket_numerator", "rosso.brackets")
    for module in (rosso, verify):
        tr.span(module, "finite_N_oracle", "rosso.oracle")
    tr.span(rosso, "qdim_at_rank", "rosso.qdim_at_rank")

    # qexact
    for module in (rosso, verify, qexact):
        tr.span(module, "exact_divide", "qexact.exact_divide", divided)
    tr.kernel_mul(qexact.Laurent, "__mul__")
    tr.kernel_mul(qexact.Laurent, "__rmul__")
    tr.span(qexact.Laurent, "substitute", "qexact.substitute")

    # verify: run_suite looks suites up in the SUITES table
    for suite in list(verify.SUITES):
        tr.span(verify.SUITES, suite, "verify.suite." + suite)
    tr.count(verify, "engine", "verify.engine.calls")
    tr.count(verify, "summarize", "verify.summarize", summarized)

    # cli
    for name in ("dumps_poly", "format_expansion"):
        tr.span(cli, name, "cli.format")
    return tr


def count_wrapped():
    """Number of comphomfly functions currently replaced by a tracing wrapper."""
    found = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("comphomfly") or module is None:
            continue
        for value in vars(module).values():
            if isinstance(value, type):
                candidates = vars(value).values()
            elif isinstance(value, dict):
                candidates = value.values()
            else:
                candidates = (value,)
            found.update(id(v) for v in candidates if getattr(v, MARK, False))
    return len(found)
