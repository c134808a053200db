"""Spans recorded from outside the library, for the traced benchmark run.

Nothing here is active unless `install` is called: the untraced run
imports this module but never patches a name.  `install` replaces each
name where the library looks it up (module globals of `sidh` and
`supersingular`, class attributes of `EdwardsCurve` and `OddIsogeny`,
the x-only functions in the package namespace the benchmark calls) with
a wrapper that records a span.  A span holds its name, start, end,
parent span, the operation id it belongs to, and the exact `OpCounter`
delta of the field it works in, taken at the same two boundaries.

Self time is a span's duration minus the time its direct children
cover; calls run in one thread, so children never overlap.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import wraps
from time import perf_counter
from unittest import mock

SETUP_OP = -1        # operation id of spans recorded during set-up


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "counter",
                 "snap", "counts", "ok", "value", "child_time")

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                "self": self.self_time, "ok": self.ok, "value": self.value,
                "counts": self.counts}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory span store.  `op` is set by the runner before each
    operation; `calls` counts the wrapped calls that get no span of
    their own (curve `double` and `add`) for the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = SETUP_OP
        self.calls: Counter = Counter()
        self.op_calls: dict[int, Counter] = {SETUP_OP: self.calls}

    def begin_op(self, op: int) -> None:
        self.op = op
        self.calls = self.op_calls.setdefault(op, Counter())

    def open(self, name: str, field=None, value=None) -> Span:
        span = Span()
        span.id = len(self.spans)
        span.name = name
        span.parent = self._stack[-1].id if self._stack else None
        span.op = self.op
        span.value = value
        span.child_time = 0.0
        span.counts = None
        span.counter = field.counter if field is not None else None
        span.snap = span.counter.snapshot() if span.counter is not None else None
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span, ok: bool = True) -> None:
        span.end = perf_counter()
        self._stack.pop()
        span.ok = ok
        if span.counter is not None:
            span.counts = [a - b for a, b in
                           zip(span.counter.snapshot(), span.snap)]
        span.counter = span.snap = None
        if self._stack:
            self._stack[-1].child_time += span.duration

    @contextmanager
    def span(self, name: str, field=None):
        s = self.open(name, field)
        ok = False
        try:
            yield s
            ok = True
        finally:
            self.close(s, ok)

    def wrap(self, fn, name, field_of=None, value_of=None, keep_result=False):
        """Wrapper around `fn` that records one span per call.  `name`
        is a string or a function of the call's arguments."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            field = field_of(*args, **kwargs) if field_of else None
            value = value_of(*args, **kwargs) if value_of else None
            span = tracer.open(label, field, value)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.close(span, ok)
            if keep_result:
                span.value = result
            return result
        return traced

    def tally(self, fn, name):
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.spans]


def _setup_wrapper(tracer: Tracer, fn):
    """`sidh.setup` builds its own field, whose fresh counter starts at
    zero, so the span's counts are that counter's final snapshot."""

    @wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open("sidh.setup")
        ok = False
        try:
            params = fn(*args, **kwargs)
            ok = True
        finally:
            tracer.close(span, ok)
        span.counts = list(params.field.counter.snapshot())
        return params
    return traced


def install(tracer: Tracer, lib) -> ExitStack:
    """Patch the library's lookup points with tracing wrappers; closing
    the returned stack restores every original."""
    sidh, supersingular = lib.sidh, lib.supersingular
    curve_cls, isogeny_cls = lib.EdwardsCurve, lib.OddIsogeny
    stack = ExitStack()

    def patch(target, attr, wrapper):
        stack.enter_context(mock.patch.object(target, attr, wrapper))

    chain_cls = sidh.IsogenyChain

    class TracedChain(chain_cls):
        def __init__(self, domain, *args, **kwargs):
            with tracer.span("isogeny.chain", domain.field):
                super().__init__(domain, *args, **kwargs)

        def __call__(self, P):
            with tracer.span("isogeny.chain_push", self.domain.field):
                return super().__call__(P)

    patch(sidh, "setup", _setup_wrapper(tracer, sidh.setup))
    patch(sidh, "keygen", tracer.wrap(
        sidh.keygen, lambda params, side, *a, **k: f"sidh.keygen.{side}",
        field_of=lambda params, *a, **k: params.field))
    patch(sidh, "derive_shared", tracer.wrap(
        sidh.derive_shared,
        lambda params, keypair, *a, **k: f"sidh.derive.{keypair.side}",
        field_of=lambda params, *a, **k: params.field))
    patch(sidh, "IsogenyChain", TracedChain)
    patch(sidh, "recover_y", tracer.wrap(
        sidh.recover_y, "isogeny.recover_y",
        field_of=lambda x, curve, *a, **k: curve.field))

    patch(curve_cls, "scalar_mul", tracer.wrap(
        curve_cls.scalar_mul, "curve.scalar_mul",
        field_of=lambda self, *a, **k: self.field,
        value_of=lambda self, k, P: abs(k).bit_length()))
    patch(curve_cls, "double", tracer.tally(curve_cls.double, "curve.double"))
    patch(curve_cls, "add", tracer.tally(curve_cls.add, "curve.add"))
    patch(isogeny_cls, "__init__", tracer.wrap(
        isogeny_cls.__init__, "isogeny.step",
        field_of=lambda self, kernel: kernel.domain.field))
    patch(isogeny_cls, "__call__", tracer.wrap(
        isogeny_cls.__call__, "isogeny.eval",
        field_of=lambda self, *a, **k: self.domain.field))

    patch(supersingular, "is_probable_prime", tracer.wrap(
        supersingular.is_probable_prime, "field.mr", keep_result=True))
    patch(supersingular, "verify_reference_row", tracer.wrap(
        supersingular.verify_reference_row, "supersingular.verify_row"))

    def kernel_field(K, *a, **k):
        return K.X.field

    def point_field(P, K, *a, **k):
        return P.X.field

    for attr, label, field_of in (("get_3_isog", "xonly.get3", kernel_field),
                                  ("eval_3_isog", "xonly.eval3", point_field),
                                  ("get_5_isog", "xonly.get5", kernel_field),
                                  ("eval_5_isog", "xonly.eval5", point_field)):
        patch(lib, attr, tracer.wrap(getattr(lib, attr), label,
                                     field_of=field_of))
    return stack
