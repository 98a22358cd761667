"""Run one cheblab CLI invocation with spans around the package's layers.

    python3 bench/traced.py OUT.json PASS_ID -- ARGV...

The package is traced from outside: after import, its public functions are
replaced by wrappers through module attributes, which is how the package
calls across modules (`sieve.prime_chunks`, `dihedral.pi_D_dihedral`, ...).
Then `cheblab.cli.main(ARGV)` runs with stdout captured.  Spans are kept in
memory and written to OUT.json with the exit code and the captured stdout
when the invocation ends.

A span records its name, start, end, parent span, thread and pass id, and
the CPU time its thread spent inside it.  The `prime_chunks` generator gets
one span whose `parts` are the intervals spent inside the generator, so
the consumer's own loop is not counted as sieving, and whose `sizes` are
the lengths of the chunks it yielded.
`is_totally_split` is deliberately not wrapped: it runs once per prime, and
a per-call wrapper would dominate the cost it measures.  Split tests are
counted from chunk sizes instead.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import sys
import threading
from time import perf_counter, thread_time


class Tracer:
    """In-memory span recorder; each thread keeps its own stack of open spans."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new(self, name: str, parent: int | None = None, **attrs) -> dict:
        """Record a span that starts now; its parent defaults to this thread's top."""
        stack = self.stack()
        if parent is None and stack:
            parent = stack[-1]["id"]
        span = {"id": next(self._ids), "name": name, "parent": parent,
                "thread": threading.current_thread().name,
                "pass": self.pass_id, "start": perf_counter(), "end": None,
                **attrs}
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        span = self.new(name, parent, **attrs)
        span["cpu"] = -thread_time()    # CPU time of this thread inside the span
        stack = self.stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span["end"] = perf_counter()
            span["cpu"] += thread_time()


def wrap(tracer: Tracer, module, name: str, attrs=None, on_result=None) -> None:
    """Replace module.name by a wrapper that records one span per call."""
    fn = getattr(module, name)
    label = f"{module.__name__.rpartition('.')[2]}.{name}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = attrs(*args, **kwargs) if attrs else {}
        with tracer.span(label, **extra) as span:
            result = fn(*args, **kwargs)
        if on_result:
            on_result(span, result)
        return result

    setattr(module, name, wrapper)


def wrap_chunks(tracer: Tracer, sieve) -> None:
    """Trace sieve.prime_chunks, timing only the work inside the generator."""
    fn = sieve.prime_chunks

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        span = tracer.new("sieve.prime_chunks", parts=[], sizes=[])
        stack = tracer.stack()
        chunk = None
        try:
            while True:
                stack.append(span)      # sieve_range calls made by next() are children
                t0 = perf_counter()
                try:
                    chunk = next(inner)
                except StopIteration:
                    chunk = None
                    return
                finally:
                    span["parts"].append((t0, perf_counter()))
                    stack.pop()
                span["sizes"].append(len(chunk))
                yield chunk
        finally:
            span["end"] = perf_counter()
            if chunk is not None:
                span["_last"] = chunk   # closed early: the consumer stopped here
            inner.close()

    sieve.prime_chunks = wrapper


def count_tested(tracer: Tracer, span: dict, p: int) -> None:
    """For min_split_prime: primes tested are those yielded up to and including p."""
    for child in tracer.spans:
        if child["parent"] == span["id"] and "_last" in child:
            last = child.pop("_last")
            child["tested"] = sum(child["sizes"][:-1]) + int((last <= p).sum())


def wrap_map(tracer: Tracer, cli) -> None:
    """Trace cli._map_ordered; each mapped item is a span parented on the map,
    also when it runs on a worker thread."""
    fn = cli._map_ordered

    @functools.wraps(fn)
    def wrapper(item_fn, keys, workers):
        with tracer.span("cli._map_ordered", workers=workers) as map_span:
            def traced_item(key):
                with tracer.span("cli.map_item", parent=map_span["id"]):
                    return item_fn(key)
            return fn(traced_item, keys, workers)

    cli._map_ordered = wrapper


def install(tracer: Tracer) -> None:
    from cheblab import analytic, bounds, cli, cyclotomic, dihedral, sieve

    wrap(tracer, sieve, "sieve_range",
         attrs=lambda lo, hi, *a, **k: {"lo": lo, "hi": hi})
    wrap_chunks(tracer, sieve)
    wrap(tracer, dihedral, "pi_D_dihedral")
    wrap(tracer, dihedral, "min_split_prime",
         on_result=lambda span, p: count_tested(tracer, span, p))
    wrap(tracer, cyclotomic, "build_D")
    wrap(tracer, cyclotomic, "pi_D_cyclotomic")
    wrap(tracer, analytic, "li")
    wrap(tracer, bounds, "falsification_scan")
    wrap(tracer, bounds, "serre_fit")
    wrap(tracer, cli, "dihedral_sample", attrs=lambda r: {"r": r})
    wrap(tracer, cli, "cyclotomic_sample", attrs=lambda r, alpha: {"r": r})
    wrap_map(tracer, cli)
    wrap(tracer, cli, "main")


def main() -> int:
    out_path, pass_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py OUT.json PASS_ID -- ARGV...")
    tracer = Tracer(int(pass_id))
    install(tracer)
    from cheblab import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    spans = [{k: v for k, v in s.items() if not k.startswith("_")}
             for s in tracer.spans]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "stdout": captured.getvalue(),
                   "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
