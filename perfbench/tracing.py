"""Spans around each layer's public calls, recorded from outside ``src/``.

:func:`traced_layers` swaps the names the campaign pipeline calls
through for timing wrappers and restores them on exit.  Nothing in the
program changes: the wrappers call the originals with the same
arguments, which the benchmark proves by checking that traced and
untraced runs produce the same digests.

A span is ``(name, start, end, parent)`` plus the process high-water
RSS at both ends; spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import time


def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "rss_start_mb": peak_rss_mb(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["rss_end_mb"] = peak_rss_mb()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class NullTracer(Tracer):
    """The untraced run: same call sites, no recording."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn


def _patch(stack: contextlib.ExitStack, owner, attr: str, value) -> None:
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    stack.callback(setattr, owner, attr, original)


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Wrap every layer's public entry points for the duration of the block.

    Each name is patched where the pipeline looks it up at call time, so
    the wrapped call is the one the campaign really makes.
    """
    import repro.exec.context as context_mod
    import repro.exec.worker as worker_mod
    import repro.experiments.campaign as campaign_mod
    import repro.streaming.engine as engine_mod
    import repro.streaming.soa as soa_mod
    from repro.core.framework import AwarenessAnalyzer
    from repro.heuristics.registry import IpRegistry

    get_engine = soa_mod.get_engine

    def traced_get_engine(name=None):
        cls = get_engine(name)

        def construct(*args, **kwargs):
            # Construction builds the directory and the protocol state.
            with tracer.span("streaming.init"):
                engine = cls(*args, **kwargs)
            engine.run = tracer.wrap("streaming.run", engine.run)
            return engine

        return construct

    from_hosts = vars(IpRegistry)["from_hosts"].__func__
    with contextlib.ExitStack() as stack:
        for owner, attr, name in (
            (context_mod, "World", "topology.world"),
            (context_mod, "build_napa_wine_testbed", "topology.testbed"),
            (worker_mod, "shard_context", "exec.context"),
            (campaign_mod, "campaign_context", "exec.context"),
            (campaign_mod, "run_shard", "exec.shard"),
            (campaign_mod, "simulate", "streaming.simulate"),
            (engine_mod, "generate_population", "population.generate"),
            (engine_mod, "generate_sparse_swarm", "population.generate"),
            (campaign_mod, "build_flow_table", "trace.flow_table"),
            (campaign_mod, "load_trace_bundle", "trace.load"),
            (campaign_mod, "save_trace_bundle", "trace.save"),
            (AwarenessAnalyzer, "analyze", "core.analyze"),
        ):
            _patch(stack, owner, attr, tracer.wrap(name, vars(owner)[attr]))
        _patch(stack, soa_mod, "get_engine", traced_get_engine)
        _patch(
            stack,
            IpRegistry,
            "from_hosts",
            classmethod(tracer.wrap("heuristics.registry", from_hosts)),
        )
        yield


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
