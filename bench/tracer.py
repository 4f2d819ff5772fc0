"""In-memory span recorder for the benchmark's traced run.

The recorder wraps callables of the program from the outside: it replaces
a module attribute or a class method with a wrapper that records one span
per call (id, parent id, layer name, start, end) and, optionally, a few
counts read from the call's arguments or result.  Nothing under ``src/``
knows about it; :meth:`Tracer.uninstall` puts every original back.

Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover,
so children running in worker threads (the probe's pool) are counted
once even when they overlap.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

TRACED_MARK = "__bench_traced__"


class Tracer:
    """Records spans around wrapped callables; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        # (span_id, parent_id, name_id, start, end); parent 0 means a root span
        self.spans = []
        # span_id -> {count: value} read from the call by an ``observe`` hook
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        A call made while a span of the same name is the innermost open one
        (a layer calling itself, such as a piecewise function dispatching to
        its closed-form pieces) folds into that span.  ``observe(args,
        kwargs, result, error)`` may return a dict of counts for the span.
        """
        nid = self.name_id(name)
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            if stack:
                parent = stack[-1][0]
            else:
                # a worker thread's first span hangs under whatever the
                # installing thread has open: the call that started the pool
                home = self._home_stack
                parent = home[-1][0] if home else 0
            stack.append((sid, nid))
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, nid, t0, t1))
                if observe is not None:
                    self.counts[sid] = observe(args, kwargs, result, error)

        setattr(traced, TRACED_MARK, True)
        return traced

    def span(self, name):
        """Context manager recording a span around a block of the benchmark."""
        return _BlockSpan(self, self.name_id(name))

    # -- installing wrappers -------------------------------------------------

    def patch_function(self, module, attr, name, modules, observe=None):
        """Wrap ``module.attr`` and every other binding of the same function
        object in ``modules`` (the copies ``from x import f`` makes)."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return wrapper

    def patch_method(self, cls, attr, name, observe=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, observe))

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """span_id -> self time (duration minus the union of child intervals)."""
        return self_times(self.spans)

    def reset(self):
        """Drop recorded spans and counts, keeping the installed wrappers."""
        self.spans.clear()
        self.counts.clear()


class _BlockSpan:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1][0] if stack else 0
        stack.append((self.sid, self.nid))
        self.t0 = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        t1 = self.tracer.clock()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.parent, self.nid, self.t0, t1))
        return False


def self_times(spans):
    """Self time per span id from (span_id, parent_id, name_id, start, end).

    The covered part of a parent's interval is the union of its direct
    children's intervals clipped to the parent, so overlapping children
    (threads) are not subtracted twice.
    """
    bounds = {sid: (t0, t1) for sid, _, _, t0, t1 in spans}
    children = {}
    for sid, parent, _, t0, t1 in spans:
        if parent in bounds:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, (t0, t1) in bounds.items():
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


def traced_leftovers(modules, classes):
    """Attributes of the given modules and classes that are still wrappers."""
    left = []
    for owner in list(modules) + list(classes):
        for key, value in vars(owner).items():
            if getattr(value, TRACED_MARK, False):
                left.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return left
