"""Timing probes attached to the program from outside.

A :class:`Probe` replaces attributes -- module functions and class
methods -- with wrappers and puts the originals back when it closes, so
the program itself carries no benchmark code.  A :class:`LayerClock`
accumulates wall time per layer: a layer's *self* time is its wrapped
time minus the wrapped calls nested inside it, so the self times of all
layers plus the unwrapped remainder add up to the measured wall time.
"""

from __future__ import annotations

import functools
import time


class LayerClock:
    """Self and inclusive wall seconds per layer name."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        #: Inclusive seconds of each layer's outermost calls only, so a
        #: layer that re-enters itself is not counted twice.
        self.incl_s: dict[str, float] = {}
        self._stack: list[list] = []      # [layer, start, child seconds]

    def timed(self, layer: str, fn, after=None):
        """``fn`` wrapped to charge its wall time to ``layer``.  ``after``
        (optional) is called as ``after(args, kwargs, result)`` after each
        call returns, outside the timed region."""
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = all(frame[0] != layer for frame in clock._stack)
            frame = [layer, time.perf_counter(), 0.0]
            clock._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                clock._stack.pop()
                clock.self_s[layer] = (clock.self_s.get(layer, 0.0)
                                       + elapsed - frame[2])
                if outer:
                    clock.incl_s[layer] = (clock.incl_s.get(layer, 0.0)
                                           + elapsed)
                if clock._stack:
                    clock._stack[-1][2] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class Probe:
    """Attribute patches that are undone on :meth:`close` (or on leaving
    the ``with`` block), in reverse order."""

    _MISSING = object()

    def __init__(self):
        self._saved: list[tuple] = []

    def patch(self, owner, name: str, make):
        """Replace ``owner.name`` with ``make(original)``.  For a class,
        the original is read from the class's own ``__dict__`` so an
        inherited method is restored by deleting the override."""
        if isinstance(owner, type):
            own = vars(owner).get(name, self._MISSING)
            original = getattr(owner, name)
        else:
            own = original = getattr(owner, name)
        self._saved.append((owner, name, own))
        setattr(owner, name, make(original))

    def close(self) -> None:
        while self._saved:
            owner, name, own = self._saved.pop()
            if own is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
