"""Tracing of invstab's public functions, installed from outside the package.

Every public function defined in a layer module (``fields``, ``polys``,
``iteration``, ``criterion``, ``xcheck``, ``cli``) is wrapped, and the
wrapper replaces the original at every module that binds it: the modules
import each other's functions by name, so patching only the defining module
would miss calls such as ``cli.decide_inverse_stability``.  The
``FieldElement`` operators ``*``, ``/`` and ``**`` are counted, not timed.

Per function the tracer keeps calls, inclusive time and self time (inclusive
minus the time of traced callees).  A span (id, parent id, name, start, end)
is kept in memory for each call that crosses a layer boundary, that is whose
caller is in another layer or is the benchmark itself; calls inside one layer
add to their span without making their own.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ('fields', 'polys', 'iteration', 'criterion', 'xcheck', 'cli')

#: FieldElement operator -> counter name
OPERATORS = {
    '__mul__': 'fields.elem_mul', '__rmul__': 'fields.elem_mul',
    '__truediv__': 'fields.elem_div', '__rtruediv__': 'fields.elem_div',
    '__pow__': 'fields.elem_pow',
}


class CoverageError(RuntimeError):
    """A traced function is still reachable unwrapped at a binding site."""


class Stat:
    __slots__ = ('calls', 'total', 'self_time', 'raised')

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0


def _targets(module, layer):
    """Public functions defined in ``module``, as {'layer.name': function}."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith('_') or inspect.isclass(obj):
            continue
        if (inspect.isfunction(inspect.unwrap(obj))
                and getattr(obj, '__module__', None) == module.__name__):
            out[f'{layer}.{name}'] = obj
    return out


def _binding_sites():
    """Every loaded invstab module: the package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if name == 'invstab' or name.startswith('invstab.')]


class Tracer:
    """Wraps the loaded invstab package; :meth:`reset` starts a new pass."""

    def __init__(self):
        self.stats = {}
        self.counters = {}
        self._originals = {}   # id(original) -> (name, original, wrapper)
        self._names = []
        self._stack = []
        self._root = [0.0, 'bench', -1, 'bench']
        self._before = {}
        self._after = {}
        self.reset()

    # -- per-pass state -------------------------------------------------------

    def reset(self) -> None:
        for st in self.stats.values():
            st.__init__()
        for cell in self.counters.values():
            cell[0] = 0
        self._root[0] = 0.0
        self.edges = {}
        self.spans = array('d')
        self._next_sid = 0
        self._stack.clear()
        self.origin = time.perf_counter()

    def on_call(self, name, before=None, after=None) -> None:
        """Observe calls of ``name``: ``before(args)`` returns a token that
        ``after(token, args, result, error, seconds)`` receives."""
        if before is not None:
            self._before[name] = before
        if after is not None:
            self._after[name] = after

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site, then check coverage."""
        modules = {m.__name__.rpartition('.')[2]: m for m in _binding_sites()}
        for layer in LAYERS:
            for name, fn in _targets(modules[layer], layer).items():
                wrapper = self._wrap(name, layer, fn)
                self._originals[id(fn)] = (name, fn, wrapper)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, hit[2])
        element = modules['fields'].FieldElement
        for attr, name in OPERATORS.items():
            fn = vars(element)[attr]
            cell = self.counters.setdefault(name, [0])
            wrapper = _counting(fn, cell)
            self._originals[id(fn)] = (name, fn, wrapper)
            setattr(element, attr, wrapper)
        missed = self.unwrapped()
        if missed:
            raise CoverageError('unwrapped at binding sites: '
                                + ', '.join(missed))

    def unwrapped(self) -> list:
        """Binding sites that still hold an original traced function."""
        missed = []
        for module in _binding_sites():
            places = [(module.__name__, vars(module))]
            element = vars(module).get('FieldElement')
            if inspect.isclass(element):
                places.append((f'{module.__name__}.FieldElement',
                               vars(element)))
            for where, namespace in places:
                for attr, value in namespace.items():
                    hit = self._originals.get(id(value))
                    if hit is not None and hit[1] is value:
                        missed.append(f'{where}.{attr}')
        return sorted(set(missed))

    def _wrap(self, name, layer, fn):
        stat = self.stats[name] = Stat()
        name_id = len(self._names)
        self._names.append(name)
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else tracer._root
            boundary = parent[1] != layer
            if boundary:
                sid = tracer._next_sid
                tracer._next_sid = sid + 1
            else:
                sid = parent[2]
            edge = (parent[3], name)
            tracer.edges[edge] = tracer.edges.get(edge, 0) + 1
            before = tracer._before.get(name)
            token = before(args) if before is not None else None
            frame = [0.0, layer, sid, name]
            stack.append(frame)
            error = result = None
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
                dur = t1 - t0
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                parent[0] += dur
                if error is not None:
                    stat.raised += 1
                if boundary:
                    tracer.spans.extend((sid, parent[2], name_id,
                                         t0 - tracer.origin,
                                         t1 - tracer.origin))
                after = tracer._after.get(name)
                if after is not None:
                    after(token, args, result, error, dur)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, '__name__', name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- results --------------------------------------------------------------

    def layer_self(self, layer) -> float:
        return sum(st.self_time for name, st in self.stats.items()
                   if name.startswith(layer + '.'))

    def write_spans(self, path, meta: dict) -> int:
        """Write this pass's spans as gzipped JSON; returns their count."""
        s = self.spans
        rows = [[int(s[i]), int(s[i + 1]), int(s[i + 2]), s[i + 3], s[i + 4]]
                for i in range(0, len(s), 5)]
        doc = dict(meta, names=self._names,
                   columns=['id', 'parent', 'name', 'start_s', 'end_s'],
                   spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, 'wt', encoding='utf-8', compresslevel=1) as fh:
            json.dump(doc, fh, separators=(',', ':'))
        return len(rows)


def _counting(fn, cell):
    def counted(self, other):
        cell[0] += 1
        return fn(self, other)

    counted.__wrapped__ = fn
    counted.__name__ = fn.__name__
    return counted
