"""Benchmark of the invstab command line, run in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of search-ext, search-prime, certify, verify, or ``all`` to run
each in turn.  The package is imported from the checkout's ``src``; without
it the benchmark exits with code 2 and prints no result.

A run first times set-up (``import invstab.cli`` into a fresh module table
plus ``finite_field`` for each of the workload's fields) SETUP_REPS times.
It then runs passes over the workload's command list, each command being
one ``invstab.cli.main(argv)`` call, until the next pass would end after S
seconds.  Before every command the package's process-global caches
(``fields._extension_cache`` and the ``prime_field`` cache) are emptied, so
each command pays for its field contexts as one CLI process does.  Every
output is checked (see workloads.py).

With ``--trace 0`` the last line reports the end-to-end metrics:

* wall_s       median over passes of the command list's wall time
* seeds_per_s  xi decided per pass / wall_s
* setup_s      median set-up time
* peak_rss_mb  peak resident set size of the process

Times are scaled to a nominal machine speed measured while each call runs
(see speed.py); the ``#`` lines also give them unscaled.

With ``--trace 1`` one untraced pass is followed by at least two traced
passes (see tracer.py), and the last line reports the per-layer metrics:
medians over the traced passes.  The run fails if a traced function is still
reachable unwrapped, if traced stdout differs from untraced stdout, or if a
count differs between traced passes.  The spans of the last traced pass are
written to ``.perfbench/spans-NAME.json.gz``.

The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import speed
import workloads as wl
from tracer import LAYERS, CoverageError, Tracer

SETUP_REPS = 9
MIN_TRACED_PASSES = 2
OUT_DIR = wl.SRC.parent / '.perfbench'

END_TO_END_UNITS = {
    'wall_s': 's', 'seeds_per_s': '1/s', 'setup_s': 's', 'peak_rss_mb': 'MB',
}

#: per-layer metrics that must repeat exactly between traced passes
EXACT = ('criterion.state_steps', 'criterion.table_rows',
         'polys.is_irreducible.deg_sum', 'polys.is_irreducible.deg_max',
         'xcheck.criterion_vs_direct.pairs', 'cli.stdout_bytes')


def _log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# set-up and passes

def _fresh_setup(fields):
    """Import invstab.cli into an empty module table and build the fields.

    Returns (measured, scaled) seconds.
    """
    for name in [n for n in sys.modules
                 if n == 'invstab' or n.startswith('invstab.')]:
        del sys.modules[name]

    def setup():
        importlib.import_module('invstab.cli')
        finite_field = sys.modules['invstab.fields'].finite_field
        for f in fields:
            modulus = (None if f.modulus is None
                       else [int(c) for c in f.modulus.split(',')])
            finite_field(f.p, f.e, modulus)

    _, measured, scaled = speed.timed(setup)
    return measured, scaled


def _cache_clearer(fields_module):
    """Empties the package's per-process caches; bound before any tracing."""
    extension_cache = fields_module._extension_cache
    prime_field = fields_module.prime_field

    def clear():
        extension_cache.clear()
        prime_field.cache_clear()
    return clear


def _call_cli(cli, argv, out, err):
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except (Exception, SystemExit):
            # a crash fails the command's operations; the run goes on
            err.write(traceback.format_exc())
            return None


def _run_pass(cli, workload, clear_caches):
    """One pass over the command list.

    Returns (measured seconds, scaled seconds, failed ops, stdout texts).
    """
    measured = scaled = 0.0
    failed = 0
    outs = []
    for cmd in workload.commands:
        gc.collect()
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        rc, sec, sec_scaled = speed.timed(
            lambda: _call_cli(cli, cmd.argv, out, err))
        measured += sec
        scaled += sec_scaled
        text = out.getvalue()
        try:
            bad = cmd.check(rc, text)
        except (KeyError, TypeError, ValueError, AttributeError):
            # output of the wrong shape: every operation failed
            err.write(traceback.format_exc())
            bad = cmd.ops
        if bad:
            _log(f'FAIL {" ".join(cmd.argv)}: exit {rc}, {bad}/{cmd.ops} '
                 f'operations wrong\n{err.getvalue()}')
        failed += bad
        outs.append(text)
    return measured, scaled, failed, outs


# ---------------------------------------------------------------------------
# traced passes

class WorkCounts:
    """Work counts read from arguments and results of traced calls."""

    def __init__(self, tracer, fields_module):
        cache = fields_module._extension_cache
        tracer.on_call('polys.is_irreducible', after=self._irreducible)
        tracer.on_call('fields.extension_field',
                       before=lambda args: len(cache),
                       after=lambda token, args, result, error, dur:
                       self._extension(error is None and len(cache) == token))
        tracer.on_call('criterion.decide_inverse_stability',
                       after=self._decide)
        tracer.on_call('xcheck.criterion_vs_direct', after=self._pairs)
        self.reset()

    def reset(self):
        self.deg_sum = self.deg_max = self.extension_hits = 0
        self.state_steps = self.table_rows = self.pairs = 0
        self.decide_ms = []

    def _irreducible(self, token, args, result, error, dur):
        degree = args[0].degree
        self.deg_sum += degree
        self.deg_max = max(self.deg_max, degree)

    def _extension(self, hit):
        self.extension_hits += hit

    def _decide(self, token, args, result, error, dur):
        if error is None:
            self.decide_ms.append(dur * 1e3)
            self.state_steps += result.state_steps
            self.table_rows += len(result.trace_table)

    def _pairs(self, token, args, result, error, dur):
        if error is None:
            self.pairs += sum(len(r.pairs) for r in result)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer, counts, outs) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    st = tracer.stats

    def calls(name):
        return st[name].calls, 'count'

    def incl(name):
        return st[name].total, 's'

    decide = 'criterion.decide_inverse_stability'
    rows_computed = tracer.edges.get((decide, 'fields.abs_trace'), 0)
    ms = sorted(counts.decide_ms)
    p99 = (statistics.quantiles(ms, n=100)[98] if len(ms) > 1
           else (ms[0] if ms else 0.0))
    minpoly = st['xcheck.minpoly_trace_check']
    m = {
        'fields.abs_trace.calls': calls('fields.abs_trace'),
        'fields.abs_trace.s': incl('fields.abs_trace'),
        'fields.elem_div.calls': (tracer.counters['fields.elem_div'][0],
                                  'count'),
        'fields.elem_mul.calls': (tracer.counters['fields.elem_mul'][0],
                                  'count'),
        'fields.elem_pow.calls': (tracer.counters['fields.elem_pow'][0],
                                  'count'),
        'fields.rel_trace.calls': calls('fields.rel_trace'),
        'fields.rel_trace.s': incl('fields.rel_trace'),
        'fields.extension_field.calls': calls('fields.extension_field'),
        'fields.extension_field.s': incl('fields.extension_field'),
        'fields.extension_field.hit_ratio': (
            _ratio(counts.extension_hits, st['fields.extension_field'].calls),
            'ratio'),
        'fields.finite_field.s': incl('fields.finite_field'),
        'polys.is_irreducible.calls': calls('polys.is_irreducible'),
        'polys.is_irreducible.s': incl('polys.is_irreducible'),
        'polys.is_irreducible.deg_sum': (counts.deg_sum, 'count'),
        'polys.is_irreducible.deg_max': (counts.deg_max, 'count'),
        'polys.gcd.calls': calls('polys.gcd'),
        'polys.gcd.s': incl('polys.gcd'),
        'polys.find_irreducible.s': incl('polys.find_irreducible'),
        'iteration.iterate_step.calls': calls('iteration.iterate_step'),
        'iteration.iterate_step.self_s': (
            st['iteration.iterate_step'].self_time, 's'),
        'iteration.denominator.s': incl('iteration.denominator'),
        'criterion.decide.calls': calls(decide),
        'criterion.decide.self_s': (st[decide].self_time, 's'),
        'criterion.decide.p50_ms': (statistics.median(ms) if ms else 0.0,
                                    'ms'),
        'criterion.decide.p99_ms': (p99, 'ms'),
        'criterion.state_steps': (counts.state_steps, 'count'),
        'criterion.table_rows': (counts.table_rows, 'count'),
        'criterion.kept_row_ratio': (_ratio(counts.table_rows, rows_computed),
                                     'ratio'),
        'criterion.trace_rows.calls': calls('criterion.trace_rows'),
        'criterion.trace_rows.s': incl('criterion.trace_rows'),
        'xcheck.criterion_vs_direct.s': incl('xcheck.criterion_vs_direct'),
        'xcheck.criterion_vs_direct.pairs': (counts.pairs, 'count'),
        'xcheck.irreducibility_trace_sweep.s': incl(
            'xcheck.irreducibility_trace_sweep'),
        'xcheck.rel_trace_oracle.calls': calls('xcheck.rel_trace_oracle'),
        'xcheck.rel_trace_oracle.s': incl('xcheck.rel_trace_oracle'),
        'xcheck.minpoly_trace_check.calls': calls(
            'xcheck.minpoly_trace_check'),
        'xcheck.minpoly_trace_check.s': incl('xcheck.minpoly_trace_check'),
        'xcheck.minpoly_trace_check.useful_ratio': (
            _ratio(minpoly.calls - minpoly.raised, minpoly.calls), 'ratio'),
        'cli.main.calls': calls('cli.main'),
        'cli.main.self_s': (st['cli.main'].self_time, 's'),
        'cli.stdout_bytes': (sum(len(t.encode()) for t in outs), 'bytes'),
    }
    for layer in LAYERS:
        m[f'{layer}.self_s'] = (tracer.layer_self(layer), 's')
    return m


def _is_exact(name) -> bool:
    return name.endswith('.calls') or name in EXACT


# ---------------------------------------------------------------------------
# one workload

def run_workload(name, seed, seconds, trace) -> dict:
    workload = wl.build(name, seed, wl.load_goldens())
    setup = [_fresh_setup(workload.fields) for _ in range(SETUP_REPS)]
    cli = sys.modules['invstab.cli']
    fields_module = sys.modules['invstab.fields']
    if not os.path.realpath(cli.__file__).startswith(
            os.path.realpath(wl.SRC)):
        raise RuntimeError(f'invstab imported from {cli.__file__}')
    clear = _cache_clearer(fields_module)
    problems = []
    attempted = failed = 0
    start = time.perf_counter()

    def one_pass():
        nonlocal attempted, failed
        measured, scaled, bad, outs = _run_pass(cli, workload, clear)
        attempted += workload.ops
        failed += bad
        return measured, scaled, outs

    if not trace:
        measured, scaled = [], []
        while True:
            sec, sec_scaled, _ = one_pass()
            measured.append(sec)
            scaled.append(sec_scaled)
            if time.perf_counter() - start + sec > seconds:
                break
        wall = statistics.median(scaled)
        values = {
            'wall_s': wall,
            'seeds_per_s': workload.seeds / wall,
            'setup_s': statistics.median(s for _, s in setup),
            'peak_rss_mb':
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        detail = (f'passes={len(measured)} unscaled: '
                  f'wall_s={statistics.median(measured):.4g} '
                  f'setup_s={statistics.median(m for m, _ in setup):.4g}')
    else:
        _, untraced, reference = one_pass()
        tracer = Tracer()
        counts = WorkCounts(tracer, fields_module)
        try:
            tracer.install()
        except CoverageError as exc:
            problems.append(str(exc))
        per_pass, traced = [], []
        while True:
            tracer.reset()
            counts.reset()
            sec, sec_scaled, outs = one_pass()
            if outs != reference:
                problems.append('traced stdout differs from untraced stdout')
            traced.append(sec_scaled)
            per_pass.append(_layer_metrics(tracer, counts, outs))
            if (len(per_pass) >= MIN_TRACED_PASSES
                    and time.perf_counter() - start + sec > seconds):
                break
        metrics = {}
        for key, (_, unit) in per_pass[0].items():
            vals = [m[key][0] for m in per_pass]
            if _is_exact(key):
                if len(set(vals)) != 1:
                    problems.append(
                        f'{key} differs between traced passes: {vals}')
                metrics[key] = (vals[0], unit)
            else:
                metrics[key] = (statistics.median(vals), unit)
        metrics['trace.overhead_ratio'] = (
            statistics.median(traced) / untraced, 'ratio')
        path = OUT_DIR / f'spans-{name}.json.gz'
        count = tracer.write_spans(path, {'workload': name, 'seed': seed})
        detail = (f'traced_passes={len(per_pass)} spans={count} '
                  f'written to {path.relative_to(wl.SRC.parent)}')
    for problem in problems:
        _log(f'FAIL {name}: {problem}')
    return {
        'correct': failed == 0 and not problems and attempted > 0,
        'attempted': attempted,
        'failed': failed,
        'metrics': {k: {'value': v, 'unit': u}
                    for k, (v, u) in metrics.items()},
        'detail': detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True,
                        choices=wl.NAMES + ('all',))
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl.use_checkout_source()
    except FileNotFoundError as exc:
        _log(f'error: {exc}')
        return 2
    names = wl.NAMES if args.workload == 'all' else (args.workload,)
    all_correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        detail = result.pop('detail')
        fail_frac = result['failed'] / max(result['attempted'], 1)
        print(f'# {name} seed={args.seed} trace={args.trace} {detail} '
              f'python={platform.python_version()} nproc={os.cpu_count()}')
        for key, m in result['metrics'].items():
            print(f'#   {key} = {m["value"]:.6g} {m["unit"]}')
        print(f'#   fail_frac = {fail_frac:g} '
              f'({result["failed"]}/{result["attempted"]} operations)')
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result['correct']
    return 0 if all_correct else 1


if __name__ == '__main__':
    sys.exit(main())
