"""Command-line front end.

Five subcommands, all pure functions of their flags (fixed seeds, no
timestamps), so output is reproducible byte for byte:

* ``check``     decide inverse stability for one xi (exit 0 stable,
                3 unstable)
* ``search``    decide for every xi in the field, one row each
* ``generate``  emit the denominator D_n, a certified irreducible of
                degree p^n when the seed is stable
* ``verify``    run the brute-force oracle suites (exit 1 on any
                disagreement)
* ``trace-table``  print the criterion table rows (n, a_n, c_n, d_n,
                a_n/c_n, trace), up to the first c_n = 0 when Tr(xi) = 0

Fields are selected with --p/--e and an optional --modulus (comma-separated
integer coefficients, constant first); without a modulus the deterministic
smallest irreducible is used.  Elements use the same comma encoding
(--xi 0,1 is the residue of X; a bare integer works in any field).  Output
goes to stdout or --out, as text, json (top-level "schema": 1) or csv.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import random
import sys

from .criterion import (
    STABLE,
    TraceRow,
    _decide_v,
    decide_inverse_stability,
    trace_rows,
)
from .errors import InvstabError, NotGenerating, TableTooLarge
from .fields import (
    FieldElement,
    abs_trace,
    element_from_text,
    element_texts,
    element_to_text,
    finite_field,
)
from .iteration import DEFAULT_DEGREE_CAP, denominator
from .polys import is_irreducible, poly_to_text
from .xcheck import (
    EquivalenceReport,
    criterion_vs_direct,
    irreducibility_trace_sweep,
    minpoly_trace_check,
    rel_trace_oracle,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

SCHEMA_VERSION = 1

#: check prints its trace table in text and json only up to this many rows,
#: which covers every pinned output (GF(127^2) 5,109 has 24,202 rows and
#: F_2003 xi = 3 has 60,061); csv prints no table
MAX_TABLE_ROWS = 100_000

#: exhaustive verify suites keep deg D_n = p^n at or below this
SWEEP_DEGREE_LIMIT = 256

_SUITES = ('criterion', 'irreducibility', 'traces', 'minpoly', 'all')

#: the traces suite's count of seeded Moebius tuples, and its seed
_TRACE_TUPLES, _TRACE_SEED = 500, 20240815
#: the minpoly suite samples this many elements of a field of more than
#: 512, from this seed
_MINPOLY_SAMPLES, _MINPOLY_SEED = 100, 917


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--p', type=int, required=True,
                        help='field characteristic (prime)')
    common.add_argument('--e', type=int, default=1,
                        help='extension degree over the prime field')
    common.add_argument('--modulus',
                        help='extension modulus: comma ints, constant first')
    common.add_argument('--format', choices=('text', 'json', 'csv'),
                        default='text', help='output format')
    common.add_argument('--out', help='write output to this path')
    common.add_argument('--quiet', action='store_true',
                        help='data rows only, no headers or summaries')

    parser = argparse.ArgumentParser(
        prog='invstab',
        description='inverse stability of X^p - X + xi over finite fields')
    sub = parser.add_subparsers(dest='command', required=True)

    def add(name, summary):
        return sub.add_parser(name, help=summary, parents=[common])

    sp = add('check', 'decide stability for one xi')
    sp.add_argument('--xi', required=True, help='element text encoding')

    add('search', 'decide stability for every xi')

    cap = {'type': int, 'default': DEFAULT_DEGREE_CAP,
           'help': 'bound on deg D_n = p^n'}

    sp = add('generate', 'emit the denominator iterate D_n')
    sp.add_argument('--cap', **cap)
    sp.add_argument('--xi', required=True, help='element text encoding')
    sp.add_argument('--n', type=int, required=True, help='iterate index')
    sp.add_argument('--verify', action='store_true', dest='rabin_verify',
                    help='double-check irreducibility with Rabin')

    sp = add('verify', 'run oracle cross-check suites')
    sp.add_argument('--cap', **cap)
    sp.add_argument('--suite', choices=_SUITES, default='all')
    sp.add_argument('--nmax', type=int,
                    help='iterate range for the criterion suite '
                         '(default: largest n with p^n <= 256)')

    sp = add('trace-table', 'print criterion table rows')
    sp.add_argument('--xi', required=True, help='element text encoding')
    sp.add_argument('--nmax', type=int, required=True)

    return parser


#: built once per process: each add_argument formats a usage check, so a
#: build costs far more than a parse (argparse keeps no state between parses)
_PARSER = _build_parser()


def _make_ctx(args):
    modulus = None
    if args.modulus is not None:
        modulus = [int(s) for s in args.modulus.split(',')]
    return finite_field(args.p, args.e, modulus)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, 'w', encoding='utf-8') as fh:
                fh.write(text)
        except OSError as exc:
            # a bad --out is a usage error (exit 2), not exit 1, which
            # means an oracle disagreed
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _render(args, payload, header, rows, text=None) -> None:
    """Write a command's result in the --format asked for.

    json is the dict ``payload()`` after the schema and command keys; csv is
    ``header`` and ``rows``.  text is ``text()`` when given, and otherwise
    the aligned table of ``header`` and ``rows`` (rows only under --quiet).
    ``payload`` and ``text`` are only called, and ``rows`` only iterated,
    for their own formats, so a command can leave out of them (or pass
    ``rows`` as a generator) what the other formats do not print.  A
    payload may hold a list of rows as :class:`_Columns`, which json
    renders as the list of dicts it stands for.
    This is the one place that reads --format.
    """
    if args.format == 'json':
        out = _json_text({'schema': SCHEMA_VERSION, 'command': args.command,
                          **payload()}) + '\n'
    elif args.format == 'csv':
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator='\n')
        writer.writerow(header)
        writer.writerows(rows)
        out = buf.getvalue()
    elif text is not None:
        out = text()
    else:
        out = _table_text(header, rows, args.quiet)
    _emit(args, out)


class _Columns:
    """A list of rows of one shape, held column by column.

    It stands for the list ``[dict(zip(keys, row)) for row in
    zip(*columns)]``, or for the rows themselves as lists when ``keys`` is
    None.  ``keys`` and ``columns`` are not empty, the columns have one
    length, and their values are json scalars (str, int, float, bool or
    None).  json renders it without building a dict or list per row.
    """

    __slots__ = ('keys', 'columns')

    def __init__(self, keys, columns):
        self.keys = keys
        self.columns = columns


_CONTAINERS = (dict, list, tuple, _Columns)

#: the C encoder with one value a line: a scalar's text holds no raw
#: newline, as the encoder escapes every control character
_LINES = json.JSONEncoder(separators=(',\n', ': ')).encode


def _members(obj):
    return obj.values() if isinstance(obj, dict) else obj


def _row_values(rows):
    """(keys, width, values) when ``rows`` share one shape: plain dicts
    with the same keys in the same order (``keys`` is that tuple), or plain
    lists and tuples of one length (``keys`` is None), every value a
    scalar.  ``values`` holds every row's values, row after row.  None for
    empty rows, rows of mixed shape and rows that hold a container; a
    subclass is left out too, as it may iterate in another order than the
    encoder reads it."""
    kinds = set(map(type, rows))
    if kinds == {dict}:
        shapes = set(map(tuple, rows))
        values = map(dict.values, rows)
    elif kinds <= {list, tuple}:
        shapes = set(map(len, rows))
        values = rows
    else:
        return None
    shape = shapes.pop()
    if shapes or not shape:
        return None
    values = list(itertools.chain.from_iterable(values))
    if any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        return None
    keys, width = (shape, len(shape)) if kinds == {dict} else (None, shape)
    return keys, width, values


def _json_rows(keys, width, values, level):
    """``json.dumps(rows, indent=2)`` at indent ``level`` for the rows of
    :func:`_row_values`.

    The values are one C encoder call with one value a line, split at its
    line breaks, and the rows are one ``%`` of a template that repeats
    the row, with the keys encoded once (``%`` escaped) at the rows'
    indent.  The split is sound because the encoder escapes every control
    character, so every raw newline in its text comes from a separator.
    """
    if not values:
        return '[]'
    text = _LINES(values)
    outer = '\n' + '  ' * (level + 1)
    inner = ',' + outer + '  '
    if keys is None:
        o, c, heads = '[', ']', [''] * width
    else:
        o, c = '{', '}'
        heads = [k[:-1].replace('%', '%%') for k in
                 _LINES(dict.fromkeys(keys, 0))[1:-1].split(',\n')]
    row = (',' + outer + o + inner[1:] + inner.join(h + '%s' for h in heads)
           + outer + c)
    rows = (row * (len(values) // width))[1:]
    return '[' + rows % tuple(text[1:-1].split(',\n')) + outer[:-2] + ']'


def _json_text(obj, level=0) -> str:
    """``json.dumps(obj, indent=2)`` for ``obj`` at indent ``level``, where
    a :class:`_Columns` stands for the list of rows it holds.  An indent
    sends ``json`` to its pure-Python encoder, so the text is written by
    the C encoder with no indent and then laid out here.

    Every list of rows of one shape (search results, trace tables, verify
    pairs) is rendered by :func:`_json_rows`, from its columns when it
    is ``_Columns`` and otherwise from :func:`_row_values`.  Any other
    container is one C encoder call with 0 in place of each container
    member and an item separator of ',\\n' and the items' indent, split at
    that separator (sound for the reason :func:`_json_rows` gives), and
    each such member's text, from a call at the next level, replaces its 0.
    """
    if isinstance(obj, _Columns):
        return _json_rows(obj.keys, len(obj.columns), list(
            itertools.chain.from_iterable(zip(*obj.columns))), level)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    rows = None if isinstance(obj, dict) else _row_values(obj)
    if rows is not None:
        return _json_rows(*rows, level)
    pad = '\n' + '  ' * level
    sep = ',' + pad + '  '
    members = list(_members(obj))
    nested = [i for i, v in enumerate(members) if isinstance(v, _CONTAINERS)]
    if nested:
        flat = members[:]
        for i in nested:
            flat[i] = 0
        obj = dict(zip(obj, flat)) if isinstance(obj, dict) else flat
    text = json.JSONEncoder(separators=(sep, ': ')).encode(obj)
    if nested:
        items = text[1:-1].split(sep)
        for i in nested:
            items[i] = items[i][:-1] + _json_text(members[i], level + 1)
        text = text[0] + sep.join(items) + text[-1]
    return text[0] + sep[1:] + text[1:-1] + pad + text[-1]


def _table_text(header, rows, quiet: bool) -> str:
    cells = [[str(c) for c in row] for row in rows]
    if not quiet:
        cells.insert(0, [str(c) for c in header])
    if not cells:
        return ''
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(cells[0]))]
    lines = ('  '.join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in cells)
    return '\n'.join(lines) + '\n'


def _opt(value):
    return '' if value is None else value


def _cells(record: dict, keys) -> tuple:
    """The values of ``keys`` in ``record`` as table cells."""
    return tuple(_opt(record[k]) for k in keys)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> int:
    ctx = _make_ctx(args)
    xi = element_from_text(ctx, args.xi)
    verdict = decide_inverse_stability(xi)
    stable = verdict.outcome == STABLE
    header = ('xi', 'outcome', 'witness_n', 'preperiod', 'period',
              'state_steps')
    # the trace table is only printed by json and non-quiet text, so the
    # csv row reads the verdict, not to_dict()
    cells = (element_to_text(xi),) + tuple(
        _opt(getattr(verdict, k)) for k in header[1:])

    def table():
        # refused before its first row is built, as a period can reach
        # millions of rows that a closed form decided in microseconds
        if verdict.table_rows > MAX_TABLE_ROWS:
            raise TableTooLarge(
                f"the trace table has {verdict.table_rows} rows, over the"
                f" budget of {MAX_TABLE_ROWS} that text and json print;"
                f" --format csv prints the verdict without it")
        return verdict.trace_table

    def payload():
        table()
        return verdict.to_dict()

    def text():
        lines = []
        if not args.quiet:
            field = ctx.describe()
            lines.append(f"field: GF({args.p}^{field['e']})"
                         f" modulus={field['modulus'] or '-'}"
                         f" xi={element_to_text(xi)}")
        if stable:
            lines.append(f"stable preperiod={verdict.preperiod}"
                         f" period={verdict.period}")
        else:
            lines.append(f"unstable witness_n={verdict.witness_n}")
        if not args.quiet:
            lines.append('')
            lines.append(_rows_text(map(TraceRow.cells, table()),
                                    quiet=False).rstrip())
        return '\n'.join(lines) + '\n'

    _render(args, payload, header, [cells], text)
    return EXIT_OK if stable else EXIT_UNSTABLE


def _rows_text(cells, quiet: bool) -> str:
    """The aligned trace table of rows given as ``TraceRow.cells()``."""
    return _table_text(('n', 'a', 'c', 'd', 'a/c', 'trace'), cells, quiet)


def _cmd_search(args) -> int:
    """One row per xi, deciding one seed per orbit of xi -> xi^p and
    xi -> -xi.

    Both maps carry the criterion's states of xi onto those of its image
    by an injective map, so the image has the same outcome, witness,
    preperiod and period.  The Frobenius sigma is a field automorphism
    that fixes the recurrence's coefficients, which lie in F_p, so the
    states of sigma(xi) are the sigma(a_n, c_n, d_n), and
    Tr(sigma x) = Tr(x).  For odd p, (-t)^p = -t^p, so from n = 2 on the
    states of -xi are (a_n, -c_n, d_n): t and r change sign with c, and
    Tr(-r) = -Tr(r) vanishes with Tr(r); at n = 1, Tr(-xi) = -Tr(xi).  In
    characteristic 2 negation is the identity.  The group the two maps
    generate has order e, or 2e for odd p, so a seed's orbit is short.

    The output is held as six columns, not a row per seed.  The first seed
    of each orbit in packed order is decided on its packed value by
    ``_decide_v``, and its (outcome, witness_n, preperiod, period) is
    stored at every member of its orbit in ``verdicts``, a list indexed by
    packed value; ``zip(*verdicts)`` is then four columns.  xi comes from
    one generator over the field's texts and Tr(xi) from the packed trace,
    so search builds no verdict object and no dict per row.  json renders
    the columns as the result dicts; csv and text read them row by row.
    """
    ctx = _make_ctx(args)
    header = ('xi', 'trace', 'outcome', 'witness_n', 'preperiod', 'period')
    frobenius, neg = ctx.frobenius_v, ctx.neg_v
    q = ctx.order
    verdicts = [None] * q
    for v in range(q):
        if verdicts[v] is None:
            verdict = _decide_v(ctx, v)
            y = v
            while True:
                verdicts[y] = verdicts[neg(y)] = verdict
                y = frobenius(y)
                if y == v:
                    break
    # a trace lies in F_p, whose element's text is its integer
    columns = [list(element_texts(ctx)),
               list(map(str, map(ctx.trace_v, range(q)))),
               *zip(*verdicts)]
    _render(args, lambda: {'field': ctx.describe(),
                           'results': _Columns(header, columns)},
            header, zip(*(map(_opt, column) for column in columns)))
    return EXIT_OK


def _cmd_generate(args) -> int:
    ctx = _make_ctx(args)
    xi = element_from_text(ctx, args.xi)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    den = denominator(xi, args.n, cap=args.cap).monic()
    verdict = decide_inverse_stability(xi)
    criterion_irr = (verdict.outcome == STABLE
                     or verdict.witness_n > args.n)
    rabin_irr = is_irreducible(den) if args.rabin_verify else None
    poly = poly_to_text(den)
    payload = {
        'field': ctx.describe(), 'xi': element_to_text(xi),
        'n': args.n, 'degree': den.degree,
        'criterion_irreducible': criterion_irr,
        'rabin_irreducible': rabin_irr,
        'poly': poly,
    }
    header = ('xi', 'n', 'degree', 'criterion_irreducible',
              'rabin_irreducible', 'poly')

    def text():
        lines = []
        if not args.quiet:
            lines.append(f"D_{args.n} degree={den.degree}"
                         f" criterion_irreducible={criterion_irr}"
                         + (f" rabin_irreducible={rabin_irr}"
                            if rabin_irr is not None else ''))
        lines.append(poly)
        return '\n'.join(lines) + '\n'

    _render(args, lambda: payload, header, [_cells(payload, header)], text)
    return EXIT_OK


def _default_nmax(p: int) -> int:
    n = 1
    while p ** (n + 1) <= SWEEP_DEGREE_LIMIT:
        n += 1
    return n


def _trace_tuple_suite(ctx) -> EquivalenceReport:
    """Seeded random Moebius tuples, c = 0 included, formula vs direct."""
    rng = random.Random(_TRACE_SEED)
    nonzero_trace = [x for x in ctx.elements() if abs_trace(x).val != 0]
    pairs = []
    for i in range(_TRACE_TUPLES):
        xi = nonzero_trace[rng.randrange(len(nonzero_trace))]
        a = FieldElement(ctx, rng.randrange(ctx.order))
        b = FieldElement(ctx, rng.randrange(ctx.order))
        if i % 10 == 0:
            c = ctx.zero
            d = FieldElement(ctx, rng.randrange(1, ctx.order))
        else:
            while True:
                c = FieldElement(ctx, rng.randrange(ctx.order))
                d = FieldElement(ctx, rng.randrange(ctx.order))
                if c.val or d.val:
                    break
        chk = rel_trace_oracle(a, b, c, d, xi)
        pairs.append((i, element_to_text(chk.formula),
                      element_to_text(chk.direct)))
    return EquivalenceReport.build(
        'mobius_trace_vs_frobenius_sum', ctx.describe(), None, None, pairs)


def _minpoly_suite(ctx) -> EquivalenceReport:
    """Minpoly-coefficient trace vs Frobenius sum over generating elements."""
    prime = ctx.prime_ctx
    pairs = []
    if ctx.order <= 512:
        candidates = range(ctx.order)
    else:
        rng = random.Random(_MINPOLY_SEED)
        candidates = (rng.randrange(ctx.order)
                      for _ in range(_MINPOLY_SAMPLES))
    for v in candidates:
        alpha = FieldElement(ctx, v)
        try:
            chk = minpoly_trace_check(alpha, prime)
        except NotGenerating:
            continue
        pairs.append((element_to_text(alpha),
                      element_to_text(chk.from_minpoly),
                      element_to_text(chk.from_frobenius_sum)))
    return EquivalenceReport.build(
        'minpoly_coeff_vs_frobenius_sum', ctx.describe(), None, None, pairs)


def _cmd_verify(args) -> int:
    ctx = _make_ctx(args)
    n_max = args.nmax if args.nmax is not None else _default_nmax(args.p)
    if n_max < 1:
        raise ValueError("--nmax must be >= 1")
    reports = []
    if args.suite in ('criterion', 'all'):
        reports.extend(criterion_vs_direct(ctx, n_max, cap=args.cap))
    if args.suite in ('irreducibility', 'all'):
        reports.append(irreducibility_trace_sweep(ctx))
    if args.suite in ('traces', 'all'):
        reports.append(_trace_tuple_suite(ctx))
    if args.suite in ('minpoly', 'all'):
        reports.append(_minpoly_suite(ctx))
    all_agree = all(r.agree for r in reports)
    header = ('label', 'params', 'n_max', 'pairs', 'agree',
              'first_disagreement')
    table = [(r.label, _opt(r.params), _opt(r.n_max), len(r.pairs),
              r.agree, _opt(r.first_disagreement)) for r in reports]

    def text():
        lines = []
        for r in reports:
            tag = 'ok  ' if r.agree else 'FAIL'
            where = '' if r.first_disagreement is None else (
                f" first_disagreement={r.pairs[r.first_disagreement][0]}")
            params = f" params={r.params}" if r.params else ''
            lines.append(f"{tag} {r.label}{params}"
                         f" pairs={len(r.pairs)}{where}")
        if not args.quiet:
            verdict = 'agree' if all_agree else 'DISAGREE'
            lines.append(f"{len(reports)} report(s): {verdict}")
        return '\n'.join(lines) + '\n'

    def payload():
        return {'suite': args.suite, 'field': ctx.describe(),
                'agree': all_agree,
                'reports': [r.to_dict() for r in reports]}

    _render(args, payload, header, table, text)
    return EXIT_OK if all_agree else EXIT_DISAGREE


def _cmd_trace_table(args) -> int:
    ctx = _make_ctx(args)
    xi = element_from_text(ctx, args.xi)
    if args.nmax < 1:
        raise ValueError("--nmax must be >= 1")
    cells = [r.cells() for r in trace_rows(xi, args.nmax)]

    def payload():
        return {'field': ctx.describe(), 'xi': element_to_text(xi),
                'n_max': args.nmax,
                'rows': _Columns(TraceRow._fields, list(zip(*cells)))}

    _render(args, payload, TraceRow._fields, cells,
            lambda: _rows_text(cells, args.quiet))
    return EXIT_OK


_HANDLERS = {
    'check': _cmd_check,
    'search': _cmd_search,
    'generate': _cmd_generate,
    'verify': _cmd_verify,
    'trace-table': _cmd_trace_table,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InvstabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == '__main__':
    sys.exit(main())
