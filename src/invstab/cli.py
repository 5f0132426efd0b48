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
import sys

from .criterion import (
    STABLE,
    TraceRow,
    decide_field,
    decide_inverse_stability,
    trace_rows,
)
from .errors import InvstabError, TableTooLarge
from .fields import (
    element_from_text,
    element_texts,
    element_to_text,
    finite_field,
)
from .iteration import DEFAULT_DEGREE_CAP, denominator
from .polys import is_irreducible, poly_to_text
from .xcheck import SUITES, verify_suites

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

SCHEMA_VERSION = 1

#: the most trace table rows a command prints: check in text and json
#: (its csv prints no table) and trace-table, whose --nmax bounds its rows,
#: in every format.  It covers every pinned output (GF(127^2) 5,109 has
#: 24,202 rows and F_2003 xi = 3 has 60,061)
MAX_TABLE_ROWS = 100_000


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
                        help='text output only: no headers or summaries')

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
    sp.add_argument('--suite', choices=SUITES, default='all')
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
    payload holds every list of rows as a :class:`_Columns`, which json
    renders as the list of dicts or lists it stands for.
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
    None.  The columns have one length and hold json scalars (str, int,
    float, bool or None).  A list of no rows may have no columns at all,
    as ``zip(*rows)`` of no rows is empty, and renders as ``[]``.  json
    renders it without building a dict or list per row.
    """

    __slots__ = ('keys', 'columns')

    def __init__(self, keys, columns):
        self.keys = keys
        self.columns = columns


#: the C encoder with one value a line: a scalar's text holds no raw
#: newline, as the encoder escapes every control character
_LINES = json.JSONEncoder(separators=(',\n', ': ')).encode


def _json_keys(keys) -> list:
    """Each of ``keys`` encoded as a json object key, up to and with its
    ': ', from one encoder call split at its line breaks."""
    return [k[:-1] for k in _LINES(dict.fromkeys(keys, 0))[1:-1].split(',\n')]


def _json_rows(keys, width, values, level):
    """``json.dumps(rows, indent=2)`` at indent ``level`` for the rows of a
    :class:`_Columns` of ``width`` columns, ``values`` row after row.

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
        heads = [k.replace('%', '%%') for k in _json_keys(keys)]
    row = (',' + outer + o + inner[1:] + inner.join(h + '%s' for h in heads)
           + outer + c)
    rows = (row * (len(values) // width))[1:]
    return '[' + rows % tuple(text[1:-1].split(',\n')) + outer[:-2] + ']'


def _json_text(obj, level=0) -> str:
    """``json.dumps(obj, indent=2)`` for ``obj`` at indent ``level``, where
    a :class:`_Columns` stands for the list of rows it holds.  An indent
    sends ``json`` to its pure-Python encoder, so the text is written by
    the C encoder with no indent and laid out here, in one walk.

    A ``_Columns`` is rendered by :func:`_json_rows`; a scalar or an empty
    container is one ``json.dumps``.  A dict's keys are one
    :func:`_json_keys` call, and its values, like a list's or tuple's
    items, are rendered at the next level.
    """
    if isinstance(obj, _Columns):
        return _json_rows(obj.keys, len(obj.columns), list(
            itertools.chain.from_iterable(zip(*obj.columns))), level)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    pad = '\n' + '  ' * (level + 1)
    if isinstance(obj, dict):
        o, c = '{', '}'
        items = [k + _json_text(v, level + 1)
                 for k, v in zip(_json_keys(obj), obj.values())]
    else:
        o, c = '[', ']'
        items = [_json_text(v, level + 1) for v in obj]
    return o + pad + (',' + pad).join(items) + pad[:-2] + c


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


def _table_budget(rows: int, what: str, advice: str) -> None:
    """TableTooLarge when a trace table of ``rows`` rows is over
    MAX_TABLE_ROWS.  Called before the first row is built, as a table can
    reach millions of rows that take far longer than the decision; the
    message is ``what``, the row count, the budget and ``advice``."""
    if rows > MAX_TABLE_ROWS:
        raise TableTooLarge(f"{what} {rows} rows, over the budget of"
                            f" {MAX_TABLE_ROWS} {advice}")


def _opt(value):
    return '' if value is None else value


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
    # csv row reads the verdict, not its record
    cells = (element_to_text(xi),) + tuple(
        _opt(getattr(verdict, k)) for k in header[1:])

    def table():
        _table_budget(verdict.table_rows, 'the trace table has',
                      'that text and json print; --format csv prints the'
                      ' verdict without it')
        return map(TraceRow.cells, verdict.trace_table)

    def payload():
        return verdict._record(
            _Columns(TraceRow._fields, list(zip(*table()))))

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
            lines.append(_rows_text(table(), quiet=False).rstrip())
        return '\n'.join(lines) + '\n'

    _render(args, payload, header, [cells], text)
    return EXIT_OK if stable else EXIT_UNSTABLE


def _rows_text(cells, quiet: bool) -> str:
    """The aligned trace table of rows given as ``TraceRow.cells()``."""
    return _table_text(('n', 'a', 'c', 'd', 'a/c', 'trace'), cells, quiet)


def _cmd_search(args) -> int:
    """One row per xi, held as six columns: the field's texts, the packed
    traces and the four of ``zip(*decide_field(ctx))``, so search builds
    no verdict object and no dict per row."""
    ctx = _make_ctx(args)
    header = ('xi', 'trace', 'outcome', 'witness_n', 'preperiod', 'period')
    # a trace lies in F_p, whose element's text is its integer
    columns = [list(element_texts(ctx)),
               list(map(str, map(ctx.trace_v, range(ctx.order)))),
               *zip(*decide_field(ctx))]
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

    _render(args, lambda: payload, header,
            [tuple(_opt(payload[k]) for k in header)], text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ctx = _make_ctx(args)
    if args.nmax is not None and args.nmax < 1:
        raise ValueError("--nmax must be >= 1")
    reports = verify_suites(ctx, args.suite, args.nmax, args.cap)
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
                'reports': [r._record(_Columns(None, list(zip(*r.pairs))))
                            for r in reports]}

    _render(args, payload, header, table, text)
    return EXIT_OK if all_agree else EXIT_DISAGREE


def _cmd_trace_table(args) -> int:
    ctx = _make_ctx(args)
    xi = element_from_text(ctx, args.xi)
    if args.nmax < 1:
        raise ValueError("--nmax must be >= 1")
    _table_budget(args.nmax, '--nmax asks for up to',
                  'that every format prints')
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
