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

from .criterion import STABLE, TraceRow, decide_inverse_stability, trace_rows
from .errors import InvstabError, NotGenerating
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
    ``rows`` as a generator) what the other formats do not print.
    This is the one place that reads --format.

    json is exactly ``json.dumps(..., indent=2)`` and a newline, but an
    indent sends ``json`` to its pure-Python encoder, so :func:`_json_text`
    has the C encoder write it with no indent and an item separator of
    ',\\n' and the items' indent, and then edits that text.  The edits are
    sound because the encoder escapes every control character, so every raw
    newline in its output comes from a separator, and a scalar's text never
    ends in ``}`` or ``]``, so a separator after one of those follows a
    container member.
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


_CONTAINERS = (dict, list, tuple)


def _members(obj):
    return obj.values() if isinstance(obj, dict) else obj


def _json_text(obj, level=0) -> str:
    """``json.dumps(obj, indent=2)`` for ``obj`` at indent ``level``.

    A container of scalars is one C encoder call, with the line breaks
    after its opening and before its closing bracket added.  A list of
    non-empty scalar-only containers of one kind (search results,
    trace-table rows, verify pairs) is one call at the indent of the
    members' items; each ``}`` + separator + ``{`` (or ``]``, ``[``)
    between two members is then rewritten with the members' own indent.
    Any other container is one call with 0 in place of each container
    member, split at its separators, and each such member's text, from a
    call at the next level, replaces its 0.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    pad = '\n' + '  ' * level
    sep = ',' + pad + '  '
    members = list(_members(obj))
    nested = [i for i, v in enumerate(members) if isinstance(v, _CONTAINERS)]
    kinds = {isinstance(v, dict) for v in members}
    if (len(nested) == len(members) and len(kinds) == 1 and all(members)
            and not isinstance(obj, dict) and not any(
                issubclass(t, _CONTAINERS) for t in set(map(
                    type, itertools.chain.from_iterable(
                        map(_members, members)))))):
        inner = sep + '  '
        text = json.JSONEncoder(separators=(inner, ': ')).encode(obj)
        o, c = '{}' if kinds.pop() else '[]'
        rows = text[2:-2].replace(c + inner + o,
                                  sep[1:] + c + sep + o + inner[1:])
        return '[' + sep[1:] + o + inner[1:] + rows + sep[1:] + c + pad + ']'
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
            lines.append(_rows_text(map(TraceRow.cells, verdict.trace_table),
                                    quiet=False).rstrip())
        return '\n'.join(lines) + '\n'

    _render(args, verdict.to_dict, header, [cells], text)
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

    The first seed of each orbit in packed order is decided, and its
    verdict columns wait in ``shared`` for the rest of its orbit; xi and
    Tr(xi) are rendered for every seed, xi from one generator over the
    field's texts, so only a decided seed becomes a FieldElement.
    """
    ctx = _make_ctx(args)
    header = ('xi', 'trace', 'outcome', 'witness_n', 'preperiod', 'period')
    frobenius, neg, trace = ctx.frobenius_v, ctx.neg_v, ctx.trace_v
    shared = {}
    rows = []
    for v, text in enumerate(element_texts(ctx)):
        columns = shared.pop(v, None)
        if columns is None:
            verdict = decide_inverse_stability(FieldElement(ctx, v))
            columns = {k: getattr(verdict, k) for k in header[2:]}
            orbit = {v}
            y = frobenius(v)
            while y != v:
                orbit.add(y)
                y = frobenius(y)
            orbit.update([neg(y) for y in orbit])
            orbit.discard(v)
            shared.update(dict.fromkeys(orbit, columns))
        # a trace lies in F_p, whose element's text is its integer
        rows.append({'xi': text, 'trace': str(trace(v)), **columns})
    _render(args, lambda: {'field': ctx.describe(), 'results': rows},
            header, (_cells(r, header) for r in rows))
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
                'rows': [dict(zip(TraceRow._fields, c)) for c in cells]}

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
