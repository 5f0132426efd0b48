"""End-to-end tests for the command line front end."""

import argparse
import collections
import csv
import hashlib
import io
import json
import time

import pytest

from invstab import cli, criterion, polys, xcheck
from invstab.criterion import (
    StabilityVerdict,
    TraceRow,
    decide_inverse_stability,
)
from invstab.errors import InvstabError, TableTooLarge
from invstab.fields import (
    ZECH_MAX_ORDER,
    abs_trace,
    element_from_text,
    element_texts,
    element_to_text,
    extension_field,
    finite_field,
)
from invstab.iteration import denominator
from invstab.polys import artin_schreier, poly_to_text
from invstab.xcheck import EquivalenceReport


F9_ARGS = ['--p', '3', '--e', '2', '--modulus', '2,2,1']
F25_ARGS = ['--p', '5', '--e', '2', '--modulus', '2,4,1']

#: what json renders as an array or object; a _Columns holds none of them
_CONTAINERS = (dict, list, tuple, cli._Columns)


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_indented_dumps(out):
    """json stdout is json.dumps(payload, indent=2) and a newline."""
    assert out == json.dumps(json.loads(out), indent=2) + '\n'


# -- check ----------------------------------------------------------------------


def test_check_stable(capsys):
    rc, out, err = run(capsys, ['check'] + F9_ARGS + ['--xi', '0,1'])
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "field: GF(3^2) modulus=2,2,1 xi=0,1"
    assert lines[1] == "stable preperiod=1 period=3"
    assert lines[3].split() == ['n', 'a', 'c', 'd', 'a/c', 'trace']
    assert lines[4].split() == ['1', '0,1', '1,0', '0,0', '0,1', '1']
    assert lines[8].split() == ['5', '1,0', '0,2', '1,0', '1,2', '1']
    assert err == ''


def test_check_unstable(capsys):
    rc, out, _ = run(capsys, ['check'] + F25_ARGS + ['--xi', '0,1'])
    assert rc == cli.EXIT_UNSTABLE
    lines = out.splitlines()
    assert lines[1] == "unstable witness_n=8"
    assert lines[-1].split() == ['8', '2,2', '0,4', '1,0', '2,1', '0']


def test_check_default_modulus(capsys):
    rc, out, _ = run(capsys, ['check', '--p', '3', '--e', '3', '--xi', '1'])
    assert rc == cli.EXIT_UNSTABLE               # Tr(1) = 3 = 0 over F_27
    assert "unstable witness_n=1" in out


def test_check_quiet(capsys):
    rc, out, _ = run(capsys, ['check'] + F9_ARGS + ['--xi', '0,1', '--quiet'])
    assert rc == cli.EXIT_OK
    assert out == "stable preperiod=1 period=3\n"


def test_check_json_round_trip(capsys):
    rc, out, _ = run(capsys, ['check'] + F9_ARGS
                     + ['--xi', '0,1', '--format', 'json'])
    assert rc == cli.EXIT_OK
    payload = json.loads(out)
    assert payload['schema'] == cli.SCHEMA_VERSION == 1
    assert payload['command'] == 'check'
    assert payload['outcome'] == 'stable'
    back = StabilityVerdict.from_dict(payload)
    F9 = finite_field(3, 2, modulus=(2, 2, 1))
    assert back == decide_inverse_stability(F9.modulus_root)


def test_check_csv(capsys):
    rc, out, _ = run(capsys, ['check'] + F25_ARGS
                     + ['--xi', '0,1', '--format', 'csv'])
    assert rc == cli.EXIT_UNSTABLE
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ['xi', 'outcome', 'witness_n', 'preperiod', 'period',
                       'state_steps']
    assert rows[1][:3] == ['0,1', 'unstable', '8']
    assert rows[1][3] == rows[1][4] == ''


def test_check_builds_rows_only_when_printed(capsys, monkeypatch):
    """csv and text --quiet print no trace table, so check builds no row;
    their bytes are those of the same commands with rows allowed."""
    argvs = [['check'] + args + ['--xi', '0,1'] + extra
             for args in (F9_ARGS, F25_ARGS)
             for extra in (['--format', 'csv'], ['--quiet'])]
    expected = [run(capsys, argv) for argv in argvs]

    def no_rows(*args):
        raise AssertionError("check built a trace table row")
    monkeypatch.setattr(criterion, 'trace_rows', no_rows)
    monkeypatch.setattr(criterion, '_row_v', no_rows)
    for argv, want in zip(argvs, expected):
        assert run(capsys, argv) == want, argv


def test_check_table_over_budget(capsys, monkeypatch):
    """check refuses, with exit 2 and before building a row, a trace table
    over MAX_TABLE_ROWS in text and json; csv and --quiet text print the
    verdict.  xi = 5 over F_7919 has 7,553,773 rows.  The budget covers
    every pinned table, GF(127^2) 5,109 (24,202 rows) and F_2003 xi = 3
    (60,061 rows) among them."""
    for p, e, xi, rows in ((127, 2, '5,109', 24202), (2003, 1, '3', 60061)):
        verdict = decide_inverse_stability(
            element_from_text(finite_field(p, e), xi))
        assert verdict.table_rows == rows <= cli.MAX_TABLE_ROWS
    small = decide_inverse_stability(finite_field(3, 2).modulus_root)
    assert small.table_rows == len(small.trace_table)

    def no_rows(*args):
        raise AssertionError("check built a row of an over-budget table")
    monkeypatch.setattr(criterion, 'trace_rows', no_rows)
    argv = ['check', '--p', '7919', '--xi', '5']
    for fmt in ('text', 'json'):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv + ['--format', fmt])
        assert time.perf_counter() - start < 5, fmt
        assert rc == cli.EXIT_USAGE and out == '', fmt
        assert err.startswith('error: the trace table has 7553773 rows')
        assert '--format csv' in err
    assert issubclass(TableTooLarge, InvstabError)
    rc, out, _ = run(capsys, argv + ['--format', 'csv'])
    assert rc == cli.EXIT_OK
    assert out.splitlines()[1] == '5,stable,,0,7553772,7553772'
    rc, out, _ = run(capsys, argv + ['--quiet'])
    assert (rc, out) == (cli.EXIT_OK, 'stable preperiod=0 period=7553772\n')


def test_trace_table_over_budget(capsys, monkeypatch):
    """trace-table refuses an --nmax over MAX_TABLE_ROWS with exit 2 in
    every format, csv included, before building a row; an --nmax at the
    budget is taken."""
    rc, out, _ = run(capsys, ['trace-table', '--p', '3', '--e', '2', '--xi',
                              '0', '--nmax', str(cli.MAX_TABLE_ROWS)])
    assert rc == cli.EXIT_OK and len(out.splitlines()) == 2

    def no_rows(*args):
        raise AssertionError("trace-table built a row over the budget")
    monkeypatch.setattr(cli, 'trace_rows', no_rows)
    argv = ['trace-table', '--p', '7919', '--xi', '5', '--nmax',
            str(cli.MAX_TABLE_ROWS + 1)]
    for fmt in ('text', 'json', 'csv'):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv + ['--format', fmt])
        assert time.perf_counter() - start < 5, fmt
        assert rc == cli.EXIT_USAGE and out == '', fmt
        assert err == ('error: --nmax asks for up to 100001 rows, over the'
                       ' budget of 100000 that every format prints\n')


# -- search ---------------------------------------------------------------------


def test_search_table(capsys):
    rc, out, _ = run(capsys, ['search'] + F9_ARGS)
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 10                      # header + one row per xi
    byxi = {line.split()[0]: line.split() for line in lines[1:]}
    assert byxi['0,0'][2:4] == ['unstable', '1']
    assert byxi['0,1'][2:] == ['stable', '1', '3']
    unstable = [r for r in byxi.values() if r[2] == 'unstable']
    assert len(unstable) == 3                    # exactly the trace-zero xi


def test_search_field_over_budget(capsys, monkeypatch):
    """search prints one row per seed, so a field of more than
    MAX_TABLE_ROWS seeds exits 2 in every format, before its modulus
    search or any decision; GF(3^9), the largest pinned search, is under
    the budget, and GF(3^11) and F_1048573 are over it.  For GF(3^40) the
    message gives the lower bound 3^17: the power stops at the budget's
    bit length, 17."""
    assert 3 ** 9 <= cli.MAX_TABLE_ROWS < 3 ** 11

    def refused(*args):
        raise AssertionError("search went past the budget check")
    monkeypatch.setattr(cli, 'decide_field', refused)
    monkeypatch.setattr(polys, 'find_irreducible', refused)
    for p, e, rows in ((3, 40, 3 ** 17), (3, 11, 3 ** 11),
                       (1048573, 1, 1048573)):
        for fmt in ('text', 'csv', 'json'):
            start = time.perf_counter()
            rc, out, err = run(capsys, ['search', '--p', str(p), '--e',
                                        str(e), '--format', fmt])
            assert time.perf_counter() - start < 5, (p, e, fmt)
            assert rc == cli.EXIT_USAGE and out == '', (p, e, fmt)
            assert err == (f'error: search over GF({p}^{e}) prints at least'
                           f' {rows} rows, over the budget of 100000 that'
                           ' every format prints, one per seed\n')


def test_degree_over_max_degree_fails_fast(capsys, monkeypatch):
    """check over GF(3^5000), which hung in the modulus search, exits 2
    within 5 s in every format, before any modulus search; search refuses
    it by its row budget first."""
    def refused(*args):
        raise AssertionError("modulus search for an over-budget degree")
    monkeypatch.setattr(polys, 'find_irreducible', refused)
    for fmt in ('text', 'csv', 'json'):
        start = time.perf_counter()
        rc, out, err = run(capsys, ['check', '--p', '3', '--e', '5000',
                                    '--xi', '1', '--format', fmt])
        assert time.perf_counter() - start < 5, fmt
        assert rc == cli.EXIT_USAGE and out == '', fmt
        assert err == 'error: extension degree 5000 > 40\n'
    for command in (['verify'], ['trace-table', '--xi', '1', '--nmax', '2'],
                    ['generate', '--xi', '1', '--n', '1']):
        rc, out, err = run(capsys, command[:1] + ['--p', '2', '--e', '41']
                           + command[1:])
        assert rc == cli.EXIT_USAGE and out == '', command
        assert err == 'error: extension degree 41 > 40\n'


def test_search_builds_no_rows(capsys, monkeypatch):
    """search prints Tr(xi) and the cycle data, so it needs no table row."""
    def no_rows(*args):
        raise AssertionError("search built a trace table row")
    monkeypatch.setattr(criterion, 'trace_rows', no_rows)
    monkeypatch.setattr(criterion, '_row_v', no_rows)
    for argv in (F9_ARGS, F25_ARGS, ['--p', '7']):
        assert run(capsys, ['search'] + argv)[0] == cli.EXIT_OK


def test_search_json_builds_no_cells(capsys, monkeypatch):
    """json prints the result columns, so search builds no csv/text cells:
    no row tuple of _opt values."""
    def no_cells(*args):
        raise AssertionError("search --format json built table cells")
    monkeypatch.setattr(cli, '_opt', no_cells)
    for argv in (F9_ARGS, ['--p', '7']):
        rc, out, _ = run(capsys, ['search'] + argv + ['--format', 'json'])
        assert rc == cli.EXIT_OK
        assert json.loads(out)['command'] == 'search'


def test_search_builds_no_row_dicts_or_verdicts(capsys, monkeypatch):
    """search holds its output as columns of the packed decisions: it
    builds no StabilityVerdict, json gets the results as one _Columns of
    scalar columns, and csv and text get each row as a tuple, never a
    dict; the bytes are those of the same commands unpatched."""
    argvs = [['search'] + argv + extra
             for argv in (F9_ARGS, ['--p', '2', '--e', '4'], ['--p', '7'])
             for extra in ([], ['--format', 'json'], ['--format', 'csv'])]
    expected = [run(capsys, argv) for argv in argvs]

    def no_verdict(*args):
        raise AssertionError("search built a StabilityVerdict")
    monkeypatch.setattr(StabilityVerdict, '__init__', no_verdict)
    render, formats = cli._render, []

    def checked(args, payload, header, rows, text=None):
        formats.append(args.format)
        if args.format == 'json':
            results = payload()['results']
            assert type(results) is cli._Columns
            assert results.keys == header
            for column in results.columns:
                assert type(column) in (list, tuple)
                assert len(column) == len(results.columns[0])
                assert not any(isinstance(v, _CONTAINERS) for v in column)
        else:
            rows = list(rows)
            assert rows and all(type(r) is tuple for r in rows)
        return render(args, payload, header, rows, text)
    monkeypatch.setattr(cli, '_render', checked)
    for argv, want in zip(argvs, expected):
        assert run(capsys, argv) == want, argv
    assert formats == ['text', 'json', 'csv'] * 3


def test_search_prime_field(capsys):
    rc, out, _ = run(capsys, ['search', '--p', '3'])
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[1].split()[:3] == ['0', '0', 'unstable']
    assert lines[2].split()[2] == 'stable'
    assert lines[3].split()[2] == 'stable'


def test_search_csv(capsys):
    rc, out, _ = run(capsys, ['search'] + F25_ARGS + ['--format', 'csv'])
    assert rc == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 26
    outcomes = {r[2] for r in rows[1:]}
    assert outcomes == {'stable', 'unstable'}


def test_search_json(capsys):
    rc, out, _ = run(capsys, ['search', '--p', '2', '--format', 'json'])
    payload = json.loads(out)
    assert payload['schema'] == 1
    assert payload['field'] == {'p': 2, 'e': 1, 'modulus': None}
    assert [r['outcome'] for r in payload['results']] == ['unstable', 'stable']


def _search_fields():
    """(search argv, field) for F_9 over x^2 + 2x + 2, every depth-1 field
    of order <= 1024 with p <= 31, and GF(2^13) and GF(3^9), the two
    smallest fields above ZECH_MAX_ORDER that are cheap to search."""
    sizes = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
             for e in range(1, 11) if p ** e <= 1024] + [(2, 13), (3, 9)]
    return [(F9_ARGS, finite_field(3, 2, modulus=(2, 2, 1)))] + [
        (['--p', str(p), '--e', str(e)], finite_field(p, e))
        for p, e in sizes]


def test_search_matches_direct_decisions(capsys):
    """Every csv row and json result of search is the row of the seed's own
    decision: sharing a verdict along the Frobenius/negation orbit, and
    writing xi from the field's text generator, change none.  The json
    stdout is also json.dumps(indent=2) of what it loads to."""
    searched = _search_fields()
    assert len(searched) == 40
    assert all(ctx.order > ZECH_MAX_ORDER for _, ctx in searched[-2:])
    header = ('xi', 'trace', 'outcome', 'witness_n', 'preperiod', 'period')
    for argv, ctx in searched:
        rc, out, _ = run(capsys, ['search'] + argv + ['--format', 'csv'])
        assert rc == cli.EXIT_OK
        rc, text, _ = run(capsys, ['search'] + argv + ['--format', 'json'])
        assert rc == cli.EXIT_OK
        results = []
        for xi in ctx.elements():
            v = decide_inverse_stability(xi)
            results.append(dict(zip(header, (
                element_to_text(xi), element_to_text(abs_trace(xi)),
                v.outcome, v.witness_n, v.preperiod, v.period))))
        expected = [list(header)] + [
            ['' if k is None else str(k) for k in r.values()]
            for r in results]
        assert list(csv.reader(io.StringIO(out))) == expected, argv
        assert json.loads(text)['results'] == results, argv
        assert_indented_dumps(text)


def test_element_texts_in_packed_order():
    """fields.element_texts lists element_to_text of every element in
    packed order, on every searched field; a tower has no texts."""
    for _, ctx in _search_fields():
        assert list(element_texts(ctx)) == [
            element_to_text(x) for x in ctx.elements()], ctx
    F9 = finite_field(3, 2, modulus=(2, 2, 1))
    assert list(element_texts(F9))[:4] == ['0,0', '1,0', '2,0', '0,1']
    tower = extension_field(F9, artin_schreier(F9.modulus_root))
    with pytest.raises(ValueError):
        element_texts(tower)


def test_search_decides_once_per_orbit(capsys, monkeypatch):
    """search decides one seed per orbit of xi -> xi^p and xi -> -xi, by
    the packed decision core as criterion.decide_field calls it."""
    calls, decide = [], criterion._decide_v

    def counting(ctx, xi_v):
        calls.append(xi_v)
        return decide(ctx, xi_v)
    monkeypatch.setattr(criterion, '_decide_v', counting)
    for argv, decisions in ((['--p', '3', '--e', '6'], 68),
                            (['--p', '5', '--e', '4'], 87),
                            (['--p', '2', '--e', '10'], 108),
                            (['--p', '11', '--e', '2'], 36),
                            (['--p', '101'], 51)):
        calls.clear()
        assert run(capsys, ['search'] + argv + ['--quiet'])[0] == cli.EXIT_OK
        assert len(calls) == decisions, argv


# -- generate -------------------------------------------------------------------


def test_generate_certified(capsys):
    rc, out, _ = run(capsys, ['generate'] + F9_ARGS
                     + ['--xi', '0,1', '--n', '2', '--verify'])
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == ("D_2 degree=9 criterion_irreducible=True"
                        " rabin_irreducible=True")
    F9 = finite_field(3, 2, modulus=(2, 2, 1))
    expected = denominator(F9.modulus_root, 2).monic()
    assert lines[1] == poly_to_text(expected)


def test_generate_first_iterate_is_g(capsys):
    rc, out, _ = run(capsys, ['generate'] + F9_ARGS + ['--xi', '0,1',
                                                       '--n', '1', '--quiet'])
    assert rc == cli.EXIT_OK
    F9 = finite_field(3, 2, modulus=(2, 2, 1))
    assert out.strip() == poly_to_text(artin_schreier(F9.modulus_root))


def test_generate_past_witness_is_flagged(capsys):
    rc, out, _ = run(capsys, ['generate', '--p', '3', '--e', '3',
                              '--xi', '1', '--n', '1', '--verify'])
    assert rc == cli.EXIT_OK                     # emitting is fine, flag says no
    assert "criterion_irreducible=False rabin_irreducible=False" in out


def test_generate_cap_exceeded(capsys):
    rc, out, err = run(capsys, ['generate', '--p', '5', '--xi', '1',
                                '--n', '9'])
    assert rc == cli.EXIT_USAGE
    assert out == '' and err.startswith('error:')


def test_huge_iterate_index_fails_fast(capsys):
    """generate and verify's criterion suite refuse n = 10^9, whose D_n has
    degree 3^(10^9), with exit 2 within 5 s: the cap is compared without
    building 3^n."""
    for argv in (['generate', '--p', '3', '--xi', '1', '--n', '1000000000'],
                 ['verify', '--p', '3', '--suite', 'criterion', '--nmax',
                  '1000000000']):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 5, argv
        assert rc == cli.EXIT_USAGE and out == '', argv
        assert err == ('error: deg D_1000000000 = 3^1000000000 exceeds the'
                       ' cap 10000\n')


def test_cap_above_max_degree_cap_fails_fast(capsys):
    """A --cap above MAX_DEGREE_CAP is a usage error before the first step:
    D_16 over F_2 (degree 65,536) under --cap 70000 did not end when the
    cap had no ceiling."""
    for argv in (['generate', '--p', '2', '--xi', '1', '--n', '16', '--cap',
                  '70000'],
                 ['verify', '--p', '2', '--cap', '70000']):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 5, argv
        assert rc == cli.EXIT_USAGE and out == '', argv
        assert err == ('error: the degree cap 70000 exceeds MAX_DEGREE_CAP'
                       ' = 32768\n')


def test_generate_json(capsys):
    rc, out, _ = run(capsys, ['generate'] + F9_ARGS
                     + ['--xi', '0,1', '--n', '2', '--format', 'json'])
    payload = json.loads(out)
    assert payload['degree'] == 9
    assert payload['criterion_irreducible'] is True
    assert payload['rabin_irreducible'] is None  # no --verify requested


# -- verify ----------------------------------------------------------------------


def test_verify_criterion_suite(capsys):
    rc, out, _ = run(capsys, ['verify', '--suite', 'criterion'] + F9_ARGS
                     + ['--nmax', '3'])
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 7                       # 6 xi reports + summary
    assert all(line.startswith('ok') for line in lines[:-1])
    assert lines[-1] == "6 report(s): agree"


def test_verify_traces_suite(capsys):
    rc, out, _ = run(capsys, ['verify', '--suite', 'traces', '--p', '5'])
    assert rc == cli.EXIT_OK
    assert 'mobius_trace_vs_frobenius_sum pairs=500' in out


def test_verify_minpoly_suite(capsys):
    rc, out, _ = run(capsys, ['verify', '--suite', 'minpoly'] + F9_ARGS)
    assert rc == cli.EXIT_OK
    assert 'minpoly_coeff_vs_frobenius_sum' in out


def test_verify_irreducibility_suite(capsys):
    rc, out, _ = run(capsys, ['verify', '--suite', 'irreducibility',
                              '--p', '3', '--e', '3'])
    assert rc == cli.EXIT_OK
    assert 'trace_nonzero_vs_rabin pairs=27' in out


def test_verify_all_default_nmax(capsys):
    # p = 2 keeps the default nmax (largest n with 2^n <= 256) fast
    rc, out, _ = run(capsys, ['verify', '--p', '2'])
    assert rc == cli.EXIT_OK
    assert out.splitlines()[-1] == "4 report(s): agree"


def test_verify_json(capsys):
    rc, out, _ = run(capsys, ['verify', '--suite', 'irreducibility',
                              '--p', '2', '--format', 'json'])
    payload = json.loads(out)
    assert payload['agree'] is True
    assert payload['reports'][0]['label'] == 'trace_nonzero_vs_rabin'


def test_verify_text_and_csv_build_no_report_dicts(capsys, monkeypatch):
    """Only json prints the 500 pairs of the traces suite, so text and csv
    never turn a report into a dict; their bytes are unchanged."""
    argvs = [['verify', '--suite', 'traces', '--p', '2', '--e', '2'] + extra
             for extra in ([], ['--quiet'], ['--format', 'csv'])]
    expected = [run(capsys, argv) for argv in argvs]

    def no_dict(self):
        raise AssertionError("verify built a report dict it does not print")
    monkeypatch.setattr(EquivalenceReport, 'to_dict', no_dict)
    for argv, want in zip(argvs, expected):
        assert run(capsys, argv) == want, argv


def test_check_and_verify_json_rows_arrive_as_columns(capsys, monkeypatch):
    """check and verify hand json every row list as a _Columns of scalar
    columns: check's trace table with the row keys and no dict per row,
    verify's pairs without keys.  A report of no pairs renders
    "pairs": [].  The bytes are those of the same commands unpatched."""
    fake = EquivalenceReport.build('stub', {'p': 2, 'e': 1, 'modulus': None},
                                   None, None, [])
    argvs = [['check'] + F9_ARGS + ['--xi', '0,1'],
             ['check'] + F25_ARGS + ['--xi', '0,1'],
             ['check', '--p', '2', '--e', '2', '--xi', '1,0'],
             ['verify', '--p', '2', '--e', '2', '--nmax', '4'],
             ['verify', '--p', '3', '--suite', 'criterion'],
             ['verify', '--p', '2', '--suite', 'traces']]
    argvs = [argv + ['--format', 'json'] for argv in argvs]
    expected = [run(capsys, argv) for argv in argvs[:-1]]
    with monkeypatch.context() as m:
        m.setattr(xcheck, '_trace_tuple_suite', lambda ctx: fake)
        expected.append(run(capsys, argvs[-1]))
    _, out, _ = expected[-1]
    assert '"pairs": []' in out
    assert json.loads(out)['reports'] == [fake.to_dict()]

    def no_dict(self):
        raise AssertionError("json built a record with a dict per row")
    monkeypatch.setattr(StabilityVerdict, 'to_dict', no_dict)
    monkeypatch.setattr(EquivalenceReport, 'to_dict', no_dict)
    json_text, tables = cli._json_text, []

    def checked(obj, level=0):
        if level == 0:
            if obj['command'] == 'check':
                found = [obj['trace_table']]
                assert found[0].keys == TraceRow._fields
            else:
                found = [r['pairs'] for r in obj['reports']]
                assert all(t.keys is None for t in found)
            for table in found:
                assert type(table) is cli._Columns
                for column in table.columns:
                    assert len(column) == len(table.columns[0])
                    assert not any(isinstance(v, _CONTAINERS)
                                   for v in column)
            tables.extend(found)
        return json_text(obj, level)
    monkeypatch.setattr(cli, '_json_text', checked)
    for argv, want in zip(argvs[:-1], expected):
        assert run(capsys, argv) == want, argv
    monkeypatch.setattr(xcheck, '_trace_tuple_suite', lambda ctx: fake)
    assert run(capsys, argvs[-1]) == expected[-1]
    assert tables[-1].columns == []
    assert len(tables) == 3 + 5 + 2 + 1


def test_verify_over_budget_fails_fast(capsys, monkeypatch):
    """verify exits 2 before its first report in every format: the traces
    suite, alone or in all four, above MAX_TOWER_DEGREE = 23 (p = 101 took
    19.5 s and p = 1009 did not end), and every suite but minpoly over a
    field of more elements than MAX_TABLE_ROWS.
    The criterion suite at p = 29 and minpoly over GF(3^11) are taken."""
    assert xcheck.MAX_TOWER_DEGREE == 23
    rc, out, _ = run(capsys, ['verify', '--suite', 'criterion', '--p', '29',
                              '--quiet'])
    assert rc == cli.EXIT_OK and out.startswith('ok   criterion_vs_direct')
    rc, out, _ = run(capsys, ['verify', '--suite', 'minpoly', '--p', '3',
                              '--e', '11', '--quiet'])
    assert rc == cli.EXIT_OK and out.startswith('ok   minpoly_coeff')

    def refused(*args):
        raise AssertionError("verify ran a suite past its budget")
    for name in ('criterion_vs_direct', 'irreducibility_trace_sweep',
                 '_trace_tuple_suite', '_minpoly_suite'):
        monkeypatch.setattr(xcheck, name, refused)
    towers = [(suite, p) for suite in ('traces', 'all')
              for p in ('29', '101', '1009')]
    for suite, p in towers:
        for fmt in ('text', 'csv', 'json'):
            start = time.perf_counter()
            rc, out, err = run(capsys, ['verify', '--suite', suite, '--p', p,
                                        '--format', fmt])
            assert time.perf_counter() - start < 5, (suite, p, fmt)
            assert rc == cli.EXIT_USAGE and out == '', (suite, p, fmt)
            assert err == ('error: the traces suite builds towers of degree'
                           f' p = {p} > 23\n')
    for suite in ('criterion', 'irreducibility', 'traces', 'all'):
        for p, e in ((3, 11), (2, 20), (1048573, 1)):
            start = time.perf_counter()
            rc, out, err = run(capsys, ['verify', '--suite', suite,
                                        '--p', str(p), '--e', str(e)])
            assert time.perf_counter() - start < 5, (suite, p, e)
            assert rc == cli.EXIT_USAGE and out == '', (suite, p, e)
            assert err == (f'error: verify --suite {suite} walks all'
                           f' {p ** e} elements of GF({p}^{e}), over the'
                           ' budget of 100000 elements; --suite minpoly'
                           ' samples a field that large\n')


def test_verify_disagreement_exit(capsys, monkeypatch):
    fake = EquivalenceReport.build('stub', {'p': 2, 'e': 1, 'modulus': None},
                                   None, None, [(0, True, False)])
    monkeypatch.setattr(xcheck, '_trace_tuple_suite', lambda ctx: fake)
    rc, out, _ = run(capsys, ['verify', '--suite', 'traces', '--p', '2'])
    assert rc == cli.EXIT_DISAGREE
    assert 'FAIL stub' in out and 'DISAGREE' in out


# -- trace-table -------------------------------------------------------------------


def test_trace_table_prime_closed_form(capsys):
    rc, out, _ = run(capsys, ['trace-table', '--p', '3', '--xi', '1',
                              '--nmax', '5'])
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    assert [line.split()[-1] for line in lines[1:]] == ['1', '2', '2', '2', '2']


def test_trace_table_periodic_rows(capsys):
    rc, out, _ = run(capsys, ['trace-table'] + F9_ARGS
                     + ['--xi', '0,1', '--nmax', '8'])
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[3].split()[1:] == ['2,0', '0,2', '2,2', '2,1', '2']
    assert lines[6].split()[1:] == lines[3].split()[1:]      # s_6 = s_3
    assert [line.split()[-1] for line in lines[1:]] == [
        '1', '1', '2', '2', '1', '2', '2', '1']


def test_trace_table_unstable_row(capsys):
    rc, out, _ = run(capsys, ['trace-table'] + F25_ARGS
                     + ['--xi', '0,1', '--nmax', '8', '--quiet'])
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[-1].split() == ['8', '2,2', '0,4', '1,0', '2,1', '0']


def test_trace_table_trace_zero_seed(capsys):
    # Tr(0) = 0 and c_2 = xi = 0: only row 1 is defined, and that is no error
    rc, out, err = run(capsys, ['trace-table', '--p', '3', '--e', '2',
                                '--xi', '0', '--nmax', '4'])
    assert rc == cli.EXIT_OK and err == ''
    assert out.splitlines() == ['n  a    c    d    a/c  trace',
                                '1  0,0  1,0  0,0  0,0  0']


def test_trace_table_csv(capsys):
    rc, out, _ = run(capsys, ['trace-table'] + F9_ARGS
                     + ['--xi', '0,1', '--nmax', '3', '--format', 'csv'])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ['n', 'a', 'c', 'd', 'ratio', 'trace']
    assert rows[3] == ['3', '2,0', '0,2', '2,2', '2,1', '2']


def test_trace_table_text_and_csv_build_no_payload(capsys, monkeypatch):
    """text and csv print the row cells, so trace-table builds no json
    payload, and it builds each row's cells once."""
    from invstab.criterion import TraceRow
    from invstab.fields import FieldCtx

    def no_payload(self):
        raise AssertionError("trace-table built the json payload")
    monkeypatch.setattr(FieldCtx, 'describe', no_payload)
    built, cells = [], TraceRow.cells

    def counted(row):
        built.append(row.n)
        return cells(row)
    monkeypatch.setattr(TraceRow, 'cells', counted)
    for fmt in ('text', 'csv'):
        built.clear()
        rc, out, _ = run(capsys, ['trace-table'] + F9_ARGS + [
            '--xi', '0,1', '--nmax', '8', '--format', fmt])
        assert rc == cli.EXIT_OK and len(out.splitlines()) == 9
        assert built == list(range(1, 9)), fmt


def test_trace_table_json(capsys):
    rc, out, _ = run(capsys, ['trace-table', '--p', '3', '--xi', '1',
                              '--nmax', '2', '--format', 'json'])
    payload = json.loads(out)
    assert payload['rows'][0] == {'n': 1, 'a': '1', 'c': '1', 'd': '0',
                                  'ratio': '1', 'trace': '1'}


# -- output plumbing -----------------------------------------------------------------


def test_deterministic_output(capsys):
    argv = ['verify', '--suite', 'traces', '--p', '3', '--format', 'json']
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ['search'] + F9_ARGS + ['--format', 'json']
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / 'verdict.json'
    rc, out, _ = run(capsys, ['check'] + F9_ARGS
                     + ['--xi', '0,1', '--format', 'json',
                        '--out', str(target)])
    assert rc == cli.EXIT_OK
    assert out == ''
    payload = json.loads(target.read_text())
    assert payload['outcome'] == 'stable'


def test_out_to_unwritable_path_is_usage_error(capsys, tmp_path):
    bad = tmp_path / 'missing' / 'x.txt'
    rc, out, err = run(capsys, ['check', '--p', '3', '--xi', '1',
                                '--out', str(bad)])
    assert rc == cli.EXIT_USAGE
    assert out == '' and err.startswith('error: cannot write')
    assert 'Traceback' not in err


# -- pinned bytes --------------------------------------------------------------------

_PINNED_FIELDS = {'F9': F9_ARGS, 'F4': ['--p', '2', '--e', '2'],
                  'F2': ['--p', '2']}

#: exit code and sha256 of stdout for each command line in text, json and
#: csv, each first without and then with --quiet
_PINNED_CLI = {
    'check F9 --xi 0,1': (
        '0:16a55a5d1b3ff18547af8c28d87f9eed9c83668600d7a986a9ae290a9658107f',
        '0:118deaaeecf0ebe41aa092840c65a26bb9844d1df5adb532f0ea88b361a4f06b',
        '0:a76f8ace7273466bdb1ba4025e8f5a8d61e51f40d94577814ccd95ac2442c845',
        '0:a76f8ace7273466bdb1ba4025e8f5a8d61e51f40d94577814ccd95ac2442c845',
        '0:9ee874cf196b5c398d8029f2b2fab6a4aac4bf03ced9a5ad7dd95f57a063b35c',
        '0:9ee874cf196b5c398d8029f2b2fab6a4aac4bf03ced9a5ad7dd95f57a063b35c',
    ),
    'check F9 --xi 1,1': (
        '3:45978be1a461d6ade2de76084f122ab8fb012b743892c4ddb4c128fd9e4acda4',
        '3:d11b832844e932c825fa7abff4a159075bca5dc78c858aaa1de0b74e744764c7',
        '3:c4a6b0121db170b712309f0bacd94ec5f238919e8324e10ad665cafad5196380',
        '3:c4a6b0121db170b712309f0bacd94ec5f238919e8324e10ad665cafad5196380',
        '3:afa16178b5e48e5b646d46e896202b600598a317e6803288caaf66e56fe918e3',
        '3:afa16178b5e48e5b646d46e896202b600598a317e6803288caaf66e56fe918e3',
    ),
    'search F9': (
        '0:ee659e0acb857da2a0d43f50323e1962dc46f9cc4b49841e4ccb810633144d2f',
        '0:8f5693d68ba2fe92aaefa47a62d69d0670795633c9fd5953ddf28b229e798c7a',
        '0:bf6859f8ea3b0b789bbe884b49163efb449485d02619e6454da3bbe7dd5087fa',
        '0:bf6859f8ea3b0b789bbe884b49163efb449485d02619e6454da3bbe7dd5087fa',
        '0:dae09134ed915265be851e769dc5c52fe3f759675fbf892a7800c101ed4e8c47',
        '0:dae09134ed915265be851e769dc5c52fe3f759675fbf892a7800c101ed4e8c47',
    ),
    'generate F9 --xi 0,1 --n 2': (
        '0:c54529df6dc1260851ce1660143804fd6a19c22d153b93a8aa3b38710ca74bf3',
        '0:dd1b7048eb58dcb6b4dc3152737ace4cdce66e2c88ea68ce5b802340ef655859',
        '0:da6430287e8b9e20e3072cc0b971be034f4b8e75d1216a7e8777d0a1c0a9dfb8',
        '0:da6430287e8b9e20e3072cc0b971be034f4b8e75d1216a7e8777d0a1c0a9dfb8',
        '0:1e9ee344e6d81542cf742588f0cf56d6200f45a8e4a73fc18c449ab107bee58f',
        '0:1e9ee344e6d81542cf742588f0cf56d6200f45a8e4a73fc18c449ab107bee58f',
    ),
    'generate F9 --xi 0,1 --n 2 --verify': (
        '0:ccf37c1852e08c4df2b304580cb2e764c5962db9b549b58bec8ac3b7e207a242',
        '0:dd1b7048eb58dcb6b4dc3152737ace4cdce66e2c88ea68ce5b802340ef655859',
        '0:cfcf45aba4409c2414b141301053876c6c9c9e1bf51bf38e4fe272b668008345',
        '0:cfcf45aba4409c2414b141301053876c6c9c9e1bf51bf38e4fe272b668008345',
        '0:d356c79c568d0a27abb96d69fd1d57f01ed07dd120e54cd034d452f67bd20315',
        '0:d356c79c568d0a27abb96d69fd1d57f01ed07dd120e54cd034d452f67bd20315',
    ),
    'trace-table F9 --xi 0,1 --nmax 6': (
        '0:a4fc2e6cabd683e67cc80f7dde4fa33a4c315c14168082fe4357fb6bd7871e85',
        '0:bc19bb4d05b2f9d589d4577e62760bae6150df1faf6124977b8a977a8b44c80f',
        '0:75f5c139524f2a8abff6746f8aa9e5726b3dad5255e540cf9612bcb076c5410f',
        '0:75f5c139524f2a8abff6746f8aa9e5726b3dad5255e540cf9612bcb076c5410f',
        '0:bbca0d20246242d8b8aa2eed5b0deed6fb516d912f780afbc5d7340a267a7c26',
        '0:bbca0d20246242d8b8aa2eed5b0deed6fb516d912f780afbc5d7340a267a7c26',
    ),
    'check F4 --xi 0,1': (
        '3:d41ae3f4a35368cfb65e45464cd8e74904e0306fbca467f66c416904652f2a82',
        '3:8237a8a65dbc570991665df32ddea599ec763aad6f6c3a13e2b5dd752961c21e',
        '3:16f19f19f82c073e770d94ec4a3fa4f260f5704d7c4571640dccae2af2f20ba3',
        '3:16f19f19f82c073e770d94ec4a3fa4f260f5704d7c4571640dccae2af2f20ba3',
        '3:f64386c8220e52bac4edb0eb4fd4663a0eaf4cc1e142f9ea40f79f44c2de6f6a',
        '3:f64386c8220e52bac4edb0eb4fd4663a0eaf4cc1e142f9ea40f79f44c2de6f6a',
    ),
    'check F4 --xi 1,0': (
        '3:3dabb3b455a7b44433b25b40ef3fdef1f8e28aafdd9fa95f88a0da46101f5c68',
        '3:d11b832844e932c825fa7abff4a159075bca5dc78c858aaa1de0b74e744764c7',
        '3:a6488a922a97b41eb3401512b6ea62d7f25b1568e8d80a14073a7365778e1b5c',
        '3:a6488a922a97b41eb3401512b6ea62d7f25b1568e8d80a14073a7365778e1b5c',
        '3:f7e0398d21595d17b6d94a63b3ef7df9057eb970e27c8556ce55f66c5788494b',
        '3:f7e0398d21595d17b6d94a63b3ef7df9057eb970e27c8556ce55f66c5788494b',
    ),
    'search F4': (
        '0:ec3b0f6186415095bb3cde08e57043f389ed8d3bc6a76718b599a7d51ca89b25',
        '0:2fab8e7da831b5a766ca00a80233469179f62a7cc4444321c0a6eaf9f03899bf',
        '0:8519b6c27ce1bfb8d4e435221e373e5000d6f76cd0910b546a894673cff5a20e',
        '0:8519b6c27ce1bfb8d4e435221e373e5000d6f76cd0910b546a894673cff5a20e',
        '0:985a01087cf3b71d902c1d66ac4cc038ebaf2b8944d06ebd4fe61f56d89dba4f',
        '0:985a01087cf3b71d902c1d66ac4cc038ebaf2b8944d06ebd4fe61f56d89dba4f',
    ),
    'generate F4 --xi 0,1 --n 5': (
        '0:9b098e4c9b3babf872b86e40d49a7aca76b7493e46aa4b672a18d013767d4311',
        '0:57e6730a7f1943e653042c4f66f3ff90459c4e846a36a9129b8e26cd85f81b2e',
        '0:771777000e4462ba9d0495109bd060ac6890845d7b576951109aff09a74a85ed',
        '0:771777000e4462ba9d0495109bd060ac6890845d7b576951109aff09a74a85ed',
        '0:48a24627759e61f29d2a62e9a2b8d618292117435e63e81092367ffa06a99d53',
        '0:48a24627759e61f29d2a62e9a2b8d618292117435e63e81092367ffa06a99d53',
    ),
    'generate F4 --xi 0,1 --n 5 --verify': (
        '0:7adc26dabfbc147c729ff4e04fc931fe6588a9549ae1a1eda93ebec95ceaf6f1',
        '0:57e6730a7f1943e653042c4f66f3ff90459c4e846a36a9129b8e26cd85f81b2e',
        '0:7c0791a82fde7c6a20c68bb085aba4c96744ee87badbe360739b4dbece7501f5',
        '0:7c0791a82fde7c6a20c68bb085aba4c96744ee87badbe360739b4dbece7501f5',
        '0:33ed227f0a33547381aa27692397dd29af2db47e689a4e86b55dd51a26451e3d',
        '0:33ed227f0a33547381aa27692397dd29af2db47e689a4e86b55dd51a26451e3d',
    ),
    'trace-table F4 --xi 1,0 --nmax 4': (
        '0:c2fba6e5e09b7ff60a65f7d97bbabb9cc002a943fc3402bd47c9b698ac80791d',
        '0:54056c028b954e8d370a0fad8b3716166fdb93d70b7166fb69efc592fac1193b',
        '0:e59dae8a5ab6070b56f1632cf22caa55b676b6a1295ccbc20667171a0c15bf23',
        '0:e59dae8a5ab6070b56f1632cf22caa55b676b6a1295ccbc20667171a0c15bf23',
        '0:97eb4d052551197cc2fa2c651a660d45b82646fcba297235396c3ea7505a6f2d',
        '0:97eb4d052551197cc2fa2c651a660d45b82646fcba297235396c3ea7505a6f2d',
    ),
    'verify F4 --suite all --nmax 4': (
        '0:9abed65ba7217f6c81db792a114ba2dc89e0e65ce9d125cb163d24b6a25b2a9d',
        '0:c681daac707998f87fa4680db6cd7790eea2aec1c8cf72d922b350329679783d',
        '0:e3b49aa756c7da98d60de5ad2eb48dcc489d1912ff41d7b5cdb2485377bab0b8',
        '0:e3b49aa756c7da98d60de5ad2eb48dcc489d1912ff41d7b5cdb2485377bab0b8',
        '0:b6cdc8a6b65a90840386a3cbfbbbf7bd6ee4ad931fd62687fde12905e6b5620e',
        '0:b6cdc8a6b65a90840386a3cbfbbbf7bd6ee4ad931fd62687fde12905e6b5620e',
    ),
    'verify F2 --suite all --nmax 4': (
        '0:c9e69e142e87b947a7bb264def361c283ebfa4e4ad286474380d58c8251cebd7',
        '0:0f7fd01be9e28b071c43807e1af57cbd0e03d593beb6a84fd29718a4c688a52a',
        '0:1970db598343af7639edf62e0bdcc15328b673dffb7b3761e7ec593616b58ed2',
        '0:1970db598343af7639edf62e0bdcc15328b673dffb7b3761e7ec593616b58ed2',
        '0:eef17a2cc3d25a5b5263ca90ec562725593bbf6ac383a51e1133c32d58259aaf',
        '0:eef17a2cc3d25a5b5263ca90ec562725593bbf6ac383a51e1133c32d58259aaf',
    ),
}


def test_cli_bytes_pinned(capsys):
    """Every command, format and --quiet setting writes the pinned bytes."""
    for line, expected in _PINNED_CLI.items():
        command, field, *rest = line.split()
        got = []
        for fmt in ('text', 'json', 'csv'):
            for quiet in ([], ['--quiet']):
                rc, out, _ = run(capsys, [command] + _PINNED_FIELDS[field]
                                 + rest + ['--format', fmt] + quiet)
                got.append(f"{rc}:{hashlib.sha256(out.encode()).hexdigest()}")
        assert tuple(got) == expected, line


def test_json_output_is_indented_dumps(capsys):
    """Every pinned command line writes, with --format json, exactly
    json.dumps(indent=2) of the payload it loads to."""
    for line in _PINNED_CLI:
        command, field, *rest = line.split()
        for quiet in ([], ['--quiet']):
            _, out, _ = run(capsys, [command] + _PINNED_FIELDS[field] + rest
                            + ['--format', 'json'] + quiet)
            assert_indented_dumps(out)


class _ListSub(list):
    """A list subclass, which json encodes as a list."""


@pytest.mark.parametrize('obj', [
    {}, [], [[]], [{}], [{}, {}], [[], [1]], [{'a': 1}, {}],
    [{'a': 1}, [1, 2]], [[1, [2]], [3]], [{'a': [1]}, {'a': 2}],
    {'a': {'b': {'c': [1, {'d': []}]}}},
    [{'x': '},\n  {', 'y': '],'}, {'x': '}, {', 'y': '],\n['}],
    [['a\nb', '],'], ('é', '\u2603 \x00')],
    {'s': 'grüße', 'rows': [{'k': 'ö'}, {'k': '}'}]},
    [True, False, None, 1.5, -0.0, 1e300, float('inf'), float('nan')],
    ((1, 2), (3, 'a')), {'t': (1, (2, 3))}, [(1,), [2]],
    {1: [1], None: {'a': (1,)}, 2.5: 0, False: []},
    'a string', 7, None,
    # rows of one kind whose items hold a container
    [{'a': _ListSub([1])}, {'a': 2}], [[1], _ListSub([2])],
    [{'a': collections.OrderedDict(b=1)}, {'a': 2}],
    [collections.OrderedDict(a=1), collections.OrderedDict(a=(2, 3))],
    [[1, (2, 3)], [4]], [{'a': 1}, {'b': ()}],
    [[[]], [1]], [[1, []], [2]], [[1], [2, []]],
    # rows of one shape
    [{'a': 1, 'b': '%s'}, {'a': 2, 'b': '%'}], [{'%s': '%d', '"': '\n'}],
    [{1: 'a', None: -0.0, True: float('nan')}, {1: 'b', None: 2, True: 3}],
    [[1, 'a\n'], [2, '],\n[']], [(1, '},\n  {'), [2, 'é']], [(None,)],
    {'rows': [{'k': 'ö', 'v': float('inf')}], 'more': [[True, False]]},
    # rows of mixed shape: unequal keys, key order, lengths or kinds
    [{'a': 1, 'b': 2}, {'b': 1, 'a': 2}], [{'a': 1}, {'b': 1}],
    [{'a': 1, 'b': 2}, {'a': 1}], [[1, 2], [3]], [(1, 2), (3,)],
    [{'a': 1}, [1]], [{'a': 1}, {'a': 2}, 3], [[1, 2], _ListSub([3, 4])],
    # rows of one kind that hold a container among their scalars
    [[1, [2]], [3, 4]], [{'a': (1,)}], [{'a': 1}, {'a': {}}],
])
def test_json_text_matches_indented_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


_AWKWARD = ('%', '%s', '"', '\n', '},\n  {', '],', 'grüße \u2603')


@pytest.mark.parametrize('keys, rows', [
    (('a', 'b'), []),
    (('xi',), [('0,1',)]),
    (('xi', 'trace', 'outcome'), [('0', '0', 'unstable')]),
    (_AWKWARD, [_AWKWARD, _AWKWARD[::-1]]),
    (('n', 'ok', 'x', 'y', 'z'),
     [(None, True, -0.0, float('nan'), float('inf')),
      (1, False, 1.5, -float('inf'), 10 ** 30)]),
    (None, []),
    (None, [(1, '%s')]),
    (None, [_AWKWARD, _AWKWARD, _AWKWARD]),
])
def test_json_text_renders_column_tables(keys, rows):
    """A _Columns is rendered as the list of dicts (or, without keys, of
    lists) it stands for, on its own and inside a payload."""
    width = len(keys) if keys is not None else len(rows[0]) if rows else 1
    table = cli._Columns(keys, [[r[i] for r in rows] for i in range(width)])
    listed = [list(r) if keys is None else dict(zip(keys, r)) for r in rows]
    assert cli._json_text(table) == json.dumps(listed, indent=2)
    payload = {'schema': 1, 'results': table, 'after': [1, {'a': None}]}
    assert cli._json_text(payload) == json.dumps(
        {**payload, 'results': listed}, indent=2)


# -- errors --------------------------------------------------------------------------


def test_usage_errors(capsys):
    for argv in (
        ['check', '--p', '4', '--xi', '1'],              # not a prime
        ['check', '--p', str(2 ** 61 - 1), '--xi', '1'],  # p >= MAX_PRIME
        ['check', '--p', '3', '--xi', 'x'],              # unparsable element
        ['check', '--p', '3', '--e', '2',
         '--modulus', '1,2,1', '--xi', '1'],             # reducible modulus
        ['trace-table', '--p', '3', '--xi', '1', '--nmax', '0'],
        ['generate', '--p', '3', '--xi', '1', '--n', '0'],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == cli.EXIT_USAGE, argv
        assert err.startswith('error:')


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(['verify', '--p', '3', '--suite', 'nonsense'])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(['check', '--p', '3'])                  # --xi is required
    assert exc.value.code == 2


def test_cap_only_where_a_degree_bound_is_read(capsys):
    """--cap bounds deg D_n, so only generate and verify accept it."""
    for command in (['check', '--xi', '1'], ['search'],
                    ['trace-table', '--xi', '1', '--nmax', '2']):
        with pytest.raises(SystemExit) as exc:
            cli.main(command[:1] + ['--p', '3'] + command[1:]
                     + ['--cap', '5'])
        assert exc.value.code == 2, command
        assert 'unrecognized arguments: --cap 5' in capsys.readouterr().err
    rc, out, err = run(capsys, ['generate', '--p', '3', '--xi', '1',
                                '--n', '3', '--cap', '10'])
    assert rc == cli.EXIT_USAGE
    assert out == '' and err.startswith('error: deg D_3 = 3^3 exceeds the cap 10')
    rc, _, _ = run(capsys, ['verify', '--suite', 'irreducibility',
                            '--p', '3', '--cap', '10'])
    assert rc == cli.EXIT_OK


def test_exit_code_constants():
    assert (cli.EXIT_OK, cli.EXIT_DISAGREE, cli.EXIT_USAGE,
            cli.EXIT_UNSTABLE) == (0, 1, 2, 3)


# -- the parser ----------------------------------------------------------------------


def test_parser_built_once_per_process(capsys, monkeypatch):
    """main parses with the parser built at import, and no call leaves state
    behind for the next: not a format, and not a usage error."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get('prog'))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, '__init__', counting_init)
    argvs = [['check'] + F9_ARGS + ['--xi', '0,1'],
             ['check', '--p', '7', '--xi', '3', '--format', 'csv'],
             ['search', '--p', '5', '--format', 'json'],
             ['search'] + F9_ARGS + ['--quiet'],
             ['generate', '--p', '2', '--xi', '1', '--n', '3'],
             ['verify', '--suite', 'irreducibility', '--p', '2']]
    for i in range(20):
        assert run(capsys, argvs[i % len(argvs)])[0] in (
            cli.EXIT_OK, cli.EXIT_UNSTABLE)
    assert built == []

    def pinned_text(line):
        return _PINNED_CLI[line][0].split(':')[1]

    def sha(out):
        return hashlib.sha256(out.encode()).hexdigest()

    run(capsys, ['search'] + F9_ARGS + ['--format', 'csv'])
    rc, out, _ = run(capsys, ['search'] + F9_ARGS)
    assert rc == cli.EXIT_OK and sha(out) == pinned_text('search F9')

    with pytest.raises(SystemExit) as exc:
        cli.main(['check'] + F9_ARGS + ['--format', 'xml', '--xi', '1'])
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()
    rc, out, _ = run(capsys, ['check'] + F9_ARGS + ['--xi', '0,1'])
    assert rc == cli.EXIT_OK and sha(out) == pinned_text('check F9 --xi 0,1')
    assert built == []


_HELP = (('-h', '--help'), 'help', False, argparse.SUPPRESS, None)
_COMMON = (
    (('--p',), 'p', True, None, None),
    (('--e',), 'e', False, 1, None),
    (('--modulus',), 'modulus', False, None, None),
    (('--format',), 'format', False, 'text', ('text', 'json', 'csv')),
    (('--out',), 'out', False, None, None),
    (('--quiet',), 'quiet', False, False, None),
)
_XI = (('--xi',), 'xi', True, None, None)
_CAP = (('--cap',), 'cap', False, 10_000, None)

#: per subcommand, in order: (option strings, dest, required, default,
#: choices) of every option
_PARSER_SHAPE = {
    'check': (_HELP,) + _COMMON + (_XI,),
    'search': (_HELP,) + _COMMON,
    'generate': (_HELP,) + _COMMON + (
        _CAP, _XI,
        (('--n',), 'n', True, None, None),
        (('--verify',), 'rabin_verify', False, False, None)),
    'verify': (_HELP,) + _COMMON + (
        _CAP,
        (('--suite',), 'suite', False, 'all',
         ('criterion', 'irreducibility', 'traces', 'minpoly', 'all')),
        (('--nmax',), 'nmax', False, None, None)),
    'trace-table': (_HELP,) + _COMMON + (
        _XI, (('--nmax',), 'nmax', True, None, None)),
}


def test_parser_shape_pinned():
    """Each subcommand keeps its options, in order, with their dest,
    required flag, default and choices."""
    [subparsers] = [a for a in cli._PARSER._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert subparsers.dest == 'command' and subparsers.required
    assert tuple(subparsers.choices) == tuple(_PARSER_SHAPE)
    for name, shape in _PARSER_SHAPE.items():
        got = tuple((tuple(a.option_strings), a.dest, a.required, a.default,
                     None if a.choices is None else tuple(a.choices))
                    for a in subparsers.choices[name]._actions)
        assert got == shape, name


def test_help_names_every_option(capsys):
    """--help exits 0 and names every subcommand, and every option of each
    subcommand.  Its wording differs between Python versions ("options:"
    against "optional arguments:"), so its bytes are not pinned."""
    with pytest.raises(SystemExit) as exc:
        cli.main(['--help'])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith('usage: invstab')
    assert all(name in out for name in _PARSER_SHAPE)
    for name, shape in _PARSER_SHAPE.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([name, '--help'])
        assert exc.value.code == 0, name
        out = capsys.readouterr().out
        assert out.startswith(f'usage: invstab {name}'), name
        for strings, *_ in shape:
            assert all(s in out for s in strings), (name, strings)
