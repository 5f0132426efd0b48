"""End-to-end tests for the command line front end."""

import csv
import io
import json

import pytest

from invstab import cli
from invstab.criterion import StabilityVerdict, decide_inverse_stability
from invstab.fields import finite_field
from invstab.iteration import denominator
from invstab.polys import artin_schreier, poly_to_text
from invstab.xcheck import EquivalenceReport


F9_ARGS = ['--p', '3', '--e', '2', '--modulus', '2,2,1']
F25_ARGS = ['--p', '5', '--e', '2', '--modulus', '2,4,1']


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


def test_verify_disagreement_exit(capsys, monkeypatch):
    fake = EquivalenceReport.build('stub', {'p': 2, 'e': 1, 'modulus': None},
                                   None, None, [(0, True, False)])
    monkeypatch.setattr(cli, '_trace_tuple_suite', lambda ctx: fake)
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


# -- errors --------------------------------------------------------------------------


def test_usage_errors(capsys):
    for argv in (
        ['check', '--p', '4', '--xi', '1'],              # not a prime
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
