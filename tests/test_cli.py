"""End-to-end tests for the command line front end."""

import csv
import hashlib
import io
import json

import pytest

from invstab import cli, criterion
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


def test_search_builds_no_rows(capsys, monkeypatch):
    """search prints Tr(xi) and the cycle data, so it needs no table row."""
    def no_rows(*args):
        raise AssertionError("search built a trace table row")
    monkeypatch.setattr(criterion, 'trace_rows', no_rows)
    monkeypatch.setattr(criterion, '_row_v', no_rows)
    for argv in (F9_ARGS, F25_ARGS, ['--p', '7']):
        assert run(capsys, ['search'] + argv)[0] == cli.EXIT_OK


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
