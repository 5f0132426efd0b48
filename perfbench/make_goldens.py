"""Write ``goldens.json``, the expected outputs the benchmark checks against.

Run from the repository root as ``python3 perfbench/make_goldens.py``.  It
drives the same CLI commands as the benchmark and stores, per workload:

* search: per xi, in packed order, the absolute trace and the witness index
  (0 for a stable xi).  The cycle data of stable rows is deliberately not
  stored, so a change of the state representation keeps the goldens valid.
* certify: for the named xi of each certify field and for -xi (the pool the
  workload seed draws from), the degree of D_n and the SHA-256 of its text.
  Both must be stable.
* verify: per command, each report's label, params, pair count and agreement.

Every stored output must itself be sound (exit 0, Rabin and the criterion
agree, every oracle report agrees); otherwise nothing is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import workloads as wl


def _run(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


def _search(cli, field):
    rc, out = _run(cli, ['search'] + field.argv() + ['--format', 'json'])
    if rc != 0:
        raise SystemExit(f'search over {field.key} exited {rc}')
    rows = out['results']
    return {'trace': [int(r['trace']) for r in rows],
            'witness': [r['witness_n'] or 0 for r in rows]}


def main() -> int:
    wl.use_checkout_source()
    from invstab import cli

    search = {f.key: _search(cli, f) for f in wl.SEARCH_EXT + wl.SEARCH_PRIME}

    certify = {}
    for field, n, named in wl.CERTIFY:
        pool = {}
        for xi in field.sign_pool(named):
            rc, _ = _run(cli, ['check'] + field.argv()
                         + ['--xi', xi, '--format', 'json'])
            if rc != 0:
                raise SystemExit(f'xi={xi} over {field.key} is not stable')
            rc, out = _run(cli, ['generate'] + field.argv()
                           + ['--xi', xi, '--n', str(n), '--verify',
                              '--format', 'json'])
            if not (rc == 0 and out['criterion_irreducible']
                    and out['rabin_irreducible']):
                raise SystemExit(f'D_{n} of xi={xi} over {field.key} '
                                 'is not certified')
            pool[xi] = {'degree': out['degree'],
                        'sha256': hashlib.sha256(
                            out['poly'].encode()).hexdigest()}
        certify[field.key] = pool

    verify = {}
    for argv in wl.VERIFY:
        rc, out = _run(cli, list(argv) + ['--format', 'json'])
        if rc != 0 or not out['agree']:
            raise SystemExit(f'{" ".join(argv)} did not agree')
        verify[wl.verify_key(argv)] = [
            [r['label'], r['params'], len(r['pairs']), r['agree']]
            for r in out['reports']]

    goldens = {'search': search, 'certify': certify, 'verify': verify}
    with open(wl.GOLDENS, 'w', encoding='utf-8') as fh:
        json.dump(goldens, fh, separators=(',', ':'), sort_keys=True)
        fh.write('\n')
    sizes = {k: len(v) for k, v in certify.items()}
    print(f'wrote {wl.GOLDENS.name}; certify pools {sizes}', file=sys.stderr)
    return 0


if __name__ == '__main__':
    sys.exit(main())
