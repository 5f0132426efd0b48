"""The benchmark's workloads: the invstab CLI commands each one runs, and the
checks that every command's output is correct.

Each command is one ``invstab.cli.main(argv)`` call with ``--format json``.
Its output is checked against ``goldens.json`` (written by
``make_goldens.py``) and split into operations: one per xi decided by
``search``, one per D_n certified by ``generate --verify``, one per oracle
report of ``verify``.  An operation fails on a wrong output, an unexpected
exit code, an exception or an oracle disagreement.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

GOLDENS = Path(__file__).resolve().parent / 'goldens.json'
#: the package source in the checkout; the benchmark never imports an
#: installed copy
SRC = Path(__file__).resolve().parent.parent / 'src'


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on sys.path.

    Raises FileNotFoundError when the checkout has no ``src/invstab``.
    """
    if not (SRC / 'invstab' / '__init__.py').is_file():
        raise FileNotFoundError(f'no invstab package under {SRC}')
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Field:
    """A field as the CLI names it: --p, --e and an optional --modulus."""

    p: int
    e: int = 1
    modulus: Optional[str] = None

    @property
    def key(self) -> str:
        key = str(self.p) if self.e == 1 else f'{self.p}^{self.e}'
        return key if self.modulus is None else f'{key}:{self.modulus}'

    @property
    def order(self) -> int:
        return self.p ** self.e

    def argv(self) -> list:
        out = ['--p', str(self.p)]
        if self.e != 1:
            out += ['--e', str(self.e)]
        if self.modulus is not None:
            out += ['--modulus', self.modulus]
        return out

    def element_text(self, packed: int) -> str:
        """The CLI's text for the element with this packed value.

        Written here from the documented encoding (base-p digits, low degree
        first) so the check does not lean on the code it checks.
        """
        return ','.join(str(packed // self.p ** i % self.p)
                        for i in range(self.e))

    def negate_text(self, text: str) -> str:
        """The text of -x, given the text of x."""
        return ','.join(str(-int(d) % self.p) for d in text.split(','))

    def sign_pool(self, text: str) -> list:
        """xi and -xi, without repeats (they coincide in characteristic 2)."""
        return sorted({text, self.negate_text(text)})


SEARCH_EXT = (Field(3, 6), Field(2, 10), Field(11, 2))
SEARCH_PRIME = (Field(101), Field(113), Field(127), Field(193), Field(241))
#: (field, n, xi): D_n has degree p^n; every xi here and its negative are
#: stable
CERTIFY = ((Field(3), 5, '1'), (Field(2), 8, '1'),
           (Field(3, 2, '2,2,1'), 4, '0,1'), (Field(7, 2), 2, '2,0'))
VERIFY = (
    ['verify', '--p', '2', '--e', '4', '--nmax', '5'],
    ['verify', '--p', '3', '--e', '2', '--nmax', '3'],
    ['verify', '--suite', 'traces', '--p', '5', '--e', '2'],
)


@dataclass(frozen=True)
class Command:
    """One CLI call, the number of operations it carries and its checker.

    ``check(rc, stdout)`` returns the number of failed operations.  ``seeds``
    is the number of xi whose stability the command decides.
    """

    argv: list
    ops: int
    seeds: int
    check: Callable[[Optional[int], str], int]


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple
    commands: tuple

    @property
    def ops(self) -> int:
        return sum(c.ops for c in self.commands)

    @property
    def seeds(self) -> int:
        return sum(c.seeds for c in self.commands)


def load_goldens() -> dict:
    with open(GOLDENS, encoding='utf-8') as fh:
        return json.load(fh)


def _json_or_none(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _search_command(field: Field, golden: dict) -> Command:
    traces, witnesses = golden['trace'], golden['witness']

    def check(rc, stdout):
        out = _json_or_none(stdout)
        rows = out['results'] if out is not None else ()
        if rc != 0 or len(rows) != field.order:
            return field.order
        bad = 0
        for v, row in enumerate(rows):
            w = witnesses[v]
            ok = (row['xi'] == field.element_text(v)
                  and row['trace'] == str(traces[v]))
            if w == 0:
                ok = (ok and row['outcome'] == 'stable'
                      and row['witness_n'] is None
                      and isinstance(row['preperiod'], int)
                      and row['preperiod'] >= 0
                      and isinstance(row['period'], int)
                      and row['period'] >= 1)
            else:
                ok = (ok and row['outcome'] == 'unstable'
                      and row['witness_n'] == w
                      and row['preperiod'] is None
                      and row['period'] is None)
            bad += not ok
        return bad

    argv = ['search'] + field.argv() + ['--format', 'json']
    return Command(argv, field.order, field.order, check)


def _certify_command(field: Field, n: int, xi: str, golden: dict) -> Command:
    def check(rc, stdout):
        out = _json_or_none(stdout)
        ok = (rc == 0 and out is not None
              and out['xi'] == xi and out['n'] == n
              and out['degree'] == field.p ** n == golden['degree']
              and out['criterion_irreducible'] is True
              and out['rabin_irreducible'] is True
              and hashlib.sha256(out['poly'].encode()).hexdigest()
              == golden['sha256'])
        return 0 if ok else 1

    argv = (['generate'] + field.argv()
            + ['--xi', xi, '--n', str(n), '--verify', '--format', 'json'])
    return Command(argv, 1, 1, check)


def verify_key(argv) -> str:
    return ' '.join(argv)


def _verify_command(argv, golden: list) -> Command:
    def check(rc, stdout):
        out = _json_or_none(stdout)
        if rc != 0 or out is None or out['agree'] is not True:
            return len(golden)
        got = [[r['label'], r['params'], len(r['pairs']), r['agree']]
               for r in out['reports']]
        if len(got) != len(golden):
            return len(golden)
        return sum(g != want for g, want in zip(got, golden))

    seeds = sum(r[0] == 'criterion_vs_direct' for r in golden)
    return Command(list(argv) + ['--format', 'json'], len(golden), seeds,
                   check)


def build(name: str, seed: int, goldens: dict) -> Workload:
    """The workload's commands; ``seed`` only picks the certify xi."""
    if name == 'search-ext':
        fields = SEARCH_EXT
        commands = [_search_command(f, goldens['search'][f.key])
                    for f in fields]
    elif name == 'search-prime':
        fields = SEARCH_PRIME
        commands = [_search_command(f, goldens['search'][f.key])
                    for f in fields]
    elif name == 'certify':
        # xi and -xi give D_n(X) and +-D_n(-X): different inputs, same work,
        # so the seed varies the input without varying the cost
        rng = random.Random(seed)
        fields = tuple(f for f, _, _ in CERTIFY)
        commands = []
        for field, n, named in CERTIFY:
            xi = rng.choice(field.sign_pool(named))
            golden = goldens['certify'][field.key][xi]
            commands.append(_certify_command(field, n, xi, golden))
    elif name == 'verify':
        fields = (Field(2, 4), Field(3, 2), Field(5, 2))
        commands = [_verify_command(argv, goldens['verify'][verify_key(argv)])
                    for argv in VERIFY]
    else:
        raise ValueError(f'unknown workload {name!r}')
    return Workload(name, fields, tuple(commands))


NAMES = ('search-ext', 'search-prime', 'certify', 'verify')
