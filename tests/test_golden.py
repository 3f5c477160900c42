"""Golden corpus of CLI outputs.

Every `check` subcommand in text and json form, `triangle` in each format
with and without --scaled, and the usage-error edge cases run through
`cli.main`.  Each case pins the exit code, the sha256 of stdout and the
exact stderr.  The digests were recorded before the scan kernel and the
check table were refactored; a mismatch means the CLI output changed, so
fix the code, not the digest.

The option inventory pins every flag of every subparser (strings, dest,
type, default, choices, metavar, help), so a refactor of the parser can
neither add nor drop one.
"""

import argparse
import hashlib

import pytest

from lclab.cli import build_parser, main

# custom g tables written into the working directory of each case
TABLES = {
    "gz.txt": "1\n0\n0\n0\n9\n0\n2\n",  # zeros inside rows: horizontal failures
    "gf.txt": "1\n3/2\n4/3\n7/4\n6/5\n2\n",  # Fraction-valued: g(n) = sigma(n)/n
}

# argv -> (exit code, sha256 of stdout, stderr)
GOLDEN = {
    'check horizontal --g sigma --h id --n-max 12': (0, '1b8b7d197320e082bef20d8f52dbd01000eb1599335aadc68ae2f0c31b354794', ''),
    'check horizontal --g sigma --h id --n-max 12 --format json': (0, 'c43648b8c781dbd30f7e3e0f33cbc3f97204e0dcc9c8b27a3b8d144692ff49cf', ''),
    'check horizontal --g one --h one --n-max 10': (0, '04975f6cbf4d6975a22d34e9514f4e2c9eaedc259856a077f2df522f89eebb86', ''),
    'check horizontal --g custom=gz.txt --h id --n-max 7': (1, '9d9b02472f5768c52aaaab32f7dbc04395966889433af9fd1fce7f12dc868cfa', ''),
    'check horizontal --g custom=gz.txt --h one --n-max 7 --format json': (1, '78ae5a4740268fb511c84c88cb0eb2ddd493aec5879b796f29d2d50cf5175c59', ''),
    'check horizontal --g custom=gf.txt --h one --n-max 6': (0, '2d24aead9316847a4c892417a16a65f46ed5407c40b1d3917f14a4bb0da880c4', ''),
    'check horizontal --g one --h id --m 2 --n-max 10': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: column selection applies to vertical checks only\n'),
    'check vertical --g one --h id --n-max 12': (1, '83e0e5adcb61c2881a8118e7560f9d4e27507f92477e84e9978f8d1a4e52d82b', ''),
    'check vertical --g one --h id --n-max 12 --format json': (1, 'df6bb92d6d62f2368a3b69ee2de196807b08e30c0b49134f8792fc3e11118d66', ''),
    'check vertical --g one --h id --n-max 40': (1, '8bedbcb8eac1e4daf02e8cd91364c087720f84413c8eaff78d8f16be0885b88d', ''),
    'check vertical --g one --h one --n-max 14': (0, 'cf2ee9867fbe70150cd995d63f38d1283cf9df00aa8c36a3281c3801b85bdf4f', ''),
    'check vertical --g sigma --h id --n-max 20 --m 2': (1, 'b8ced244b14d223b8bf3a4f6a40885b0270195e7828045bb22e56c0c5baa16b0', ''),
    'check vertical --g sigma --h id --n-max 20 --m-from 2 --m-to 4 --format json': (1, '039b2ad6e0b723e0d4d143c66caa5f24ae38861f8d5c796a695ef0aded038382', ''),
    'check vertical --g square --h one --n-max 15 --m-to 3': (0, 'f0091ba1db4b3b504f1970bf8d7b7a06a0db1c8a46517e5c360e36b387bea0b7', ''),
    'check vertical --g custom=gz.txt --h id --n-max 7': (1, '6e321e0e4b313523026cf83a3158c015dccc3e64348bf1dd317f13c4925510ad', ''),
    'check vertical --g custom=gf.txt --h id --n-max 6': (1, '21f35141062e2f4ba80b67a4bcbdf44dbd50596854076b637f1d49405bb9fad1', ''),
    'check vertical --g custom=gf.txt --h one --n-max 6 --format json': (1, '9698896928c6d4a52bc9abcffa9fb1a50f09cf651c6d610e7a797cc5867bf9df', ''),
    'check vertical --g one --h id --m 1 --m-to 3 --n-max 10': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: --m and --m-from/--m-to are mutually exclusive\n'),
    'check vertical --g one --h id --m-from 3 --m-to 2 --n-max 10': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: bad column range 3..2\n'),
    'check cscan --g one --h id --C 2 --m-max 5 --include-m1': (1, '2578dfcc581542f34a9d1cc6450262d630fdb3cf2c36b80cee4bd464bb0c8ea8', ''),
    'check cscan --g one --h id --C 2 --m-max 5 --include-m1 --format json': (1, '1ce74c5aa94cf4cb6d9d2bac46af7355e2bce025818d408bbe22ae8ea47f198b', ''),
    'check cscan --g sigma --h id --C 3/2 --m-max 6': (0, 'add2db791cc0dbe9d5df6da3bc7bcbeeb79139f9b6f5a766811b8c5b0648377c', ''),
    'check cscan --g one --h one --C 2 --m-max 4 --format json': (0, '1a6ebbb209c770fe6def851e7d8bfa82fcc330ad32cac39dd35550e7f466d79f', ''),
    'check cscan --g one --h id --C 1/2 --m-max 3': (0, '8d3c3b839af3805eee878a4b416fdffa82e10e7ae2063815648870a5e7ffca5f', ''),
    'check cscan --g one --h id --C 2 --m-max 13': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: window floor(C^m_max) = 8192 exceeds 4096; scan fewer columns or a smaller C\n'),
    'check cscan --g one --h id --C 2 --m-max 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: --m-max must be >= 1, got 0\n'),
    'check cscan --g one --h id --C 0 --m-max 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: the window base C must be positive\n'),
    'check conversion --g square --n-max 8': (0, '6caf4355c8d6a5d94acf63f67d02ae997bb4d3e812057987f9c8067af04c5c76', ''),
    'check conversion --g sigma --n-max 8 --format json': (0, 'd5238fbd9fc00b33a7ea4a0d5061173354d9b87d16216be0814d209688978617', ''),
    'check genfun --g sigma --h id --n-max 8': (0, '9a22c46d50d911eea0ee930f386d67adb8793758a194f10c971ee1574e5555b9', ''),
    'check genfun --g one --h one --n-max 8 --xs 1,2,-1/2 --format json': (0, 'c29cf130d216bcd925d2eca867d0913f1a154a6922a8d2bf089010e13b20c0e6', ''),
    'check genfun --g sigma --h id --n-max 8 --xs 1,x': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "lclab: error: cannot parse 'x' as an integer or p/q\n"),
    'check euler --g sigma --n-max 8 --x 1/3': (0, '7c49cc0e65c1e369093bdc2fe16dba927bfd361eeb019f2a25387e62e5d590e6', ''),
    'check euler --g square --n-max 8 --x 2 --format json': (0, '6662aa19a0d19ddda191d62c5f93407b1f1d29780466e28bd590c835185bd060', ''),
    'check no-identity --n-max 6': (0, '82062c66a114b5919460e4bab787126153a6db864f123dc5c261f8855c0039e4', ''),
    'check no-identity --n-max 6 --format json': (0, '563eba75b2e6ebbab4aece7b8704d0f7ca59df3a558d9a5262fe1f9630c11c60', ''),
    'check hz --C 2 --m-max 5': (0, '9ad704468bff2d4028721d1a7fd734a701947279b67b16c78e66f30816c218ba', ''),
    'check hz --C 2 --m-max 5 --format json': (0, '3818251bb42d0567f31267abb9b732c81f4ea5350037c39cc0033117bc4de5ac', ''),
    'check hz --C 3/2 --m-max 7': (0, '6961fb5d6509f6beb39df6d1d741899a208944ffff5d5f468c76d90a69226bb9', ''),
    'check hz --C 2 --m-max 13': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: window floor(C^m_max) = 8192 exceeds 4096; scan fewer columns or a smaller C\n'),
    'check hz --C 2 --m-max 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: --m-max must be >= 1, got 0\n'),
    'check hz --C 2 --m-max 0 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'lclab: error: --m-max must be >= 1, got 0\n'),
    'check table1 --m-max 4 --n-limit 60': (0, '75979006b3c46ff1a6f72320dc0707f6505880d4ec3f35be4569ebbb60b1dd9e', ''),
    'check table1 --m-max 4 --n-limit 60 --format json': (0, 'ff295876e482a2523f736dcfce0ff79f3d7d91e4e6b994a87dee7a2ab2ee7748', ''),
    'check table1 --m-max 2 --n-limit 3': (1, '13c76b4da450a15e6614e783a55d34d5b18c96ed6ba7b03b1fe128450116f068', ''),
    'check table1 --m-max 2 --n-limit 3 --format json': (1, '2306fd18f01e197ff4c80b460154d27f4dbe88f556c7a3f279750a9f5c185ebe', ''),
    'check closed-forms --n-max 8': (0, '21ed2f7b091d4a69cc38bdb0cd573cc5724d6e7dc26c14a03c0b2ffe0e4d89f3', ''),
    'check closed-forms --n-max 8 --format json': (0, '5ede5e8db3f1c699ce43904d97f303cb2213546ab67fd4e5b23eaa89228f6707', ''),
    'check horizontal --g mystery --h id --n-max 5': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "lclab: error: unknown family 'mystery'; expected one|id|square|sigma|sigma_k=K|custom=PATH\n"),
    'check genfun --g custom=gf.txt --h id --n-max 9': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "lclab: error: 'custom:gf.txt' is only defined for n <= 6, asked for 9\n"),
    'triangle --g sigma --h id --n 6': (0, '8bcb9b334090245a2848e007f8097d903d58cbf728c4469406a1185bb0ba3e93', ''),
    'triangle --g sigma --h id --n 6 --scaled': (0, '28fdd9c35c1ee3c8056d2b08e94e5547ba0de16fa6373b61578878d7aa516b9f', ''),
    'triangle --g sigma --h id --n 6 --format json': (0, '299a064bcf856a15a7d9f4751c90cd03d17719f3f47d4f1a020cc1e18c87741b', ''),
    'triangle --g sigma --h id --n 6 --format json --scaled': (0, '338560077bb56944e9026cbd517d95685688d07a27607ba251342ec071554729', ''),
    'triangle --g sigma --h id --n 6 --format csv': (0, '9beadea4429d4bd89de89cd6ba9517f74d891c258862ff614660f0f0fb67abe0', ''),
    'triangle --g sigma --h id --n 6 --format csv --scaled': (0, '211f84f3b9382b3eb55d3479bdc019a8195b3e80ffd2e3e955824b17d95493ef', ''),
    'triangle --g one --h one --n 5 --scaled': (0, 'abf98ce21b13aee75dd4ad99fb66d0c6c44492bbbbb733abc278e3a0500fac87', ''),
    'triangle --g one --h one --n 5 --format csv --scaled': (0, 'b225bb3001b26c18a8cec178bdd2e39a0021ced463695e8fa83438338d1987e1', ''),
    'triangle --g custom=gf.txt --h one --n 5 --format json --scaled': (0, 'b906a0280b4f6dbc30738c90e7ac41c9defee0987666490da2f547d0bde8a664', ''),
    'triangle --g custom=gf.txt --h id --n 5 --scaled': (0, 'ee867e9486a5aa20a39fedaea8437a3f704963ad34133e28153e2e9bb765cef2', ''),
    'triangle --g sigma_k=2 --h id --n 5 --format csv': (0, 'aa09940a7ffaa2a1272af63b5065525ecc0602ea0b41a26b3b22fe105b7fad21', ''),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in TABLES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LCLAB_CACHE", raising=False)
    return tmp_path


def run(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr()
    return code, hashlib.sha256(out.out.encode()).hexdigest(), out.err


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_output(argv, workdir, capsys):
    assert run(capsys, argv) == GOLDEN[argv]


def _inventory(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """Every option of parser and of its subparsers, keyed by command path."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                out[f"{prefix}{name}:help"] = helps[name]
                out.update(_inventory(sub, f"{prefix}{name} "))
        elif not isinstance(action, argparse._HelpAction):
            out.setdefault(prefix.strip(), []).append((
                tuple(action.option_strings),
                action.dest,
                action.required,
                action.default,
                getattr(action.type, "__name__", action.type),
                tuple(action.choices) if action.choices else None,
                action.metavar,
                action.help,
                type(action).__name__,
            ))
    return out


INVENTORY = {
    'check closed-forms': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--n-max',), 'n_max', True, None, 'int', None, None, None, '_StoreAction'),
    ],
    'check closed-forms:help': 'six classic families vs their closed forms',
    'check conversion': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--g',), 'g', True, None, None, None, 'one|id|square|sigma|sigma_k=K|custom=PATH', 'arithmetic function', '_StoreAction'),
        (('--n-max',), 'n_max', True, None, 'int', None, None, None, '_StoreAction'),
    ],
    'check conversion:help': 'exponential vs geometric family bridge',
    'check cscan': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--g',), 'g', True, None, None, None, 'one|id|square|sigma|sigma_k=K|custom=PATH', 'arithmetic function', '_StoreAction'),
        (('--h',), 'h', True, None, None, ('one', 'id'), None, 'weight family', '_StoreAction'),
        (('--C',), 'C', True, None, None, None, 'P/Q', None, '_StoreAction'),
        (('--m-max',), 'm_max', True, None, 'int', None, None, None, '_StoreAction'),
        (('--include-m1',), 'include_m1', False, False, None, None, None, None, '_StoreTrueAction'),
    ],
    'check cscan:help': 'column log-concavity restricted to windows n <= C^m',
    'check euler': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--g',), 'g', True, None, None, None, 'one|id|square|sigma|sigma_k=K|custom=PATH', 'arithmetic function', '_StoreAction'),
        (('--n-max',), 'n_max', True, None, 'int', None, None, None, '_StoreAction'),
        (('--x',), 'x', True, None, None, None, 'P/Q', None, '_StoreAction'),
    ],
    'check euler:help': 'triangle rows vs Euler product',
    'check genfun': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--g',), 'g', True, None, None, None, 'one|id|square|sigma|sigma_k=K|custom=PATH', 'arithmetic function', '_StoreAction'),
        (('--h',), 'h', True, None, None, ('one', 'id'), None, 'weight family', '_StoreAction'),
        (('--n-max',), 'n_max', True, None, 'int', None, None, None, '_StoreAction'),
        (('--xs',), 'xs', False, None, None, None, 'LIST', 'comma-separated rationals', '_StoreAction'),
    ],
    'check genfun:help': 'triangle rows vs generating series at sample points',
    'check horizontal': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--g',), 'g', True, None, None, None, 'one|id|square|sigma|sigma_k=K|custom=PATH', 'arithmetic function', '_StoreAction'),
        (('--h',), 'h', True, None, None, ('one', 'id'), None, 'weight family', '_StoreAction'),
        (('--n-max',), 'n_max', True, None, 'int', None, None, None, '_StoreAction'),
        (('--m',), 'm', False, None, 'int', None, None, None, '_StoreAction'),
        (('--m-from',), 'm_from', False, None, 'int', None, None, None, '_StoreAction'),
        (('--m-to',), 'm_to', False, None, 'int', None, None, None, '_StoreAction'),
    ],
    'check horizontal:help': 'row log-concavity',
    'check hz': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--C',), 'C', True, None, None, None, 'P/Q', None, '_StoreAction'),
        (('--m-max',), 'm_max', True, None, 'int', None, None, None, '_StoreAction'),
    ],
    'check hz:help': 'windowed scan of divisor-sum series power coefficients',
    'check no-identity': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--n-max',), 'n_max', True, None, 'int', None, None, None, '_StoreAction'),
    ],
    'check no-identity:help': 'hook-length polynomials vs shifted divisor-sum rows',
    'check table1': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--m-max',), 'm_max', True, None, 'int', None, None, None, '_StoreAction'),
        (('--n-limit',), 'n_limit', False, 1500, 'int', None, None, None, '_StoreAction'),
    ],
    'check table1:help': 'first failing center per column of the (one, id) family',
    'check vertical': [
        (('--format',), 'format', False, 'text', None, ('text', 'json'), None, None, '_StoreAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
        (('--g',), 'g', True, None, None, None, 'one|id|square|sigma|sigma_k=K|custom=PATH', 'arithmetic function', '_StoreAction'),
        (('--h',), 'h', True, None, None, ('one', 'id'), None, 'weight family', '_StoreAction'),
        (('--n-max',), 'n_max', True, None, 'int', None, None, None, '_StoreAction'),
        (('--m',), 'm', False, None, 'int', None, None, 'single column', '_StoreAction'),
        (('--m-from',), 'm_from', False, None, 'int', None, None, None, '_StoreAction'),
        (('--m-to',), 'm_to', False, None, 'int', None, None, None, '_StoreAction'),
    ],
    'check vertical:help': 'column log-concavity',
    'check:help': 'run a verification or scan',
    'triangle': [
        (('--g',), 'g', True, None, None, None, 'one|id|square|sigma|sigma_k=K|custom=PATH', 'arithmetic function', '_StoreAction'),
        (('--h',), 'h', True, None, None, ('one', 'id'), None, 'weight family', '_StoreAction'),
        (('--n',), 'n', True, None, 'int', None, None, 'last row to build', '_StoreAction'),
        (('--format',), 'format', False, 'table', None, ('table', 'json', 'csv'), None, None, '_StoreAction'),
        (('--cache',), 'cache', False, None, None, None, 'DIR', 'cache directory (env LCLAB_CACHE wins)', '_StoreAction'),
        (('--scaled',), 'scaled', False, False, None, None, None, 'print integer-scaled entries and the per-row scale', '_StoreTrueAction'),
        (('--out',), 'out', False, None, None, None, 'FILE', 'write output to FILE instead of stdout', '_StoreAction'),
        (('--jobs',), 'jobs', False, None, 'int', None, 'N', 'accepted for compatibility; execution is sequential either way', '_StoreAction'),
    ],
    'triangle:help': 'build and print a coefficient triangle',
}


def test_option_inventory():
    assert _inventory(build_parser()) == INVENTORY
