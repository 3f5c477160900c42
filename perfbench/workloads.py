"""The four benchmark workloads: seed -> input files and one round's commands.

Nothing here imports lclab.  A workload is a list of CLI argument vectors
plus the files they read; the seed only draws the custom g tables and the
evaluation points, and the command lines never change shape between seeds,
so run cost varies little with the seed.

Each command carries the output check the benchmark applies to it:

  digest   stdout sha256 and exit code equal those recorded in expected.json
           at the commit that added the benchmark (fixed arguments only);
  paper    digest, plus the paper's value appears in stdout;
  pass     a self-checking command on seed-drawn input: exit 0 and PASS;
  verdict  exit code and PASS/FAIL head line agree, and the oracle command
           (check genfun on the same custom table, which shares no code with
           the recursion) must PASS;
  rejects  input outside the theory (a g table with a negative entry): the
           command must exit 2 or name the negative entries.  It does
           neither at the seed commit (ROADMAP item 2(a)), so these commands
           count as failed operations until that defect is fixed.

Sizes are set by run time (about 2 to 5 s per round here), not by CPython's
4300-digit int/str limit, which first bites near n = 1500 (ROADMAP 2(c)) and
so lies past every workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PAPER_TABLE1 = "2 5 17 54 162 469 1330"
PAPER_HZ_WINDOW = "centers n<=512"

# The (sigma, id) cache entry the cache workload reads, and the entry that is
# corrupt in every fresh copy of the prepared directory.
CACHE_ENTRY = ("sigma", "id", 300)
CORRUPT_ENTRY = ("one", "id", 120)
CACHE_DIR = "cache"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: str
    paper: str | None = None
    oracle: tuple[str, ...] | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def layer_name(self) -> str:
        """cli.<subcommand>_s metric name of this command."""
        if self.argv[0] == "check":
            return "cli.check_" + self.argv[1].replace("-", "_") + "_s"
        return f"cli.{self.argv[0]}_s"


@dataclass
class Workload:
    name: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)
    uses_cache: bool = False


def _cmd(line: str, check: str = "digest", **kw) -> Command:
    return Command(tuple(line.split()), check, **kw)


def _table(values) -> str:
    return "".join(f"{v}\n" for v in values)


def _point(rng: random.Random, den: int, nums) -> str:
    """A seed-drawn rational with a fixed denominator, so that the Fraction
    sizes, and with them the cost, do not depend on the seed.  Commands pass
    it as --x=VALUE, since argparse reads a bare "-5/3" as an option."""
    return f"{rng.choice((-1, 1)) * rng.choice(nums)}/{den}"


def rows(rng: random.Random) -> Workload:
    # g(1) = 1, then bounded nonnegative integers: the integer build kernel.
    table = [1] + [rng.randint(0, 9) for _ in range(199)]
    oracle_x = _point(rng, 3, (4, 5, 7, 8))
    return Workload(
        "rows",
        [
            _cmd("check horizontal --g sigma --h id --n-max 250"),
            _cmd("triangle --g sigma --h id --n 200 --format json"),
            _cmd("check horizontal --g sigma --h one --n-max 300"),
            _cmd(
                "check horizontal --g custom=g-rows.txt --h id --n-max 200",
                "verdict",
                oracle=tuple(
                    f"check genfun --g custom=g-rows.txt --h id --n-max 200 --xs={oracle_x}".split()
                ),
            ),
        ],
        {"g-rows.txt": _table(table)},
    )


def columns(rng: random.Random) -> Workload:
    length = rng.randint(5, 8)
    table = [1] + [rng.randint(0, 9) for _ in range(length - 1)]
    table[rng.randint(1, length - 1)] = -rng.randint(1, 9)
    return Workload(
        "columns",
        [
            _cmd("check hz --C 2 --m-max 9", "paper", paper=PAPER_HZ_WINDOW),
            _cmd("check table1 --m-max 7", "paper", paper=PAPER_TABLE1),
            _cmd("check cscan --g one --h id --C 2 --m-max 8 --include-m1"),
            _cmd("check vertical --g sigma --h id --n-max 150"),
            _cmd("check vertical --g one --h id --m 2 --n-max 600"),
            _cmd(f"check horizontal --g custom=g-neg.txt --h id --n-max {length}", "rejects"),
            _cmd(f"check vertical --g custom=g-neg.txt --h id --n-max {length}", "rejects"),
        ],
        {"g-neg.txt": _table(table)},
    )


def oracles(rng: random.Random) -> Workload:
    xs = ",".join(_point(rng, 2, (3, 5, 7)) for _ in range(2))
    x = _point(rng, 3, (4, 5, 7, 8))
    return Workload(
        "oracles",
        [
            _cmd("check genfun --g sigma --h id --n-max 100"),
            _cmd(f"check genfun --g square --h one --n-max 100 --xs={xs}", "pass"),
            _cmd(f"check euler --g sigma --n-max 150 --x={x}", "pass"),
            _cmd("check conversion --g sigma --n-max 110"),
            _cmd("check no-identity --n-max 22"),
            _cmd("check closed-forms --n-max 60"),
        ],
    )


def cache(rng: random.Random) -> Workload:
    # Fixed inputs: every round starts from a fresh copy of the same prepared
    # directory, so it sees the same hits, the same miss and the same corrupt
    # entry (never repaired at the seed commit, ROADMAP 2(b)).
    c = f"--cache {CACHE_DIR}"
    return Workload(
        "cache",
        [
            _cmd(f"triangle --g sigma --h id --n 300 {c} --format json"),
            _cmd(f"triangle --g sigma --h id --n 300 {c} --format csv"),
            _cmd(f"triangle --g sigma --h id --n 200 {c} --format json"),
            _cmd(f"triangle --g sigma --h id --n 300 {c} --scaled"),
            _cmd(f"triangle --g square --h id --n 150 {c} --format csv"),
            _cmd(f"triangle --g one --h id --n 120 {c} --format csv"),
        ],
        uses_cache=True,
    )


WORKLOADS = {f.__name__: f for f in (rows, columns, oracles, cache)}


def make(name: str, seed: int) -> Workload:
    """The workload `name` with its inputs drawn from `seed`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
