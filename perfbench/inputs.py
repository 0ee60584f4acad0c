"""Workload inputs, generated from a seed.

Each workload is a guest program (or, for ``service-mix``, a session
list) plus the exact path counts the correctness gate expects.  The seed
only picks concrete ``sym_string`` seed strings from the fixed pools
below; input *lengths* are fixed, so path counts, and therefore the work
measured, do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.api.language import get_language
from repro.targets import pylite_packages as PL

#: pack name -> (module source, symbolic test spec).
PACKS = {
    "parseint": (PL.PARSEINT_SOURCE, PL.PARSEINT_TEST),
    "turnstile": (PL.TURNSTILE_SOURCE, PL.TURNSTILE_TEST),
    "rle": (PL.RLE_SOURCE, PL.RLE_TEST),
}

#: (pack, input length) -> (seed-string pool, exact LL path count).
#: Exhaustive exploration reaches every path whatever the seed string,
#: so the count is a function of the length alone.  The strings of one
#: pool were picked to cost the same: the string decides which path
#: comes first and how far the solver searches from the seed, so a mixed
#: pool (e.g. "cccpppp" next to "cpcpcpc") makes the cost depend on the
#: seed.
POOLS: Dict[Tuple[str, int], Tuple[Tuple[str, ...], int]] = {
    ("turnstile", 7): (("cpcpcpc", "pcpcpcp", "pccpccp", "cppcppc", "ccpcpcp"), 255),
    ("parseint", 2): (("12", "90", "55", "31", "47", "68", "23", "84"), 8),
    ("parseint", 3): (("123", "907", "555", "314", "271", "648", "802", "119"), 12),
    ("parseint", 4): (("1234", "9001", "2718", "4242", "3141", "5678", "8080", "1999"), 16),
    ("turnstile", 3): (("cpc", "pcc"), 15),
    ("turnstile", 4): (("cpcp", "pcpc", "cppc", "pccp"), 31),
    ("rle", 2): (("ab", "ba", "xy", "yx", "qz", "mn", "cd", "pq"), 2),
}

#: The serial workloads: (pack, input length).  Sessions are kept short
#: (a few tenths of a second) so that a run holds dozens of them: their
#: median is steady on a host whose speed drifts, and the session tail
#: has at least ten sessions beyond it.
SERIAL = {"pylite-turnstile": ("turnstile", 7), "pylite-rle": ("rle", 2)}

#: service-mix: the distinct programs of one session loop, one per
#: (pack, length), cheapest first.  Each is submitted twice, so the
#: second run of it can hit the daemon's persistent per-program cache
#: store.  The loop is short (about 3 s) so that a run holds several.
#: Five slots of two sessions each put the session median and p75 in
#: the middle of a slot's latencies rather than between two slots.
SERVICE_SLOTS = (("parseint", 3), ("parseint", 4), ("turnstile", 3), ("turnstile", 4),
                 ("rle", 2))

#: Clay branchy guest size for ``branchy-par``: 2**9 paths.
BRANCHY_BYTES = 9
BRANCHY_PATHS = 1 << BRANCHY_BYTES


@dataclass(frozen=True)
class Program:
    """One PyLite guest program and its exact LL path count."""

    pack: str
    seed_string: str
    source: str
    paths: int


def pylite_program(pack: str, seed_string: str) -> Program:
    """Pack module plus a main program over one symbolic string input."""
    module, test = PACKS[pack]
    (_kind, name, _default), = test["inputs"]
    declaration = get_language("pylite").declare_string(name, seed_string)
    source = f"{module}\n{declaration}\n{test['body']}\n"
    _pool, paths = POOLS[(pack, len(seed_string))]
    return Program(pack, seed_string, source, paths)


def serial_program(workload: str, seed: int) -> Program:
    """The seed's pick from the workload's (pack, length) pool."""
    pack, length = SERIAL[workload]
    pool, _paths = POOLS[(pack, length)]
    return pylite_program(pack, random.Random(seed).choice(pool))


def service_sessions(seed: int) -> List[Program]:
    """The service-mix session list for ``seed``.

    Every distinct program once, then all of them again in the same
    order, so a repeat is submitted five sessions after its first run,
    which two clients have finished by then.  The seed picks the seed
    strings only: which sessions overlap decides how often the shared
    pool is reconfigured, so a seeded order would make the cost depend
    on the seed.
    """
    rng = random.Random(seed)
    programs = [pylite_program(pack, rng.choice(POOLS[(pack, length)][0]))
                for pack, length in SERVICE_SLOTS]
    return programs + programs
