"""Workload programs of the corolower benchmark and their expected outputs.

Each workload is one fixed program shape. The seed picks only start
values and resume values, always with a fixed number of digits, so the
step counts and the printed code size of a workload do not depend on
the seed. The expected outputs come from the Python generators below,
never from the corolower interpreter: an interpreter that is wrong must
not be able to agree with itself.

This module imports nothing from corolower, so the set-up time it
accounts for is only the generation of the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_INT_MIN = -(2**63)

# Every resumption (and every instance) does the same work at any count.
# At 20,000 fib resumptions and 4,000 instances an iteration took 6.5 s
# and 12 s: too few samples per run to be steady on a shared machine.
FIB_NEXTS = 10_000
MANY_INSTANCES = 1_000
WIDE_ARMS = 100
WIDE_NEXTS = 300
DEEP_ARMS = 800
DEEP_NEXTS = 800

# diff_program resumes each generator with this script, after
# instantiating it with the arguments 1, 2, ... (see corolower.cli).
DIFF_RESUMPTIONS = 100
DIFF_SCRIPT = (None,) + tuple(range(1, DIFF_RESUMPTIONS))


def wrap64(x: int) -> int:
    return (x - _INT_MIN) % 2**64 + _INT_MIN


# -- models: the mini-language generators, written as Python generators -----


def fib_model(a: int, b: int):
    while True:
        yield a
        a, b = b, wrap64(a + b)


def tally_model(start: int):
    total = start
    for _ in range(3):
        add = yield total
        if add is not None:
            total = wrap64(total + add)
    return total


def wide_model(arms: int, i: int):
    while True:
        for j in range(1, arms + 1):
            yield wrap64(i + j) if (i + j) % 2 == 0 else wrap64(i - j)
        i = wrap64(i + 1)


def protocol(gen, resumes) -> list:
    """What `next` returns for each resume value: the first value is
    discarded, a finished generator yields its return value once and
    null ever after."""
    out: list = []
    started = done = False
    for value in resumes:
        if done:
            out.append(None)
            continue
        try:
            out.append(gen.send(value if started else None))
        except StopIteration as stop:
            done = True
            out.append(stop.value)
        started = True
    return out


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One generator instance that `main` creates and resumes."""

    args: tuple
    resumes: tuple
    expected: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    generator: str
    instances: tuple[Instance, ...]
    # The generator's results under diff's script and arguments.
    trace_args: tuple
    trace_expected: tuple

    @property
    def expected_output(self) -> list:
        """What `main` prints: every result of every resumption, in order."""
        return [v for inst in self.instances for v in inst.expected]

    @property
    def resumptions(self) -> int:
        return sum(len(inst.resumes) for inst in self.instances)


def _digits(rng: random.Random, n: int) -> int:
    return rng.randint(10 ** (n - 1), 10**n - 1)


def fib_long(seed: int, nexts: int = FIB_NEXTS) -> Workload:
    """The paper's fib from seeded six-digit start values."""
    rng = random.Random(seed)
    a, b = _digits(rng, 6), _digits(rng, 6)
    source = f"""fn* fib() {{
  let a = {a}
  let b = {b}
  while (true) {{
    yield a
    let c = a
    a = b
    b = c + a
  }}
}}

fn main() {{
  let g = fib()
  let i = 0
  while (i < {nexts}) {{
    print(next(g))
    i = i + 1
  }}
}}
"""
    resumes = (None,) * nexts
    instance = Instance((), resumes, tuple(protocol(fib_model(a, b), resumes)))
    trace = protocol(fib_model(a, b), DIFF_SCRIPT)
    return Workload("fib-long", source, "fib", (instance,), (), tuple(trace))


def many_short(seed: int, instances: int = MANY_INSTANCES) -> Workload:
    """Many 3-round receivers, each resumed five times and then exhausted."""
    rng = random.Random(seed)
    k1, k2, k3, k4, k5 = (_digits(rng, n) for n in (4, 6, 4, 6, 4))
    source = f"""fn* tally(start) {{
  let total = start
  let round = 0
  while (round < 3) {{
    let add = yield total
    if (add == null) {{
      total = total
    }} else {{
      total = total + add
    }}
    round = round + 1
  }}
  return total
}}

fn main() {{
  let i = 0
  while (i < {instances}) {{
    let t = tally(i * {k1} + {k2})
    print(next(t))
    print(next(t, i * {k3} - {k4}))
    print(next(t))
    print(next(t, i - {k5}))
    print(next(t, i))
    i = i + 1
  }}
}}
"""
    built = []
    for i in range(instances):
        start = wrap64(i * k1 + k2)
        resumes = (None, wrap64(i * k3 - k4), None, wrap64(i - k5), i)
        built.append(
            Instance((start,), resumes, tuple(protocol(tally_model(start), resumes)))
        )
    trace = protocol(tally_model(1), DIFF_SCRIPT)
    return Workload("many-short", source, "tally", tuple(built), (1,), tuple(trace))


def wide_family(name: str, seed: int, arms: int, nexts: int) -> Workload:
    """One generator of `arms` sequential if/else arms, each arm a yield
    of i + j or i - j. The start value is even, so which arm runs, and
    with it the dispatch cost, is the same for every seed."""
    rng = random.Random(seed)
    start = 2 * rng.randint(50_000, 499_999)
    arm_text = "".join(
        f"""    if ((i + {j}) % 2 == 0) {{
      yield i + {j}
    }} else {{
      yield i - {j}
    }}
"""
        for j in range(1, arms + 1)
    )
    source = f"""fn* wide(i) {{
  while (true) {{
{arm_text}    i = i + 1
  }}
}}

fn main() {{
  let g = wide({start})
  let n = 0
  while (n < {nexts}) {{
    print(next(g))
    n = n + 1
  }}
}}
"""
    resumes = (None,) * nexts
    instance = Instance(
        (start,), resumes, tuple(protocol(wide_model(arms, start), resumes))
    )
    trace = protocol(wide_model(arms, 1), DIFF_SCRIPT)
    return Workload(name, source, "wide", (instance,), (1,), tuple(trace))


def wide_states(seed: int) -> Workload:
    return wide_family("wide-states", seed, WIDE_ARMS, WIDE_NEXTS)


def deep_states(seed: int) -> Workload:
    return wide_family("deep-states", seed, DEEP_ARMS, DEEP_NEXTS)


WORKLOADS = {
    "fib-long": fib_long,
    "many-short": many_short,
    "wide-states": wide_states,
    "deep-states": deep_states,
}
