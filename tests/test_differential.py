"""The differential gate: every membership engine against its reference
semantics on seeded random transducers.

Each row draws its models from one generator of helpers and one seed,
runs the engines it names on every input up to a size, each on the
model as that engine's kind (helpers.mirror), and checks a pool of
candidates (helpers.candidates) against the reference's output set.
Its counts of checks and of "yes" answers are pinned, so a row cannot
silently shrink.
"""

import random
from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple

import pytest

from mttkit import (ENGINES, OI, App, BudgetExceeded, eval_mr_io, oracle_eval,
                    validate)

from helpers import (HARNESS_BUDGET, differential, io_output_set,
                     random_det_total_mtt, random_mrtt, random_mtt,
                     random_tac_mtt, tac_outputs)


def oi_output_set(m, s):
    """The call-by-name output set of m on s, or None over the harness
    budget."""
    try:
        return oracle_eval(m, OI, App(m.initial, s), HARNESS_BUDGET)
    except BudgetExceeded:
        return None


# the pairs checked need at most 3 764 steps; m22 on b(b(b(b(b(e)))))
# in lets2-rank1 runs millions before it fails, so it fails here at once
MR_BUDGET = replace(HARNESS_BUDGET, max_steps=20_000)


def mr_output_set(m, s):
    """The output set of a tuple transducer m on s, or None over
    MR_BUDGET."""
    try:
        return eval_mr_io(m, s, MR_BUDGET)
    except BudgetExceeded:
        return None


class Row(NamedTuple):
    """`models` transducers generator(rng, name) from random.Random(seed)
    that keep accepts, every input of at most `size` nodes, the ENGINES
    rows of `engines` with their bound keywords, and `reference`'s
    output sets; `pool` is (first, mutated, per) of helpers.candidates.
    `checks` and `yes` pin the candidates checked and those the
    reference holds; `whole` is the least number of models on which io
    binds a whole set (helpers.binds_whole)."""
    generator: Callable
    seed: int
    models: int
    size: int
    engines: dict
    reference: Callable
    pool: tuple
    checks: int
    yes: int
    keep: Callable = lambda m: True
    whole: int = 0

    def drawn(self):
        rng = random.Random(self.seed)
        kept = 0
        while kept < self.models:
            m = self.generator(rng, f"m{kept}")
            if self.keep(m):
                kept += 1
                yield m


ROWS = {
    "io-99": Row(random_mtt, 99, 25, 4, {"io": {}}, io_output_set, (6, 2, 4),
                 662, 217),
    # io binds a never-copied parameter to a whole set on some models
    "io-7": Row(random_mtt, 7, 300, 4, {"io": {}}, io_output_set, (6, 6, 4),
                10432, 3105, whole=3),
    "det-4242": Row(random_det_total_mtt, 4242, 12, 5, {"det": {}, "io": {}},
                    io_output_set, (1, 1, 1), 408, 204),
    "mr-io-808": Row(random_mtt, 808, 12, 4, {"mr-io": {}, "io": {}},
                     io_output_set, (3, 1, 3), 303, 139),
    # tuple transducers of dimension <= 2; with ranks up to 2,
    # environments hold two parameters next to the live z-variables
    "mr-io-2024-lets2-rank1": Row(
        partial(random_mrtt, max_lets=2, max_rank=1), 2024, 30, 6,
        {"mr-io": {}}, mr_output_set, (6, 2, 4), 4569, 1430),
    "mr-io-2024-lets3-rank2": Row(
        partial(random_mrtt, max_lets=3, max_rank=2), 2024, 30, 6,
        {"mr-io": {}}, mr_output_set, (6, 2, 4), 4519, 1382),
    # parameter-linear right-hand sides keep every parameter to one copy
    "oi-fc-linear-7": Row(random_mtt, 7, 40, 6, {"oi-fc": {"c": 1}},
                          oi_output_set, (3, 2, 4), 5338, 1904,
                          keep=lambda m: validate(m).linear_params),
    # a copy bound above every argument set's size binds each set whole:
    # exact call-by-name
    "oi-fc-exact-7": Row(random_mtt, 7, 150, 4, {"oi-fc": {"c": 10 ** 9}},
                         oi_output_set, (6, 2, 4), 4909, 1535),
    # models that copy a parameter, where call-by-name differs from
    # call-by-value: binding one reference for all occurrences fails here
    "oi-fc-exact-copying-7": Row(
        random_mtt, 7, 80, 4, {"oi-fc": {"c": 10 ** 9}}, oi_output_set,
        (None, None, None), 3383, 807,
        keep=lambda m: not validate(m).linear_params),
    "io-tac-5150": Row(random_mtt, 5150, 8, 4, {"io-tac": {}, "io": {}},
                       io_output_set, (4, 1, 3), 147, 56),
    "io-tac-2021": Row(random_tac_mtt, 2021, 300, 6, {"io-tac": {}},
                       tac_outputs, (3, 3, None), 25511, 6727),
}


def test_the_rows_run_every_engine_but_the_oracle():
    ran = {name for row in ROWS.values() for name in row.engines}
    assert ran == set(ENGINES) - {"oracle"}


@pytest.mark.parametrize("name", ROWS)
def test_engines_agree_with_their_reference(name):
    row = ROWS[name]
    got = differential(row.drawn(), row.size, row.engines, row.reference,
                       row.pool)
    assert got.bad is None, (
        "mismatch on\n%s\ns = %s, t = %s: %s says %s, the reference %s"
        % got.bad)
    assert (got.checks, got.yes) == (row.checks, row.yes)
    assert got.whole >= row.whole
