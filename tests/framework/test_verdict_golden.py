"""Golden verdicts of the whole-program checkers.

Each case runs one checker on one system and records what it reports:
``ok``, ``detail``, ``premises`` and ``inconclusive``. The verdicts in
``verdict_golden.json`` pin the Thm 14/15 checks on the 2-thread lock
counter and on a racy client, Lem. 16's two checkers on the lock and
the counter contexts, the object refinement ``≼ᵒ``, and every row of
the Fig. 2 steps, so a refactor of the checkers cannot move a verdict
unnoticed.

The verdicts must not depend on hash order; CI runs this file under a
fixed ``PYTHONHASHSEED`` too. Regenerate them, after a deliberate
change to a verdict, with::

    PYTHONPATH=src:. python -m tests.framework.test_verdict_golden --write
"""

import json
import os
import sys

import pytest

from repro.compiler import compile_minic
from repro.framework import (
    ClientSystem,
    check_gcorrect,
    check_theorem15,
    framework_steps,
    lock_counter_system,
)
from repro.langs.minic import compile_unit, link_units
from repro.tso import (
    DEFAULT_COUNTER_ADDR,
    DEFAULT_LOCK_ADDR,
    check_object_refinement,
    check_plain_drf_guarantee,
    check_strengthened_drf_guarantee,
    counter_impl,
    counter_spec,
    lock_impl,
    lock_spec,
)

from tests.helpers import LOCK_CLIENT

GOLDEN = os.path.join(os.path.dirname(__file__), "verdict_golden.json")

RACY_CLIENT = "int x = 0; void t1() { x = 1; } void t2() { x = 2; }"

COUNTER_CLIENT = """
extern int fetch_inc();
void bump() {
  int old;
  old = fetch_inc();
  print(old);
}
"""

#: ``name -> (client, entry, symbol, address, (spec, impl))`` of the
#: two Lem. 16 contexts.
OBJECTS = {
    "lock": (LOCK_CLIENT, "inc", "L", DEFAULT_LOCK_ADDR,
             (lock_spec, lock_impl)),
    "counter": (COUNTER_CLIENT, "bump", "K", DEFAULT_COUNTER_ADDR,
                (counter_spec, counter_impl)),
}

MAX_STATES = 1500000


def _context(name):
    """The x86 client stages, their genvs, the object and the entries
    of one Lem. 16 context."""
    client, entry, symbol, addr, (spec, impl) = OBJECTS[name]
    mods, genvs, _ = link_units(
        [compile_unit(client)], extra_symbols={symbol: addr}
    )
    result = compile_minic(mods[0].with_forbidden({addr}))
    return [result.target], [genvs[0]], impl(), spec(), [entry] * 2


def _strengthened(name):
    stages, genvs, impl, spec, entries = _context(name)
    return check_strengthened_drf_guarantee(
        stages, genvs, *impl, *spec, entries, max_states=MAX_STATES
    )


def _plain(name):
    stages, genvs, _, _, entries = _context(name)
    return check_plain_drf_guarantee(
        stages, genvs, entries, max_states=MAX_STATES
    )


def _object_refinement():
    stages, genvs, impl, spec, entries = _context("lock")
    return check_object_refinement(
        stages, genvs, *impl, *spec, entries, max_states=MAX_STATES
    )


def verdict(result):
    """The pinned part of a checker's result, as JSON data."""
    return {
        "ok": result.ok,
        "detail": result.detail,
        "premises": dict(result.premises),
        "inconclusive": result.inconclusive,
    }


def cases():
    """``name -> thunk`` running each case's checker."""
    systems = {
        "lock-counter-2": lambda: lock_counter_system(2),
        "racy": lambda: ClientSystem([RACY_CLIENT], ["t1", "t2"]),
    }
    found = {}
    for sys_name, build in systems.items():
        for check in (check_gcorrect, check_theorem15):
            found["{}/{}".format(check.__name__, sys_name)] = (
                lambda build=build, check=check: check(
                    build(), max_states=MAX_STATES
                )
            )
    for obj in OBJECTS:
        found["check_strengthened_drf_guarantee/" + obj] = (
            lambda obj=obj: _strengthened(obj)
        )
        found["check_plain_drf_guarantee/" + obj] = (
            lambda obj=obj: _plain(obj)
        )
    found["check_object_refinement/lock"] = _object_refinement
    return found


def framework_rows():
    """``row name -> verdict`` of every Fig. 2 step on the lock
    counter."""
    steps = framework_steps(lock_counter_system(2), max_states=800000)
    return {
        "framework_steps/" + name: verdict(result) for name, result in steps
    }


def _load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


CASES = cases()


def test_golden_covers_every_case():
    golden = _load_golden()
    rows = {n for n in golden if n.startswith("framework_steps/")}
    assert sorted(set(golden) - rows) == sorted(CASES)
    assert len(rows) == 6


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_matches_golden(name):
    assert verdict(CASES[name]()) == _load_golden()[name]


def test_framework_steps_match_golden():
    golden = _load_golden()
    assert framework_rows() == {
        name: value for name, value in golden.items()
        if name.startswith("framework_steps/")
    }


def _write():
    doc = {name: verdict(build()) for name, build in CASES.items()}
    doc.update(framework_rows())
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    print("wrote {} verdicts to {}".format(len(doc), GOLDEN))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.framework.test_verdict_golden --write")
    _write()
