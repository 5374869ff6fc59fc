"""Shared builders for the test suite.

Collects the boilerplate of assembling programs: CImp one-module
programs, MiniC systems, compiled pipelines, and the canonical program
suite used by integration tests and benchmarks.
"""

import os

from repro.common.values import VInt
from repro.lang.module import GlobalEnv, ModuleDecl, Program
from repro.langs.cimp import CIMP, parse_module as parse_cimp
from repro.langs.minic import compile_unit, link_units
from repro.langs.minic.semantics import MINIC
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    program_behaviours,
)

#: Address used for ad-hoc CImp globals in tests.
CELL = 100


def cimp_program(source, entries, symbols=None, init=None, owned=()):
    """A one-module CImp program with the given globals."""
    symbols = symbols if symbols is not None else {"C": CELL}
    init = init if init is not None else {CELL: VInt(0)}
    module = parse_cimp(source, symbols=symbols, owned=owned)
    ge = GlobalEnv(symbols, init)
    return Program([ModuleDecl(CIMP, ge, module)], entries)


def minic_program(sources, entries, extra_symbols=None, forbidden=()):
    """Linked MiniC modules as a source-level program.

    Returns ``(program, modules, genvs, symbols)``.
    """
    units = [compile_unit(src) for src in sources]
    modules, genvs, symbols = link_units(units, extra_symbols)
    if forbidden:
        modules = [m.with_forbidden(frozenset(forbidden)) for m in modules]
    decls = [
        ModuleDecl(MINIC, ge, mod) for mod, ge in zip(modules, genvs)
    ]
    return Program(decls, entries), modules, genvs, symbols


def behaviours_of(program, semantics=None, max_states=200000,
                  max_events=10):
    """Behaviour set shortcut."""
    semantics = semantics or PreemptiveSemantics()
    return program_behaviours(
        GlobalContext(program), semantics, max_states, max_events
    )


def np_behaviours_of(program, max_states=200000, max_events=10):
    return behaviours_of(
        program, NonPreemptiveSemantics(), max_states, max_events
    )


def events_of(behaviours):
    """The set of (event tuple, end) pairs, for compact assertions."""
    return {
        (
            tuple((e.kind, e.value) for e in b.events),
            b.end,
        )
        for b in behaviours
    }


def done_traces(behaviours):
    """Just the successfully terminated print traces."""
    return {
        tuple(e.value for e in b.events)
        for b in behaviours
        if b.end == "done"
    }


# ----- the canonical MiniC program suite -------------------------------------

SUITE = {
    "arith": """
        int g = 10;
        void main() {
          int a = 6;
          int b = 7;
          print(a * b);
          print(g / 3);
          print(g % 3);
          print(-a + b);
          print(a < b);
          print(a == b);
        }
    """,
    "calls": """
        int add(int a, int b) { return a + b; }
        int twice(int n) { return add(n, n); }
        void main() {
          int r;
          r = twice(21);
          print(r);
        }
    """,
    "loops": """
        void main() {
          int i = 0;
          int acc = 0;
          while (i < 5) {
            acc = acc + i;
            i = i + 1;
          }
          print(acc);
        }
    """,
    "globals": """
        int g = 1;
        void bump() { g = g * 2; }
        void main() {
          bump();
          bump();
          bump();
          print(g);
        }
    """,
    "pointers": """
        int cell = 5;
        void set(int *p, int v) { *p = v; }
        void main() {
          set(&cell, 42);
          print(cell);
        }
    """,
    "tailcall": """
        int fact_acc(int n, int acc) {
          if (n <= 1) { return acc; }
          return fact_acc(n - 1, acc * n);
        }
        void main() {
          int r;
          r = fact_acc(5, 1);
          print(r);
        }
    """,
    "branches": """
        int sign(int x) {
          if (x > 0) { return 1; }
          if (x < 0) { return 0 - 1; }
          return 0;
        }
        void main() {
          int r;
          r = sign(5);
          print(r);
          r = sign(0 - 7);
          print(r);
          r = sign(0);
          print(r);
        }
    """,
}

#: Expected print traces per suite program (single-threaded, so one
#: behaviour each).
SUITE_EXPECTED = {
    "arith": (42, 3, 1, 1, 1, 0),
    "calls": (42,),
    "loops": (10,),
    "globals": (8,),
    "pointers": (42,),
    "tailcall": (120,),
    "branches": (1, -1, 0),
}

LOCK_CLIENT = """
extern void lock();
extern void unlock();
int x = 0;
void inc() {
  int tmp;
  lock();
  tmp = x;
  x ++;
  unlock();
  print(tmp);
}
"""

EXAMPLE_2_2 = """
extern void lock();
extern void unlock();
int x = 0;
int y = 0;
void thread1() {
  int r1 = 1;
  r1 = r1 + 1;
  lock();
  x = 1;
  y = x + 1;
  unlock();
  print(r1);
}
void thread2() {
  int r2 = 2;
  r2 = r2 + 1;
  lock();
  x = 2;
  y = x + 1;
  unlock();
  print(r2);
}
"""


EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "examples"
)

_CIMP_SPAWN = (
    "main(){ spawn mid; print(1); }"
    "mid(){ spawn leaf; [C] := 2; print(2); }"
    "leaf(){ x := [C]; print(x); }"
)
_CIMP_SPIN = "t1(){ x := 0; while(x == 0){ skip; } } t2(){ print(7); }"


def _example_file(name, entries, use_lock=False):
    from repro.framework.build import ClientSystem

    with open(os.path.join(EXAMPLES_DIR, name)) as handle:
        source = handle.read()
    return ClientSystem(
        [source], entries, use_lock=use_lock
    ).source_program()


def example_programs():
    """Named whole programs at every language level: the MiniC suite,
    the ``examples/`` files, the 2-thread lock counter as source,
    x86-SC and x86-TSO programs, Example 2.2, Peterson on x86-SC and
    x86-TSO, and CImp programs with spawns and a spin loop."""
    from repro.framework.build import ClientSystem, lock_counter_system
    from repro.langs.x86 import X86SC, X86TSO

    from tests.langs.test_peterson import peterson_program

    lock2 = lock_counter_system(2)
    progs = {
        "minic-" + name: minic_program([src], ["main"])[0]
        for name, src in sorted(SUITE.items())
    }
    progs.update({
        "quickstart.c": _example_file("quickstart.c", ["main"]),
        "racy.c": _example_file("racy.c", ["t1", "t2"]),
        "counter.c": _example_file(
            "counter.c", ["inc", "inc"], use_lock=True
        ),
        "lock-counter-source": lock2.source_program(),
        "lock-counter-sc": lock2.sc_program(),
        "lock-counter-tso": lock2.tso_program(),
        "example-2-2": ClientSystem(
            [EXAMPLE_2_2], ["thread1", "thread2"], use_lock=True
        ).source_program(),
        "peterson-sc": peterson_program(X86SC, fenced=False),
        "peterson-tso": peterson_program(X86TSO, fenced=False),
        "cimp-spawn": cimp_program(_CIMP_SPAWN, ["main"]),
        "cimp-spin": cimp_program(_CIMP_SPIN, ["t1", "t2"]),
    })
    return progs
