"""Event-trace refinement ``⊑`` and equivalence ``≈`` (Sec. 3.2).

``S ⊑ C`` iff every observable behaviour of ``S`` is a behaviour of
``C`` (following CompCert, refinement is behaviour-set inclusion). The
paper also uses the weaker ``⊑′`` (Thm 15) that does not preserve
termination: we realize it by ignoring divergence markers.

Any ``cut`` behaviour (exploration bound hit) makes a comparison
*inconclusive* rather than silently passing — results carry a flag.

Every whole-program checker (Thms 14/15, Lem. 16, the object
refinement, Lems. 6–9) reports one :class:`Verdict`, reached in the
same three steps: :func:`gate` returns on a failed premise before the
target is explored, :func:`conclude` reads the verdict off the
comparisons, and :func:`checker` applies the bound rule. The
whole-program simulation checkers compare no behaviour sets and read
no premises; they take the third step only.
"""

import functools

from repro.semantics.explore import Behaviour, ExplorationLimit

#: The detail of a verdict that ``cut`` behaviours left open: no
#: premise failed and no counterexample is conclusive.
INCONCLUSIVE_DETAIL = (
    "inconclusive: behaviours were cut at a bound; raise max_events "
    "or max_states"
)


class RefinementResult:
    """Outcome of a behaviour-set comparison."""

    __slots__ = ("holds", "counterexamples", "inconclusive")

    def __init__(self, holds, counterexamples=(), inconclusive=False):
        self.holds = holds
        self.counterexamples = tuple(counterexamples)
        self.inconclusive = inconclusive

    def __bool__(self):
        return self.holds and not self.inconclusive

    def __repr__(self):
        return "RefinementResult(holds={}, inconclusive={}, cex={})".format(
            self.holds, self.inconclusive, len(self.counterexamples)
        )


def _split(behs):
    cuts = {b for b in behs if b.end == Behaviour.CUT}
    rest = {b for b in behs if b.end != Behaviour.CUT}
    return rest, cuts


def refines(lhs, rhs, termination_sensitive=True):
    """``lhs ⊑ rhs``: every behaviour of ``lhs`` occurs in ``rhs``.

    With ``termination_sensitive=False`` this is the paper's ``⊑′``:
    ``silent_div`` behaviours of either side are disregarded, so the
    comparison constrains only terminating and aborting executions.
    """
    lhs_rest, lhs_cuts = _split(lhs)
    rhs_rest, rhs_cuts = _split(rhs)
    if not termination_sensitive:
        lhs_rest = {
            b for b in lhs_rest if b.end != Behaviour.SILENT_DIV
        }
        rhs_rest = {
            b for b in rhs_rest if b.end != Behaviour.SILENT_DIV
        }
    missing = sorted(
        (b for b in lhs_rest if b not in rhs_rest),
        key=lambda b: (len(b.events), repr(b)),
    )
    return RefinementResult(
        holds=not missing,
        counterexamples=missing,
        inconclusive=bool(lhs_cuts or rhs_cuts),
    )


def equivalent(lhs, rhs, termination_sensitive=True):
    """``lhs ≈ rhs``: refinement in both directions."""
    fwd = refines(lhs, rhs, termination_sensitive)
    bwd = refines(rhs, lhs, termination_sensitive)
    return RefinementResult(
        holds=fwd.holds and bwd.holds,
        counterexamples=fwd.counterexamples + bwd.counterexamples,
        inconclusive=fwd.inconclusive or bwd.inconclusive,
    )


def safe(behs):
    """``Safe(P)``: no execution aborts (premise of Def. 11 / Thm 15)."""
    rest, cuts = _split(behs)
    has_abort = any(b.end == Behaviour.ABORT for b in rest)
    return RefinementResult(
        holds=not has_abort,
        counterexamples=tuple(
            b for b in rest if b.end == Behaviour.ABORT
        ),
        inconclusive=bool(cuts),
    )


class Verdict:
    """The verdict of a whole-program checker: premises ⇒ conclusion.

    ``premises`` maps each premise the checker read to whether it
    held. ``inconclusive``: no premise failed, but a bound left the
    conclusion open; ``ok`` is then ``False``.
    """

    __slots__ = ("name", "ok", "detail", "premises", "inconclusive")

    def __init__(self, ok, detail, premises=None, inconclusive=False):
        self.name = None  # set by :func:`checker`
        self.ok = ok
        self.detail = detail
        self.premises = dict(premises or {})
        self.inconclusive = inconclusive

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "Verdict({}, ok={}, {})".format(
            self.name, self.ok, self.detail
        )


def gate(premises, vacuous=False):
    """Step 1: ``None`` when every premise holds, else the verdict that
    names the failed ones, so the checker returns before it explores
    its target. A failed premise makes a ``vacuous`` checker pass
    (Lems. 8, 9, 16) and any other fail (Thms 14, 15)."""
    failed = [name for name, held in premises.items() if not held]
    if not failed:
        return None
    detail = "premise(s) failed: " + ", ".join(failed)
    return Verdict(
        vacuous, detail + "; vacuous" if vacuous else detail, premises
    )


def conclude(holds, *checks, premises=None):
    """Step 2: the verdict over ``checks``, ``(RefinementResult, what
    fails)`` pairs in order. The first cut comparison makes it
    inconclusive, the first refuted one fails it with its
    counterexample count; otherwise ``holds`` is the detail."""
    for result, fails in checks:
        if result.inconclusive:
            return Verdict(
                False, INCONCLUSIVE_DETAIL, premises, inconclusive=True
            )
        if not result.holds:
            return Verdict(
                False,
                "{} ({} counterexamples)".format(
                    fails, len(result.counterexamples)
                ),
                premises,
            )
    return Verdict(True, holds, premises)


def checker(name):
    """Step 3, the bound rule, as a decorator of a checker whose body
    returns a :class:`Verdict`: the verdict is named ``name``, and a
    strict search that hits its state bound (``ExplorationLimit``)
    gives an inconclusive verdict instead of raising."""

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            try:
                verdict = body(*args, **kwargs)
            except ExplorationLimit as exc:
                verdict = Verdict(
                    False, "inconclusive: {}".format(exc),
                    inconclusive=True,
                )
            verdict.name = name
            return verdict

        return check

    return decorate
