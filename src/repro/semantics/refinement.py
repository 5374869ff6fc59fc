"""Event-trace refinement ``⊑`` and equivalence ``≈`` (Sec. 3.2).

``S ⊑ C`` iff every observable behaviour of ``S`` is a behaviour of
``C`` (following CompCert, refinement is behaviour-set inclusion). The
paper also uses the weaker ``⊑′`` (Thm 15) that does not preserve
termination: we realize it by ignoring divergence markers.

Any ``cut`` behaviour (exploration bound hit) makes a comparison
*inconclusive* rather than silently passing — results carry a flag.
"""

from repro.semantics.explore import Behaviour

#: The detail of a theorem check whose verdict ``cut`` behaviours left
#: open: no premise failed and no counterexample is conclusive.
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
