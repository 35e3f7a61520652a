"""Join kinds: the *function* a join performs, separated from its method.

"Each join operator takes as one of its parameters a function name,
representing the join kind.  In this way a single operator can handle many
different join kinds ... For example, 'left outer' join could be added as a
join kind, allowing the left outer join operator to take advantage of
existing methods of join evaluation."

A :class:`JoinKind` decides what a join emits given the outer row and the
stream of matching inner rows.  The combination step for subquery kinds
(exists / all / DBC set predicates) delegates to the set-predicate
combinators so a DBC's MAJORITY function works in joins automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ExtensionError, SubqueryError
from repro.functions.builtins import combine_all, combine_any


class JoinKind:
    """Behaviour descriptors consulted by the join operators.

    - ``binds_inner`` — the inner row joins the binding stream,
    - ``preserves_outer`` — unmatched outer rows are emitted (padded),
    - ``combine`` — for subquery kinds: fold the per-inner-row predicate
      outcomes into one verdict (None means "not a subquery kind"),
    - ``scalar`` — the inner must produce at most one row, which is bound
      (NULLs when empty),
    - ``semijoin`` — the verdict asks only whether some inner row
      qualifies, so the NL / merge / hash methods can run the kind: each
      outer row is emitted at most once, by :meth:`semijoin_verdicts`.
      Other combine kinds need every inner row's three-valued outcome and
      run only as SUBQJOIN.
    """

    def __init__(self, name: str, binds_inner: bool = False,
                 preserves_outer: bool = False,
                 combine: Optional[Callable[[Iterable[Optional[bool]]],
                                            Optional[bool]]] = None,
                 scalar: bool = False, semijoin: bool = False):
        self.name = name
        self.binds_inner = binds_inner
        self.preserves_outer = preserves_outer
        self.combine = combine
        self.scalar = scalar
        self.semijoin = semijoin

    def semijoin_verdicts(self):
        """``(emits when no inner row qualifies, emits when one does)``."""
        return self.combine(()) is True, self.combine((True,)) is True


def _combine_not_exists(outcomes: Iterable[Optional[bool]]) -> Optional[bool]:
    verdict = combine_any(outcomes)
    if verdict is None:
        return None
    return not verdict


class JoinKindRegistry:
    """Registered join kinds for one database (DBC extension point)."""

    def __init__(self):
        self._kinds: Dict[str, JoinKind] = {}

    def register(self, kind: JoinKind, replace: bool = False) -> JoinKind:
        if kind.name in self._kinds and not replace:
            raise ExtensionError("join kind %s already registered" % kind.name)
        self._kinds[kind.name] = kind
        return kind

    def get(self, name: str, functions=None) -> JoinKind:
        kind = self._kinds.get(name)
        if kind is not None:
            return kind
        # DBC set-predicate kinds are resolved dynamically: "setpred:majority"
        if name.startswith("setpred:") and functions is not None:
            function = functions.set_predicate(name.split(":", 1)[1])
            if function is not None:
                kind = JoinKind(name, combine=function.combine)
                self._kinds[name] = kind
                return kind
        raise SubqueryError("unknown join kind %s" % name)

    def names(self) -> List[str]:
        return sorted(self._kinds)


def default_join_kinds() -> JoinKindRegistry:
    registry = JoinKindRegistry()
    registry.register(JoinKind("regular", binds_inner=True))
    registry.register(JoinKind("left_outer", binds_inner=True,
                               preserves_outer=True))
    registry.register(JoinKind("exists", combine=combine_any,
                               semijoin=True))
    registry.register(JoinKind("not_exists", combine=_combine_not_exists,
                               semijoin=True))
    registry.register(JoinKind("all", combine=combine_all))
    registry.register(JoinKind("scalar", binds_inner=True, scalar=True))
    return registry
