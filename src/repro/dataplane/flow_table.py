"""The NF Manager's flow table.

Rules extend OpenFlow match/action in the two ways §3.3 describes:

1. every rule is *scoped* to a Service ID or a NIC port ("we include the
   Service ID the rule applies to, or a NIC port to represent rules for new
   packets" — implemented in the real system by repurposing the input-port
   match field);
2. a rule carries *multiple* actions; the first action is the default,
   the rest are the other allowed next hops an NF may pick with a Send-to
   verdict.

Lookup semantics: exact-match rules (full 5-tuple) win over wildcard rules;
among wildcard rules higher ``priority`` wins, then higher specificity,
then the match installed last (a rule that replaces one with the same
match takes its place).  Every mutation bumps ``generation``, which is
what invalidates the NF Manager's cached lookup plans.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import typing

from repro.dataplane.actions import Destination, Drop
from repro.net.flow import FiveTuple, FlowMatch

_entry_ids = itertools.count()


@dataclasses.dataclass(slots=True)
class FlowTableEntry:
    """One scoped match/actions rule.

    ``idle_timeout_ns`` / ``hard_timeout_ns`` give OpenFlow-style
    expiry: an idle rule (no lookup hits for the idle period) or an aged
    rule (installed longer than the hard period) is removed by
    :meth:`FlowTable.expire` — how per-flow rule state is kept bounded
    under flow churn.  Zero disables a timeout.
    """

    scope: str
    match: FlowMatch
    actions: tuple[Destination, ...]
    priority: int = 0
    idle_timeout_ns: int = 0
    hard_timeout_ns: int = 0
    # Provenance: True when the rule was pre-populated at deploy time
    # (the proactive pipeline) rather than pulled in reactively on a
    # table miss.  Drives the manager's miss classifier
    # (proactive_hits vs reactive_hits in HostStats).
    proactive: bool = False
    entry_id: int = dataclasses.field(
        default_factory=lambda: next(_entry_ids))
    installed_at_ns: int = 0
    last_hit_ns: int = 0

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("a rule needs at least one action")

    @property
    def default_action(self) -> Destination:
        """The first action — what a Default verdict follows."""
        return self.actions[0]

    def allows(self, destination: Destination) -> bool:
        """Whether an NF may Send-to this destination under this rule."""
        return destination in self.actions or isinstance(destination, Drop)

    def copy(self, match: FlowMatch | None = None,
             actions: tuple[Destination, ...] | None = None,
             ) -> FlowTableEntry:
        """A copy with a fresh ``entry_id`` and, when given, a new
        ``match`` or ``actions``; ``__post_init__`` validates it.

        The one way a rule is cloned.  A direct constructor call costs a
        fraction of ``dataclasses.replace`` (per-flow rules are the bulk
        of a churned table).
        """
        return type(self)(
            scope=self.scope,
            match=self.match if match is None else match,
            actions=self.actions if actions is None else actions,
            priority=self.priority,
            idle_timeout_ns=self.idle_timeout_ns,
            hard_timeout_ns=self.hard_timeout_ns, proactive=self.proactive,
            installed_at_ns=self.installed_at_ns,
            last_hit_ns=self.last_hit_ns)

    def with_default(self, destination: Destination,
                     match: FlowMatch | None = None) -> FlowTableEntry:
        """A copy whose default action is ``destination`` (and whose
        match is ``match``, when given).

        The destination is moved to the front if already allowed, prepended
        otherwise (callers enforce service-graph validity).
        """
        return self.copy(match=match,
                         actions=_with_default(self.actions, destination))


@functools.cache
def _with_default(actions: tuple[Destination, ...],
                  destination: Destination) -> tuple[Destination, ...]:
    """``actions`` with ``destination`` first, built once per pair so the
    per-flow rules of a churned table share one tuple."""
    return (destination,) + tuple(action for action in actions
                                  if action != destination)


class FlowTable:
    """Scoped flow rules with exact-match fast path and wildcard fallback.

    Exact rules are kept per scope, then per flow; each scope's wildcard
    rules are a list in the order their matches were first installed (a
    rule that replaces one with the same match takes its place, so a
    rewrite never changes which of two equal-key rules wins).  A scope's
    dict or list goes when its last rule is removed.  Both maps keep
    their scopes in first-insertion order, so introspection is
    scope-major and does not depend on ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._exact: dict[str, dict[FiveTuple, FlowTableEntry]] = {}
        self._wildcards: dict[str, list[FlowTableEntry]] = {}
        self.generation = 0
        self.lookups = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def install(self, entry: FlowTableEntry) -> None:
        """Add a rule, replacing one with the same match in that scope
        where it stands."""
        exact_key = entry.match.exact_key()
        if exact_key is not None:
            rules = self._exact.get(entry.scope)
            if rules is None:
                rules = self._exact[entry.scope] = {}
            rules[exact_key] = entry
        else:
            rules = self._wildcards.setdefault(entry.scope, [])
            for index, rule in enumerate(rules):
                if rule.match == entry.match:
                    rules[index] = entry
                    break
            else:
                rules.append(entry)
        self.generation += 1

    def remove(self, scope: str, match: FlowMatch) -> bool:
        """Remove the rule with this exact (scope, match).  True if found."""
        exact_key = match.exact_key()
        if exact_key is not None:
            rules = self._exact.get(scope)
            removed = (rules is not None
                       and rules.pop(exact_key, None) is not None)
            if removed and not rules:
                del self._exact[scope]
        else:
            rules = self._wildcards.get(scope, ())
            kept = [rule for rule in rules if rule.match != match]
            removed = len(kept) < len(rules)
            if removed and kept:
                self._wildcards[scope] = kept
            elif removed:
                del self._wildcards[scope]
        if removed:
            self.generation += 1
        return removed

    def clear(self) -> None:
        self._exact.clear()
        self._wildcards.clear()
        self.generation += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, scope: str, flow: FiveTuple,
               now_ns: int | None = None) -> FlowTableEntry | None:
        """Find the best rule for ``flow`` within ``scope``.

        ``now_ns`` (when provided) refreshes the winning rule's idle
        timer.  A scope's wildcard list is in first-installation order of
        its matches, so among equal ``(priority, specificity)`` the last
        match wins.
        """
        self.lookups += 1
        rules = self._exact.get(scope)
        entry = None if rules is None else rules.get(flow)
        if entry is None:
            best_key: tuple[int, int] | None = None
            for rule in self._wildcards.get(scope, ()):
                if rule.match.matches(flow):
                    key = (rule.priority, rule.match.specificity)
                    if best_key is None or key >= best_key:
                        entry, best_key = rule, key
        if entry is None:
            self.misses += 1
        elif now_ns is not None:
            entry.last_hit_ns = now_ns
        return entry

    # ------------------------------------------------------------------
    # Timeout-based expiry (OpenFlow idle/hard timeouts)
    # ------------------------------------------------------------------
    def expire(self, now_ns: int) -> list[FlowTableEntry]:
        """Remove rules whose idle or hard timeout has elapsed."""
        expired: list[FlowTableEntry] = []
        for entry in self.entries():
            if _is_expired(entry, now_ns):
                expired.append(entry)
        for entry in expired:
            self.remove(entry.scope, entry.match)
        return expired

    # ------------------------------------------------------------------
    # Per-flow specialisation (cross-layer message support)
    # ------------------------------------------------------------------
    def specialization_template(self, scope: str,
                                flow: FiveTuple) -> FlowTableEntry | None:
        """The rule a per-flow rewrite of ``flow`` in ``scope`` copies.

        The flow's exact rule when it has one (no lookup counted), else
        the rule :meth:`lookup` finds for it (one lookup, counted, and no
        idle-timer refresh).  None when nothing matches the flow.
        """
        rules = self._exact.get(scope)
        existing = None if rules is None else rules.get(flow)
        if existing is not None:
            return existing
        return self.lookup(scope, flow)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self, scope: str | None = None) -> list[FlowTableEntry]:
        """All rules (optionally restricted to one scope), scope-major:
        each exact-rule scope's rules in insertion order, scopes in the
        order their first live exact rule arrived, then each scope's
        wildcard rules in the same way."""
        if scope is not None:
            return [*self._exact.get(scope, {}).values(),
                    *self._wildcards.get(scope, ())]
        result = [entry for rules in self._exact.values()
                  for entry in rules.values()]
        for rules in self._wildcards.values():
            result.extend(rules)
        return result

    def scopes(self) -> typing.KeysView[str]:
        """Every scope holding a rule: exact rules' scopes, then wildcard
        rules', each in first-insertion order (a scope whose last exact
        or wildcard rule was removed rejoins at the end; replacing a
        wildcard rule keeps its scope's place), so walking it does not
        depend on ``PYTHONHASHSEED``.  Compares equal to a set of the
        names."""
        scopes = dict.fromkeys(self._exact)
        scopes.update(dict.fromkeys(self._wildcards))
        return scopes.keys()

    def __len__(self) -> int:
        return (sum(len(rules) for rules in self._exact.values())
                + sum(len(rules) for rules in self._wildcards.values()))

    def dump(self) -> str:
        """Readable table like Fig. 4's service/match/action listing."""
        lines = ["scope           match                         actions"]
        for entry in sorted(self.entries(),
                            key=lambda rule: (rule.scope, -rule.priority)):
            actions = ", ".join(str(action) for action in entry.actions)
            match = _describe_match(entry.match)
            lines.append(f"{entry.scope:<15} {match:<29} ({actions})")
        return "\n".join(lines)


def _is_expired(entry: FlowTableEntry, now_ns: int) -> bool:
    if (entry.hard_timeout_ns
            and now_ns - entry.installed_at_ns >= entry.hard_timeout_ns):
        return True
    if (entry.idle_timeout_ns
            and now_ns - entry.last_hit_ns >= entry.idle_timeout_ns):
        return True
    return False


def _describe_match(match: FlowMatch) -> str:
    if match == FlowMatch.any():
        return "*"
    parts = []
    if match.src_ip is not None:
        suffix = (f"/{match.src_prefix_bits}"
                  if match.src_prefix_bits < 32 else "")
        parts.append(f"src={match.src_ip}{suffix}")
    if match.dst_ip is not None:
        parts.append(f"dst={match.dst_ip}")
    if match.protocol is not None:
        parts.append(f"proto={match.protocol}")
    if match.src_port is not None:
        parts.append(f"sport={match.src_port}")
    if match.dst_port is not None:
        parts.append(f"dport={match.dst_port}")
    return ",".join(parts)
