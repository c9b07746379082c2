"""NF action profiles: per-field read/write effects inferred from ASTs.

The paper's NF Manager shares a packet among parallel NFs only when every
member *declared* ``read_only=True`` (§3.3) — one coarse bit.  Following
"SDN based Network Function Parallelism in Cloud" (arXiv:1811.00653),
this module derives parallelizability automatically: it statically
analyzes each :class:`~repro.nfs.base.NetworkFunction` subclass's packet
handlers (``process`` / ``processing_cost_ns``, following
``self.method(...)`` calls) and produces an
:class:`ActionProfile` — which header fields the NF reads vs. writes
(five-tuple, DSCP, TTL, payload), which annotation keys it touches, and
whether it can DROP, emit SEND, or message the manager.

Pairwise profile *conflicts* then decide what may run in parallel:

- **write/write** — two members write the same field or annotation key;
- **read-after-write** — one member reads a field/key another writes
  (in either direction: members share one zero-copy buffer, so a write
  is visible to a concurrent reader at an execution-order-dependent
  instant);
- **drop-vs-modify** — one member can discard while another mutates
  header or payload bytes (the mutation's visibility would depend on
  merge ordering).

Two deliberate conservatisms: an NF that rewrites any five-tuple field
is never groupable (the data plane itself routes on the flow key
mid-group), and a SEND-capable member must be the *last* member of its
group so a merged SEND verdict resolves against that NF's own flow-table
scope — exactly where it would have resolved sequentially.

Everything here is pure ``ast`` + ``inspect``; the module imports
nothing from the simulator, so the lint rules (NF001–NF003) and the
data plane can both use it without import cycles.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import sys
import textwrap
import typing

# ----------------------------------------------------------------------
# Field vocabulary
# ----------------------------------------------------------------------

#: Flow-key fields: rewriting any of these mid-group would change what
#: the manager's flow lookups and load balancers see — never groupable.
FIVE_TUPLE_FIELDS = frozenset(
    {"src_ip", "dst_ip", "protocol", "src_port", "dst_port"})

#: What reading ``packet.ip`` (the whole header) touches.
IP_FIELDS = frozenset({"src_ip", "dst_ip", "protocol", "ttl", "dscp"})

#: What reading ``packet.l4`` touches.
L4_FIELDS = frozenset({"src_port", "dst_port"})

#: Non-header packet state the profiles track.
SCALAR_FIELDS = frozenset({"payload", "size"})

PACKET_FIELDS = FIVE_TUPLE_FIELDS | IP_FIELDS | L4_FIELDS | SCALAR_FIELDS

#: Annotation key standing for "a key the analyzer could not resolve".
ANN_WILDCARD = "*"

#: Handler methods analyzed per NF class (the packet path).  The
#: ``handle_*`` wrappers are included for subclasses that override them;
#: the base-class wrappers themselves are pure bookkeeping.
HANDLER_METHODS = ("process", "handle_packet", "processing_cost_ns")

#: Packet attributes that carry no data-plane-visible state.
_PACKET_METADATA_ATTRS = frozenset(
    {"created_at", "ref_count", "packet_id", "pool", "eth"})

#: Refcount bookkeeping methods — not header effects (OWN001's domain).
_PACKET_REFCOUNT_METHODS = frozenset({"add_reference", "release", "free"})

_VERDICT_SEND_FACTORIES = frozenset({"send_to_service", "send_to_port"})


def _keys_overlap(left: frozenset[str], right: frozenset[str]) -> bool:
    """Annotation-key overlap; the wildcard overlaps any non-empty set."""
    if not left or not right:
        return False
    if ANN_WILDCARD in left or ANN_WILDCARD in right:
        return True
    return bool(left & right)


# ----------------------------------------------------------------------
# The profile itself
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ActionProfile:
    """Summary of one NF's per-packet effects.

    ``opaque=True`` means the analyzer bailed (the packet escaped into
    code it cannot see); an opaque profile conservatively behaves as if
    the NF reads and writes everything.
    """

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    annotations_read: frozenset[str] = frozenset()
    annotations_written: frozenset[str] = frozenset()
    can_drop: bool = False
    can_send: bool = False
    sends_messages: bool = False
    opaque: bool = False

    # -- declaration helpers ------------------------------------------
    @classmethod
    def opaque_profile(cls) -> ActionProfile:
        return cls(reads=frozenset(PACKET_FIELDS),
                   writes=frozenset(PACKET_FIELDS),
                   annotations_read=frozenset({ANN_WILDCARD}),
                   annotations_written=frozenset({ANN_WILDCARD}),
                   can_drop=True, can_send=True, sends_messages=True,
                   opaque=True)

    @classmethod
    def declared_read_only(cls) -> ActionProfile:
        """The fallback for a service declared read-only in the graph
        but with no analyzable NF: reads anything, mutates nothing —
        exactly the contract §3.3's coarse ``read_only`` bit promises."""
        return cls(reads=frozenset(PACKET_FIELDS),
                   annotations_read=frozenset({ANN_WILDCARD}))

    # -- derived facts -------------------------------------------------
    @property
    def mutates_packet(self) -> bool:
        """Writes any header/payload field (annotations excluded)."""
        return bool(self.writes)

    @property
    def writes_five_tuple(self) -> bool:
        return bool(self.writes & FIVE_TUPLE_FIELDS)

    @property
    def groupable(self) -> bool:
        """Eligible for *any* parallel group at all."""
        return (not self.opaque and not self.writes_five_tuple
                and ANN_WILDCARD not in self.annotations_written)

    # -- the conflict relation ----------------------------------------
    def conflicts_with(self, other: ActionProfile) -> tuple[str, ...]:
        """Why these two NFs cannot share a packet (empty = compatible)."""
        issues: list[str] = []
        if self.opaque or other.opaque:
            issues.append("opaque handler (packet escapes analysis)")
        shared_writes = self.writes & other.writes
        if shared_writes:
            issues.append(
                f"write/write on {sorted(shared_writes)}")
        hazard = (self.writes & other.reads) | (other.writes & self.reads)
        if hazard:
            issues.append(f"read/write overlap on {sorted(hazard)}")
        if _keys_overlap(self.annotations_written,
                         other.annotations_written):
            issues.append("write/write on a shared annotation key")
        if (_keys_overlap(self.annotations_written, other.annotations_read)
                or _keys_overlap(other.annotations_written,
                                 self.annotations_read)):
            issues.append("read/write overlap on an annotation key")
        if ((self.can_drop and other.mutates_packet)
                or (other.can_drop and self.mutates_packet)):
            issues.append("drop-vs-modify ordering")
        return tuple(issues)

    def parallel_safe_with(self, other: ActionProfile) -> bool:
        return (self.groupable and other.groupable
                and not self.conflicts_with(other))

    def merged_with(self, other: ActionProfile) -> ActionProfile:
        """Union of two effect sets (handler methods of one class)."""
        return ActionProfile(
            reads=self.reads | other.reads,
            writes=self.writes | other.writes,
            annotations_read=(self.annotations_read
                              | other.annotations_read),
            annotations_written=(self.annotations_written
                                 | other.annotations_written),
            can_drop=self.can_drop or other.can_drop,
            can_send=self.can_send or other.can_send,
            sends_messages=self.sends_messages or other.sends_messages,
            opaque=self.opaque or other.opaque)

    def as_dict(self) -> dict[str, typing.Any]:
        """Stable, human-diffable form (the golden-snapshot format)."""
        return {
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "annotations_read": sorted(self.annotations_read),
            "annotations_written": sorted(self.annotations_written),
            "can_drop": self.can_drop,
            "can_send": self.can_send,
            "sends_messages": self.sends_messages,
            "opaque": self.opaque,
        }


def chain_conflicts(
        profiles: typing.Sequence[ActionProfile]) -> tuple[str, ...]:
    """All pairwise conflicts within one prospective group, plus the
    structural rules (five-tuple writers never group; a SEND-capable
    member must be last)."""
    issues: list[str] = []
    for index, profile in enumerate(profiles):
        if not profile.groupable:
            issues.append(f"member {index} is not groupable")
        if profile.can_send and index != len(profiles) - 1:
            issues.append(f"member {index} can SEND but is not last")
    for i, left in enumerate(profiles):
        for j in range(i + 1, len(profiles)):
            for issue in left.conflicts_with(profiles[j]):
                issues.append(f"members {i}/{j}: {issue}")
    return tuple(issues)


# ----------------------------------------------------------------------
# Effect accumulation
# ----------------------------------------------------------------------


class _Effects:
    """Mutable accumulator the analyzer writes into."""

    def __init__(self) -> None:
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.annotations_read: set[str] = set()
        self.annotations_written: set[str] = set()
        self.can_drop = False
        self.can_send = False
        self.sends_messages = False
        self.opaque = False

    def escape(self) -> None:
        self.opaque = True

    def to_profile(self) -> ActionProfile:
        if self.opaque:
            return ActionProfile.opaque_profile()
        return ActionProfile(
            reads=frozenset(self.reads),
            writes=frozenset(self.writes),
            annotations_read=frozenset(self.annotations_read),
            annotations_written=frozenset(self.annotations_written),
            can_drop=self.can_drop,
            can_send=self.can_send,
            sends_messages=self.sends_messages)


def _annotation_key(node: ast.AST,
                    constants: typing.Mapping[str, str]) -> str:
    """Resolve an annotation-subscript key to a string, else wildcard."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        value = constants.get(node.id)
        if isinstance(value, str):
            return value
    return ANN_WILDCARD


def _qualname_tail(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


class _HandlerAnalyzer(ast.NodeVisitor):
    """Walks one handler body, tracking what happens to the packet.

    ``packet_names`` holds every variable currently known to alias the
    packet.  Patterns that fully account for a subtree do not recurse
    into it; a *bare* packet name reaching the generic
    :meth:`visit_Name` therefore means the packet escaped into code the
    analyzer cannot follow → the profile goes opaque.
    """

    def __init__(self, effects: _Effects,
                 method_table: typing.Mapping[str, ast.AST],
                 constants: typing.Mapping[str, str],
                 packet_names: set[str],
                 call_stack: frozenset[str]) -> None:
        self.effects = effects
        self.method_table = method_table
        self.constants = constants
        self.packet_names = packet_names
        self.call_stack = call_stack

    # -- small helpers -------------------------------------------------
    def _is_packet(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self.packet_names

    def _is_packet_annotations(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute)
                and node.attr == "annotations"
                and self._is_packet(node.value))

    def _visit_all(self, nodes: typing.Iterable[ast.AST | None]) -> None:
        for node in nodes:
            if node is not None:
                self.visit(node)

    # -- reads ---------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        inner = node.value
        if isinstance(inner, ast.Attribute) and self._is_packet(inner.value):
            # packet.flow.src_ip / packet.ip.dscp / packet.l4.src_port
            if inner.attr == "flow" and node.attr in FIVE_TUPLE_FIELDS:
                self.effects.reads.add(node.attr)
                return
            if inner.attr == "ip" and node.attr in IP_FIELDS:
                self.effects.reads.add(node.attr)
                return
            if inner.attr == "l4" and node.attr in L4_FIELDS:
                self.effects.reads.add(node.attr)
                return
        if self._is_packet(inner):
            if node.attr == "flow":
                self.effects.reads.update(FIVE_TUPLE_FIELDS)
            elif node.attr == "ip":
                self.effects.reads.update(IP_FIELDS)
            elif node.attr == "l4":
                self.effects.reads.update(L4_FIELDS)
            elif node.attr in SCALAR_FIELDS:
                self.effects.reads.add(node.attr)
            elif node.attr == "annotations":
                # Bare .annotations that no specific pattern consumed.
                self.effects.annotations_read.add(ANN_WILDCARD)
            elif node.attr in _PACKET_METADATA_ATTRS:
                pass
            else:
                # Unknown attribute (Packet is slotted — this includes a
                # method object escaping without a call).
                self.effects.escape()
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.packet_names:
            # A bare packet reference no pattern accounted for.
            self.effects.escape()

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_packet_annotations(node.value):
            key = _annotation_key(node.slice, self.constants)
            if isinstance(node.ctx, ast.Load):
                self.effects.annotations_read.add(key)
            else:
                self.effects.annotations_written.add(key)
            self.visit(node.slice)
            return
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # "key" in packet.annotations
        for op, comparator in zip(node.ops, node.comparators):
            if (isinstance(op, (ast.In, ast.NotIn))
                    and self._is_packet_annotations(comparator)):
                self.effects.annotations_read.add(
                    _annotation_key(node.left, self.constants))
        for child in [node.left, *node.comparators]:
            if not self._is_packet_annotations(child):
                self.visit(child)

    # -- writes --------------------------------------------------------
    def _replace_write_fields(self, value: ast.AST, header_attr: str,
                              allowed: frozenset[str]) -> frozenset[str]:
        """Fields written by ``pkt.<header> = replace(pkt.<header>, k=v)``.

        Anything that is not that exact shape rewrites the whole header.
        """
        if (isinstance(value, ast.Call)
                and _qualname_tail(value.func) == "replace"
                and value.args
                and isinstance(value.args[0], ast.Attribute)
                and value.args[0].attr == header_attr
                and self._is_packet(value.args[0].value)
                and all(kw.arg is not None for kw in value.keywords)):
            return frozenset(kw.arg for kw in value.keywords) & allowed
        return allowed

    def _handle_packet_attr_store(self, target: ast.Attribute,
                                  value: ast.AST | None) -> None:
        attr = target.attr
        if attr == "flow":
            self.effects.writes.update(FIVE_TUPLE_FIELDS)
        elif attr == "ip":
            self.effects.writes.update(
                self._replace_write_fields(value, "ip", IP_FIELDS)
                if value is not None else IP_FIELDS)
        elif attr == "l4":
            self.effects.writes.update(
                self._replace_write_fields(value, "l4", L4_FIELDS)
                if value is not None else L4_FIELDS)
        elif attr in SCALAR_FIELDS:
            self.effects.writes.add(attr)
        elif attr == "annotations":
            self.effects.annotations_written.add(ANN_WILDCARD)
        else:
            self.effects.escape()

    def visit_Assign(self, node: ast.Assign) -> None:
        # alias: p = packet
        if (self._is_packet(node.value) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            self.packet_names.add(node.targets[0].id)
            return
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and self._is_packet(target.value)):
                self._handle_packet_attr_store(target, node.value)
            elif (isinstance(target, ast.Subscript)
                    and self._is_packet_annotations(target.value)):
                self.effects.annotations_written.add(
                    _annotation_key(target.slice, self.constants))
                self.visit(target.slice)
            else:
                self.visit(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if (isinstance(target, ast.Subscript)
                and self._is_packet_annotations(target.value)):
            key = _annotation_key(target.slice, self.constants)
            self.effects.annotations_read.add(key)
            self.effects.annotations_written.add(key)
            self.visit(target.slice)
        elif (isinstance(target, ast.Attribute)
                and self._is_packet(target.value)):
            if target.attr in SCALAR_FIELDS:
                self.effects.reads.add(target.attr)
                self.effects.writes.add(target.attr)
            else:
                self.effects.escape()
        else:
            self.visit(target)
        self.visit(node.value)

    # -- calls ---------------------------------------------------------
    def _bind_and_follow(self, method: ast.AST,
                         node: ast.Call) -> None:
        """Analyze a ``self.method(...)`` call with packet args bound
        to the callee's parameter names."""
        assert isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = [arg.arg for arg in method.args.args]
        if params and params[0] == "self":
            params = params[1:]
        sub_packets: set[str] = set()
        for index, arg in enumerate(node.args):
            if index >= len(params):
                break
            if self._is_packet(arg):
                sub_packets.add(params[index])
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            if self._is_packet(keyword.value):
                sub_packets.add(keyword.arg)
        sub = _HandlerAnalyzer(
            self.effects, self.method_table, self.constants,
            sub_packets, self.call_stack | {method.name})
        for statement in method.body:
            sub.visit(statement)

    def _visit_call_operands(self, node: ast.Call,
                             skip: typing.Container[ast.AST] = ()) -> None:
        for arg in node.args:
            if arg in skip:
                continue
            if self._is_packet(arg):
                self.effects.escape()   # packet handed to opaque code
            else:
                self.visit(arg)
        for keyword in node.keywords:
            if keyword.value in skip:
                continue
            if self._is_packet(keyword.value):
                self.effects.escape()
            else:
                self.visit(keyword.value)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        tail = _qualname_tail(func)

        # Verdict factories / manager messages.
        if tail == "send_message":
            self.effects.sends_messages = True
        elif tail in _VERDICT_SEND_FACTORIES:
            self.effects.can_send = True
        elif (tail == "discard" and isinstance(func, ast.Attribute)
                and "Verdict" in _qualname_tail(func.value)):
            self.effects.can_drop = True
        elif tail == "Verdict":
            # Direct construction: Verdict(NfVerdict.DISCARD / SEND).
            for arg in [*node.args,
                        *(kw.value for kw in node.keywords)]:
                kind = _qualname_tail(arg)
                if kind == "DISCARD":
                    self.effects.can_drop = True
                elif kind == "SEND":
                    self.effects.can_send = True

        # self.method(...) — follow into the class's own code.
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            method = self.method_table.get(func.attr)
            if method is not None:
                if func.attr not in self.call_stack:
                    self._bind_and_follow(method, node)
                # Args already bound (or recursion cut); still walk
                # non-packet args for reads like packet.flow.
                for arg in node.args:
                    if not self._is_packet(arg):
                        self.visit(arg)
                for keyword in node.keywords:
                    if not self._is_packet(keyword.value):
                        self.visit(keyword.value)
                return
            self._visit_call_operands(node)
            return

        # Method calls directly on the packet.
        if isinstance(func, ast.Attribute) and self._is_packet(func.value):
            if func.attr == "rewrite_destination":
                self.effects.reads.update(FIVE_TUPLE_FIELDS)
                self.effects.writes.update({"dst_ip", "dst_port"})
                self._visit_call_operands(node)
            elif func.attr in _PACKET_REFCOUNT_METHODS:
                self._visit_call_operands(node)
            else:
                self.effects.escape()
            return

        # Dict-style annotation access: packet.annotations.get(...) etc.
        if (isinstance(func, ast.Attribute)
                and self._is_packet_annotations(func.value)):
            key_node = node.args[0] if node.args else None
            key = (_annotation_key(key_node, self.constants)
                   if key_node is not None else ANN_WILDCARD)
            if func.attr == "get":
                self.effects.annotations_read.add(key)
            elif func.attr in ("setdefault", "pop"):
                self.effects.annotations_read.add(key)
                self.effects.annotations_written.add(key)
            elif func.attr in ("clear", "update"):
                self.effects.annotations_written.add(ANN_WILDCARD)
            else:
                self.effects.annotations_read.add(ANN_WILDCARD)
            self._visit_all(node.args[1:])
            return

        if isinstance(func, ast.Attribute):
            self.visit(func.value)
        self._visit_call_operands(node)

    # -- control flow --------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        # The loop target is a binding, not a read: walk only the iterable.
        self.visit(node.iter)
        self._visit_all(node.body)
        self._visit_all(node.orelse)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            if self._is_packet(node.value):
                self.effects.escape()
            else:
                self.visit(node.value)


# ----------------------------------------------------------------------
# Class-level analysis (AST mode — usable from the lint rules)
# ----------------------------------------------------------------------


def _class_methods(classdef: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {stmt.name: stmt for stmt in classdef.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _analyze_entry(method: ast.FunctionDef, effects: _Effects,
                   method_table: typing.Mapping[str, ast.AST],
                   constants: typing.Mapping[str, str]) -> None:
    params = [arg.arg for arg in method.args.args]
    if params and params[0] == "self":
        params = params[1:]
    packet_names = {params[0]} if params else set()
    analyzer = _HandlerAnalyzer(effects, method_table, constants,
                                packet_names, frozenset({method.name}))
    for statement in method.body:
        analyzer.visit(statement)


def profile_from_classdef(
        classdef: ast.ClassDef,
        constants: typing.Mapping[str, str] | None = None,
        extra_methods: typing.Mapping[str, ast.FunctionDef] | None = None,
) -> ActionProfile:
    """Infer a profile from a class AST alone (no runtime objects).

    ``constants`` maps names to string values for annotation-key
    resolution (module-level ``KEY = "literal"`` assignments);
    unresolvable keys become the wildcard.  ``extra_methods`` supplies
    inherited helper methods when analyzing a class hierarchy.
    """
    constants = constants or {}
    method_table: dict[str, ast.FunctionDef] = dict(extra_methods or {})
    method_table.update(_class_methods(classdef))
    effects = _Effects()
    for name in HANDLER_METHODS:
        method = _class_methods(classdef).get(name)
        if method is not None:
            _analyze_entry(method, effects, method_table, constants)
    return effects.to_profile()


def module_string_constants(tree: ast.Module) -> dict[str, str]:
    """Top-level ``NAME = "literal"`` assignments (annotation keys)."""
    constants: dict[str, str] = {}
    for statement in tree.body:
        if (isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)):
            constants[statement.targets[0].id] = statement.value.value
    return constants


# ----------------------------------------------------------------------
# Runtime inference (classes / instances)
# ----------------------------------------------------------------------

_profile_cache: dict[type, ActionProfile] = {}


def _class_chain(cls: type) -> list[type]:
    """MRO slice from ``cls`` up to (excluding) NetworkFunction."""
    chain: list[type] = []
    for base in cls.__mro__:
        if base.__name__ in ("NetworkFunction", "object"):
            break
        chain.append(base)
    return chain


def _parsed_classdef(cls: type) -> ast.ClassDef | None:
    try:
        source = textwrap.dedent(inspect.getsource(cls))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        return None
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            return node
    return None


def infer_profile(target: type | object) -> ActionProfile:
    """Infer the action profile of an NF class (or instance).

    Walks the MRO below :class:`NetworkFunction` so inherited handlers
    and helpers are analyzed where they are defined; annotation-key
    names resolve through each defining module's globals.  Classes whose
    source is unavailable — and classes that are not NetworkFunction
    subclasses at all, about which nothing can be claimed — get the
    opaque (never-groupable) profile.  Results are cached per class.
    """
    cls = target if isinstance(target, type) else type(target)
    cached = _profile_cache.get(cls)
    if cached is not None:
        return cached

    if not any(base.__name__ == "NetworkFunction"
               for base in cls.__mro__):
        profile = ActionProfile.opaque_profile()
        _profile_cache[cls] = profile
        return profile

    chain = _class_chain(cls)
    classdefs: list[tuple[type, ast.ClassDef]] = []
    for base in chain:
        classdef = _parsed_classdef(base)
        if classdef is None:
            profile = ActionProfile.opaque_profile()
            _profile_cache[cls] = profile
            return profile
        classdefs.append((base, classdef))

    # Subclass definitions shadow base-class ones, front to back.
    method_table: dict[str, ast.FunctionDef] = {}
    constants: dict[str, str] = {}
    for base, classdef in reversed(classdefs):
        method_table.update(_class_methods(classdef))
        module = sys.modules.get(base.__module__)
        if module is not None:
            constants.update({name: value
                              for name, value in vars(module).items()
                              if isinstance(value, str)})

    effects = _Effects()
    for name in HANDLER_METHODS:
        method = method_table.get(name)
        if method is not None:
            _analyze_entry(method, effects, method_table, constants)
    profile = effects.to_profile()
    _profile_cache[cls] = profile
    return profile


# ----------------------------------------------------------------------
# Declared profiles (the @action_profile decorator in repro.nfs.base)
# ----------------------------------------------------------------------

#: Attribute the decorator stores its raw declaration under.
DECLARATION_ATTR = "__sdnfv_declared_profile__"


def profile_from_declaration(
        raw: typing.Mapping[str, typing.Any]) -> ActionProfile:
    """Build a profile from the raw ``@action_profile`` keyword dict."""
    return ActionProfile(
        reads=frozenset(raw.get("reads", ())),
        writes=frozenset(raw.get("writes", ())),
        annotations_read=frozenset(raw.get("annotations_read", ())),
        annotations_written=frozenset(raw.get("annotations_written", ())),
        can_drop=bool(raw.get("drops", False)),
        can_send=bool(raw.get("sends", False)),
        sends_messages=bool(raw.get("messages", False)))


def declared_profile(target: type | object) -> ActionProfile | None:
    """The profile a class *declared* via ``@action_profile``, if any."""
    cls = target if isinstance(target, type) else type(target)
    raw = getattr(cls, DECLARATION_ATTR, None)
    if raw is None:
        return None
    return profile_from_declaration(raw)


def profile_of(target: type | object) -> ActionProfile:
    """The authoritative profile: the declaration when present (NF002
    lints it against the inference), else the inferred profile."""
    declared = declared_profile(target)
    if declared is not None:
        return declared
    return infer_profile(target)


def undeclared_effects(declared: ActionProfile,
                       inferred: ActionProfile) -> tuple[str, ...]:
    """Inferred effects a declaration fails to cover (NF002's check).

    Over-declaration is allowed (it is merely conservative); wildcard
    annotation keys on the inferred side are skipped — the analyzer
    could not resolve them, so no disagreement is provable.
    """
    issues: list[str] = []
    missing_reads = inferred.reads - declared.reads
    if missing_reads:
        issues.append(f"reads {sorted(missing_reads)} not declared")
    missing_writes = inferred.writes - declared.writes
    if missing_writes:
        issues.append(f"writes {sorted(missing_writes)} not declared")
    missing_ann_reads = (inferred.annotations_read
                         - declared.annotations_read - {ANN_WILDCARD})
    if missing_ann_reads:
        issues.append(f"annotation reads {sorted(missing_ann_reads)} "
                      f"not declared")
    missing_ann_writes = (inferred.annotations_written
                          - declared.annotations_written - {ANN_WILDCARD})
    if missing_ann_writes:
        issues.append(f"annotation writes {sorted(missing_ann_writes)} "
                      f"not declared")
    if inferred.can_drop and not declared.can_drop:
        issues.append("handler can DROP but declaration says drops=False")
    if inferred.can_send and not declared.can_send:
        issues.append("handler can SEND but declaration says sends=False")
    if inferred.sends_messages and not declared.sends_messages:
        issues.append("handler sends manager messages but declaration "
                      "says messages=False")
    return tuple(issues)
