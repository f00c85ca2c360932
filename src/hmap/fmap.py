"""Free-map terms and their structural observers.

A hypermap over a finite set of darts is represented constructively as a
term: ``Void()`` is the empty map, ``Insert(base, x)`` adds an isolated
dart ``x``, and ``Link(base, k, x, y)`` records that ``y`` is the
dimension-``k`` successor of ``x``.  Checked construction keeps every
dimension's explicit links acyclic, so each orbit is an open chain with a
well defined ``bottom`` and ``top``; the missing wrap-around step of each
chain is recovered by ``closed_successor``/``closed_predecessor``, under
which a well-formed term presents as a pair of permutations of its darts.
The chain kernel (``ChainKernel``), built by replaying a term, stores
those permutations and answers the observers below, except ``top`` and
``bottom``, in constant time; its checked replay is the well-formedness
check.  The observers here walk the term and stay the reference
semantics.

Observers are total: queries about the reserved nil dart or about darts
that were never inserted answer nil (or False) instead of raising.

Raw construction with the term constructors and the raw destructors
(``break_link``, ``break_link_back``, ``delete_dart``) never checks
anything; the checked entry points (``insert_dart``, ``link``, ``unlink``,
``unlink_back``, ``remove_dart``) enforce the construction preconditions
and name the violated conjunct.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, KeysView

Dart = int

#: Reserved non-dart value returned by observers when there is no answer.
NIL: Dart = 0


class Dim(Enum):
    """The two link dimensions of a hypermap (0 for edges, 1 for vertices)."""

    zero = 0
    one = 1

    @property
    def other(self) -> "Dim":
        return Dim(1 - self.value)

    def __repr__(self) -> str:
        return f"Dim.{self.name}"


# A read of ``Dim.zero`` (like one of ``k.value``) runs the enum metaclass's
# attribute hook; per-call paths test ``k`` by identity with these instead.
_ZERO, _ONE = Dim.zero, Dim.one


def _dim(k: Dim) -> int:
    """The index, 0 or 1, of the dimension ``k``, told by identity; a
    value that is not a :class:`Dim` raises TypeError."""
    if k is _ZERO:
        return 0
    if k is _ONE:
        return 1
    raise TypeError(f"not a dimension: {k!r}")


class MapError(Exception):
    """Base class for errors raised by map operations."""


class ConstraintError(MapError):
    """A checked operation was asked to violate one of its preconditions."""


class InternalInvariantError(MapError):
    """A consistency condition that should be unreachable was violated."""


class FreeMap:
    """Base class of map terms; concrete terms are Void, Insert and Link.

    ``==``, ``hash`` and ``repr`` loop down the ``base`` chain, so terms
    of any depth support them (the dataclass versions recurse once per
    node); they agree with the dataclass versions on terms.  A chain
    that ends in anything but ``Void``, as a bare ``FreeMap()`` does, is
    no term: it equals only a chain with that very bottom.  Copies and
    pickles reduce a term to its steps and rebuild it in a loop.
    ``_step`` names a step's fields other than ``base``.  ``_trackers``,
    unset on most terms, holds the trackers of a checked build of this
    very term, which its first kernel takes (``_keep_trackers``,
    ``ChainKernel._adopt``); copies and pickles leave it behind.
    """

    __slots__ = ("_trackers",)
    _step: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self, other
        while a is not b:
            if a.__class__ is not b.__class__:
                return False
            if not isinstance(a, (Insert, Link)):
                return isinstance(a, Void)
            for f in a._step:
                if getattr(a, f) != getattr(b, f):
                    return False
            a, b = a.base, b.base
        return True

    def __hash__(self) -> int:
        steps, bottom = _spine(self)
        h = hash(()) if isinstance(bottom, Void) else id(bottom)
        for node in reversed(steps):
            h = hash((h, *[getattr(node, f) for f in node._step]))
        return h

    def __repr__(self) -> str:
        steps, bottom = _spine(self)
        parts = [f"{type(node).__qualname__}(base=" for node in steps]
        parts.append(f"{type(bottom).__qualname__}()" if isinstance(bottom, FreeMap)
                     else repr(bottom))
        for node in reversed(steps):
            parts.extend(f", {f}={getattr(node, f)!r}" for f in node._step)
            parts.append(")")
        return "".join(parts)

    def __reduce__(self) -> tuple[Callable[..., FreeMap], tuple]:
        steps = tuple(tuple(getattr(n, f) for f in n._step) for n in history(self))
        return _rebuild, (steps,)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Void(FreeMap):
    """The empty map."""


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Insert(FreeMap):
    """``base`` extended with a new isolated dart ``x``."""

    base: FreeMap
    x: Dart
    _step = ("x",)

    # Each slot is written through its descriptor; a frozen dataclass's
    # generated __init__ goes through the slower object.__setattr__,
    # paid by every step of every built term.  A dataclass keeps this
    # __init__, and assignment still raises FrozenInstanceError.
    def __init__(self, base: FreeMap, x: Dart) -> None:
        _INSERT_BASE(self, base)
        _INSERT_X(self, x)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Link(FreeMap):
    """``base`` extended with an explicit dimension-``k`` link ``x -> y``."""

    base: FreeMap
    k: Dim
    x: Dart
    y: Dart
    _step = ("k", "x", "y")

    def __init__(self, base: FreeMap, k: Dim, x: Dart, y: Dart) -> None:
        _LINK_BASE(self, base)
        _LINK_K(self, k)
        _LINK_X(self, x)
        _LINK_Y(self, y)


_INSERT_BASE, _INSERT_X = Insert.base.__set__, Insert.x.__set__
_LINK_BASE, _LINK_K, _LINK_X, _LINK_Y = (
    Link.base.__set__, Link.k.__set__, Link.x.__set__, Link.y.__set__)
# a frozen term refuses assignment, so its slot is written through the descriptor
_SET_TRACKERS = FreeMap._trackers.__set__


def _keep_trackers(m: FreeMap, chains: tuple[ChainTracker, ChainTracker]) -> FreeMap:
    """Keep ``chains``, the trackers of a checked build of ``m`` that
    nothing changes any more, on ``m`` for its first index
    (``ChainKernel._adopt``); returns ``m``."""
    _SET_TRACKERS(m, chains)
    return m


def _take_trackers(m: FreeMap) -> tuple[ChainTracker, ChainTracker] | None:
    """The trackers kept on ``m``, which leave it, or None."""
    chains = getattr(m, "_trackers", None)
    if chains is not None:
        _SET_TRACKERS(m, None)
    return chains


def _rebuild(steps: tuple[tuple, ...]) -> FreeMap:
    """The term of ``steps``, innermost first, each ``(x,)`` for an
    insert or ``(k, x, y)`` for a link: what a copy or a pickle of a
    term rebuilds."""
    m: FreeMap = Void()
    for step in steps:
        m = Insert(m, *step) if len(step) == 1 else Link(m, *step)
    return m


def _spine(m: FreeMap) -> tuple[list[Insert | Link], object]:
    """The steps of ``m`` from the outermost in, and what lies below them
    (``Void()`` for a term)."""
    steps: list[Insert | Link] = []
    while isinstance(m, (Insert, Link)):
        steps.append(m)
        m = m.base
    return steps, m


def history(m: FreeMap) -> list[Insert | Link]:
    """Constructor steps of ``m`` in construction order (innermost first)."""
    steps, bottom = _spine(m)
    if not isinstance(bottom, Void):
        raise TypeError(f"not a map term: {bottom!r}")
    steps.reverse()
    return steps


# ---------------------------------------------------------------------------
# observers


def _steps(m: FreeMap) -> Iterator[Insert | Link]:
    """The steps of ``m`` from the outermost in; TypeError at a non-term."""
    while not isinstance(m, Void):
        if not isinstance(m, (Insert, Link)):
            raise TypeError(f"not a map term: {m!r}")
        yield m
        m = m.base


def has_dart(m: FreeMap, z: Dart) -> bool:
    """True when ``z`` was inserted somewhere in ``m`` (nil never counts)."""
    return z != NIL and any(isinstance(s, Insert) and s.x == z for s in _steps(m))


def successor(m: FreeMap, k: Dim, z: Dart) -> Dart:
    """Explicit k-successor of ``z``; the most recent link wins; nil if none."""
    if z == NIL:
        return NIL
    return next((s.y for s in _steps(m)
                 if isinstance(s, Link) and s.k is k and s.x == z), NIL)


def predecessor(m: FreeMap, k: Dim, z: Dart) -> Dart:
    """Explicit k-predecessor of ``z``; the most recent link wins; nil if none."""
    if z == NIL:
        return NIL
    return next((s.x for s in _steps(m)
                 if isinstance(s, Link) and s.k is k and s.y == z), NIL)


def has_successor(m: FreeMap, k: Dim, z: Dart) -> bool:
    return successor(m, k, z) != NIL


def has_predecessor(m: FreeMap, k: Dim, z: Dart) -> bool:
    return predecessor(m, k, z) != NIL


def _chain_end(m: FreeMap, k: Dim, z: Dart,
               step: Callable[[FreeMap, Dim, Dart], Dart]) -> Dart:
    """Last dart of ``z``'s open k-chain in the direction of ``step``
    (``successor`` or ``predecessor``).

    Returns nil for a dart not in the map, and also on a malformed term
    whose explicit k-links cycle through ``z`` (no such endpoint exists
    there).
    """
    if not has_dart(m, z):
        return NIL
    seen = {z}
    cur = z
    while True:
        nxt = step(m, k, cur)
        if nxt == NIL:
            return cur
        if nxt in seen:
            return NIL
        seen.add(nxt)
        cur = nxt


def top(m: FreeMap, k: Dim, z: Dart) -> Dart:
    """Endpoint of ``z``'s open k-chain in the successor direction: the
    unique dart of the chain without an explicit k-successor."""
    return _chain_end(m, k, z, successor)


def bottom(m: FreeMap, k: Dim, z: Dart) -> Dart:
    """Endpoint of ``z``'s open k-chain in the predecessor direction."""
    return _chain_end(m, k, z, predecessor)


def closed_successor(m: FreeMap, k: Dim, z: Dart) -> Dart:
    """k-successor under the orbit closure: the explicit link when there is
    one, otherwise the wrap-around from the chain's top to its bottom."""
    s = successor(m, k, z)
    return s if s != NIL else bottom(m, k, z)


def closed_predecessor(m: FreeMap, k: Dim, z: Dart) -> Dart:
    s = predecessor(m, k, z)
    return s if s != NIL else top(m, k, z)


def face_successor(m: FreeMap, z: Dart) -> Dart:
    """Next dart in the face, using explicit links only (nil-propagating)."""
    return predecessor(m, Dim.one, predecessor(m, Dim.zero, z))


def closed_face_successor(m: FreeMap, z: Dart) -> Dart:
    """Next dart in the face under the orbit closures; a permutation of the
    darts of a well-formed map."""
    return closed_predecessor(m, Dim.one, closed_predecessor(m, Dim.zero, z))


def face_predecessor(m: FreeMap, z: Dart) -> Dart:
    """Inverse of ``face_successor`` where defined (nil-propagating)."""
    return successor(m, Dim.zero, successor(m, Dim.one, z))


def closed_face_predecessor(m: FreeMap, z: Dart) -> Dart:
    return closed_successor(m, Dim.zero, closed_successor(m, Dim.one, z))


# ---------------------------------------------------------------------------
# the chain kernel: construction preconditions, replay, well-formedness

# The conjuncts of the construction preconditions, as message templates.
# A check returns the template of the conjunct that fails, this very
# object, and only a raise fills it in (``str.format`` with ``x``, ``y``
# and ``k``): a refused check formats nothing, and the generators refuse
# most of their link attempts.
NO_DART_X = "dart {x} does not exist"
NO_DART_Y = "dart {y} does not exist"
HAS_SUCCESSOR = "dart {x} already has a {k}-successor"
HAS_PREDECESSOR = "dart {y} already has a {k}-predecessor"
WOULD_CLOSE = "linking {x}->{y} would close the {k}-orbit"
LINK_REFUSALS = (NO_DART_X, NO_DART_Y, HAS_SUCCESSOR, HAS_PREDECESSOR, WOULD_CLOSE)
NIL_ID = "dart id is the reserved nil value"
NEGATIVE_ID = "dart id {x} is negative"
DUPLICATE = "duplicate insert, dart {x} already exists"
INSERT_REFUSALS = (NIL_ID, NEGATIVE_ID, DUPLICATE)


class ChainTracker:
    """The open chains of dimension ``k``, stored as the closure
    permutation and its inverse.

    ``succ`` holds the explicit links.  ``closed_succ`` is the closure
    of dimension ``k``, total on the darts: the explicit link, else the
    wrap-around from a chain's top to its bottom; ``closed_pred`` is
    its inverse.  The keys of either are the darts, and a lone dart is
    a fixed point.  A link ``x -> y`` joins the top ``x`` of one chain,
    whose closed successor is that chain's bottom, to the bottom ``y``
    of another, whose closed predecessor is that chain's top, so it
    rewires two darts in each direction.  ``violation`` is the one
    statement of the link rule; ``link`` refuses a link that breaks it
    before any change.
    """

    __slots__ = ("k", "succ", "closed_succ", "closed_pred")

    def __init__(self, k: int) -> None:
        self.k = k
        self.succ: dict[Dart, Dart] = {}
        self.closed_succ: dict[Dart, Dart] = {}
        self.closed_pred: dict[Dart, Dart] = {}

    def violation(self, x: Dart, y: Dart) -> str | None:
        """The template of the failed conjunct of ``x -> y`` (one of
        ``LINK_REFUSALS``, unformatted), or None when it can be linked.
        A dart has an explicit predecessor exactly when its closed
        predecessor has a successor; the closure conjunct, that the
        closed successor of the top ``x`` (its chain's bottom) is not
        ``y``, keeps every orbit an open chain."""
        cs = self.closed_succ
        if x not in cs:
            return NO_DART_X
        if y not in cs:
            return NO_DART_Y
        succ = self.succ
        if x in succ:
            return HAS_SUCCESSOR
        if self.closed_pred[y] in succ:
            return HAS_PREDECESSOR
        if cs[x] == y:
            return WOULD_CLOSE
        return None

    def refusal(self, x: Dart, y: Dart, reason: str) -> ConstraintError:
        """The error that names the link step ``x -> y`` and the
        template ``reason`` of its failed conjunct, filled in."""
        k = self.k
        return ConstraintError(
            f"link {x}->{y} at dim {k}: " + reason.format(x=x, y=y, k=k))

    def link(self, x: Dart, y: Dart) -> tuple[Dart, Dart]:
        """Apply ``x -> y``; returns the bottom of ``x``'s chain and the
        top of ``y``'s, the two ends of the joined chain."""
        reason = self.violation(x, y)
        if reason is not None:
            raise self.refusal(x, y, reason)
        cs, cp = self.closed_succ, self.closed_pred
        bottom, top = cs[x], cp[y]
        self.succ[x] = y
        cs[x], cs[top] = y, bottom
        cp[y], cp[bottom] = x, top
        return bottom, top


class ChainKernel:
    """The open chains of both dimensions of a term.

    Each dimension is a :class:`ChainTracker`, so every step and every
    closure is a constant number of dict operations; the darts are the
    keys of the closures, read as ``dart_set``.  With its trackers this
    is the one statement of the construction preconditions and of their
    messages, and of the fast form of the term observers: each answers
    as its namesake in this module does on the term, nil (or False)
    outside the dart set.

    ``ChainKernel(m)`` replays the steps of ``m`` in construction order,
    in linear time.  Every step is checked: the first whose precondition
    fails raises ConstraintError naming it, so the constructor is the
    well-formedness check.  :class:`hmap.index.HypermapIndex` is orbit
    labels on a kernel that adopts (``_adopt``) the trackers a checked
    build kept on its term, or else those of a replay, so trackers exist
    only for a well-formed term.  :class:`hmap.stats.IncrementalMap` is
    an empty kernel that keeps its counts current.
    """

    __slots__ = ("chains",)

    def __init__(self, m: FreeMap = Void()) -> None:
        self.chains = (ChainTracker(0), ChainTracker(1))
        c0, c1 = self.chains
        zero, one = Dim.zero, Dim.one  # identity tests, not Dim.value reads
        # bound once: a replay makes one of these calls per step
        add_dart, link0, link1 = self.add_dart, c0.link, c1.link
        for node in history(m):
            if isinstance(node, Insert):
                add_dart(node.x)
            elif node.k is zero:
                link0(node.x, node.y)
            elif node.k is one:
                link1(node.x, node.y)
            else:
                raise TypeError(f"not a dimension: {node.k!r}")

    @property
    def dart_set(self) -> KeysView[Dart]:
        """The darts, a read-only view."""
        return self.chains[0].closed_succ.keys()

    # -- the term observers ---------------------------------------------------

    def has_dart(self, z: Dart) -> bool:
        return z in self.chains[0].closed_succ

    def successor(self, k: Dim, z: Dart) -> Dart:
        return self.chains[_dim(k)].succ.get(z, NIL)

    def predecessor(self, k: Dim, z: Dart) -> Dart:
        ch = self.chains[_dim(k)]
        p = ch.closed_pred.get(z, NIL)
        return p if p in ch.succ else NIL

    def has_successor(self, k: Dim, z: Dart) -> bool:
        return z in self.chains[_dim(k)].succ

    def has_predecessor(self, k: Dim, z: Dart) -> bool:
        ch = self.chains[_dim(k)]
        return ch.closed_pred.get(z) in ch.succ

    def closed_successor(self, k: Dim, z: Dart) -> Dart:
        return self.chains[_dim(k)].closed_succ.get(z, NIL)

    def closed_predecessor(self, k: Dim, z: Dart) -> Dart:
        return self.chains[_dim(k)].closed_pred.get(z, NIL)

    def face_successor(self, z: Dart) -> Dart:
        return self.predecessor(_ONE, self.predecessor(_ZERO, z))

    def face_predecessor(self, z: Dart) -> Dart:
        return self.successor(_ZERO, self.successor(_ONE, z))

    def closed_face_successor(self, z: Dart) -> Dart:
        return self.closed_predecessor(_ONE, self.closed_predecessor(_ZERO, z))

    def closed_face_predecessor(self, z: Dart) -> Dart:
        return self.closed_successor(_ZERO, self.closed_successor(_ONE, z))

    # -- construction -----------------------------------------------------------

    def insert_violation(self, x: Dart) -> str | None:
        """The template of the failed conjunct of inserting ``x`` (one
        of ``INSERT_REFUSALS``, unformatted), or None when it can be
        inserted."""
        if x == NIL:
            return NIL_ID
        if x < 0:
            return NEGATIVE_ID
        if x in self.chains[0].closed_succ:
            return DUPLICATE
        return None

    def link_violation(self, k: Dim, x: Dart, y: Dart) -> str | None:
        """The template of the failed conjunct of ``x -> y`` at dimension
        ``k`` (see :meth:`ChainTracker.violation`), or None when it can
        be linked; :meth:`ChainTracker.refusal` fills it in."""
        # _dim inlined: the generators make a check per attempt
        if k is _ZERO:
            return self.chains[0].violation(x, y)
        if k is _ONE:
            return self.chains[1].violation(x, y)
        raise TypeError(f"not a dimension: {k!r}")

    def can_link(self, k: Dim, x: Dart, y: Dart) -> bool:
        return self.link_violation(k, x, y) is None

    def require_link(self, k: Dim, x: Dart, y: Dart) -> None:
        """Raise ConstraintError, naming the step, unless ``x -> y`` can be linked."""
        reason = self.link_violation(k, x, y)
        if reason is not None:
            raise self.chains[_dim(k)].refusal(x, y, reason)

    def add_dart(self, x: Dart) -> None:
        """Insert ``x``; ConstraintError, naming the step, unless it can be."""
        reason = self.insert_violation(x)
        if reason is not None:
            raise ConstraintError(f"insert {x}: " + reason.format(x=x))
        c0, c1 = self.chains
        c0.closed_succ[x] = c0.closed_pred[x] = c1.closed_succ[x] = c1.closed_pred[x] = x

    def _adopt(self, m: FreeMap) -> None:
        """Take the trackers a checked build kept on ``m`` as this
        kernel's own, shared and not copied, which leave ``m``; else
        those of ``kernel_of(m)`` (MapError on a term that is not well
        formed)."""
        self.chains = _take_trackers(m) or kernel_of(m).chains


def kernel_of(m: FreeMap) -> ChainKernel:
    """The kernel of ``m``; raises MapError when ``m`` is not well formed."""
    try:
        return ChainKernel(m)
    except ConstraintError as exc:
        raise MapError(f"map is not well formed: {exc}") from None


def well_formed_violation(m: FreeMap) -> str | None:
    """First construction step of ``m`` whose precondition fails, or None."""
    try:
        ChainKernel(m)
    except ConstraintError as exc:
        return str(exc)
    return None


def is_well_formed(m: FreeMap) -> bool:
    """True when every construction step of ``m`` met its precondition."""
    return well_formed_violation(m) is None


# ---------------------------------------------------------------------------
# term-level preconditions and checked builders


def can_insert(m: FreeMap, x: Dart) -> bool:
    """``x`` can be inserted into ``m``; MapError if ``m`` is not well formed."""
    return kernel_of(m).insert_violation(x) is None


def can_link(m: FreeMap, k: Dim, x: Dart, y: Dart) -> bool:
    """``x -> y`` can be linked in ``m``; MapError if ``m`` is not well formed."""
    return kernel_of(m).link_violation(k, x, y) is None


def insert_dart(m: FreeMap, x: Dart) -> FreeMap:
    """Checked insertion into the well-formed map ``m``."""
    kernel_of(m).add_dart(x)
    return Insert(m, x)


def link(m: FreeMap, k: Dim, x: Dart, y: Dart) -> FreeMap:
    """Checked linking in the well-formed map ``m``."""
    kernel_of(m).require_link(k, x, y)
    return Link(m, k, x, y)


def make_map(darts: Iterable[Dart], links: Iterable[tuple[Dim, Dart, Dart]] = ()) -> FreeMap:
    """Build a map from all inserts, then all links, checking every step
    in one replay."""
    m: FreeMap = Void()
    for d in darts:
        m = Insert(m, d)
    for k, x, y in links:
        m = Link(m, k, x, y)
    ChainKernel(m)
    return m


# ---------------------------------------------------------------------------
# destructors


def _remove_latest(m: FreeMap, matches: Callable[[Insert | Link], bool],
                   n: int = 1) -> FreeMap:
    """``m`` without its ``n`` most recent steps that ``matches``, in one
    walk and one rebuild: the steps after the innermost of them are
    rebuilt on top.  Unchanged if fewer than ``n`` steps match."""
    outer: list[Insert | Link] = []
    cur = m
    while not isinstance(cur, Void):
        if not matches(cur):
            outer.append(cur)  # type: ignore[arg-type]
        elif (n := n - 1) == 0:
            core = cur.base
            for node in reversed(outer):
                if isinstance(node, Insert):
                    core = Insert(core, node.x)
                else:
                    core = Link(core, node.k, node.x, node.y)
            return core
        cur = cur.base
    return m


def break_link(m: FreeMap, k: Dim, x: Dart) -> FreeMap:
    """Remove the most recent k-link out of ``x``; unchanged if none exists."""
    return _remove_latest(m, lambda n: isinstance(n, Link) and n.k is k and n.x == x)


def break_link_back(m: FreeMap, k: Dim, y: Dart) -> FreeMap:
    """Remove the most recent k-link into ``y``; unchanged if none exists."""
    return _remove_latest(m, lambda n: isinstance(n, Link) and n.k is k and n.y == y)


def delete_dart(m: FreeMap, x: Dart) -> FreeMap:
    """Remove the most recent insertion of ``x``; unchanged if none exists.

    Links mentioning ``x`` are left in place, so deleting a still-linked
    dart yields a term that fails ``is_well_formed``.  ``remove_dart`` is
    the checked variant that refuses that.
    """
    return _remove_latest(m, lambda n: isinstance(n, Insert) and n.x == x)


def unlink(m: FreeMap, k: Dim, x: Dart) -> FreeMap:
    """Checked ``break_link``; warns when there is nothing to break."""
    d = _dim(k)  # TypeError unless k is a Dim
    if not has_successor(m, k, x):
        warnings.warn(f"unlink: dart {x} has no {d}-link; map unchanged",
                      stacklevel=2)
        return m
    return break_link(m, k, x)


def unlink_back(m: FreeMap, k: Dim, y: Dart) -> FreeMap:
    """Checked ``break_link_back``; warns when there is nothing to break."""
    d = _dim(k)  # TypeError unless k is a Dim
    if not has_predecessor(m, k, y):
        warnings.warn(f"unlink_back: dart {y} has no incoming {d}-link; "
                      "map unchanged", stacklevel=2)
        return m
    return break_link_back(m, k, y)


def remove_dart(m: FreeMap, x: Dart) -> FreeMap:
    """Checked ``delete_dart``: refuses linked darts, warns on absent ones."""
    if not has_dart(m, x):
        warnings.warn(f"remove_dart: dart {x} does not exist; map unchanged",
                      stacklevel=2)
        return m
    for k in Dim:
        if has_successor(m, k, x) or has_predecessor(m, k, x):
            raise ConstraintError(
                f"remove {x}: dart is still linked at dim {k.value}")
    return delete_dart(m, x)
