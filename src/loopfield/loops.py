"""Lattice loops as cyclic words of oriented bonds, and the loop operations.

A bond is a triple (x, y, d): base point in lattice units and a direction
d in {0: R, 1: U, 2: L, 3: D}.  Loops are closed non-backtracking words
modulo cyclic rotation; equality is equality of canonical forms.  All
coordinates are exact integers.

Operations implemented: splitting, merger, deformation (merger with an
adjacent plaquette), twisting, expansion, plus the lift of each operation
to strings (finite sequences of loops).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
DIR_CHARS = "RULD"

Bond = tuple  # (x, y, d)


class LoopError(ValueError):
    pass


def bond_start(b: Bond):
    return (b[0], b[1])


def bond_end(b: Bond):
    dx, dy = DIRS[b[2]]
    return (b[0] + dx, b[1] + dy)


def bond_inverse(b: Bond) -> Bond:
    x, y = bond_end(b)
    return (x, y, (b[2] + 2) % 4)


def bond_edge(b: Bond):
    """(orient, x, y, forward) of bond b: the positively oriented edge it
    runs along, horizontal (orient 0) or vertical (orient 1) from its
    lower-left vertex (x, y), and whether b runs along the edge or against
    it."""
    x, y, d = b
    if d < 2:
        return d, x, y, True
    x, y = bond_end(b)
    return d - 2, x, y, False


def _check_word(word):
    if not word:
        raise LoopError("empty word")
    for a, b in zip(word, word[1:]):
        if bond_end(a) != bond_start(b):
            raise LoopError(f"word not adjacent at {a} -> {b}")
    if bond_end(word[-1]) != bond_start(word[0]):
        raise LoopError("word not closed")


def _erase_backtracking(word):
    """Cyclic reduction: remove e e^-1 pairs to fixpoint."""
    stack = []
    for b in word:
        if stack and b == bond_inverse(stack[-1]):
            stack.pop()
        else:
            stack.append(b)
    while len(stack) >= 2 and stack[-1] == bond_inverse(stack[0]):
        stack.pop()
        stack.pop(0)
    return stack


def _canonical_rotation(word):
    """The least rotation of a nonempty word and the first index it starts at.

    The least rotation starts at a least bond, so only those starts are
    compared; a periodic word keeps its first such index.
    """
    word = tuple(word)
    least = min(word)
    start = min((i for i, b in enumerate(word) if b == least),
                key=lambda i: word[i:] + word[:i])
    return word[start:] + word[:start], start


class Loop:
    """A closed non-backtracking lattice path modulo cyclic rotation.

    The empty loop (everything erased) is permitted only through
    make_loop(..., allow_trivial=True); it represents the constant
    observable W = 1.
    """

    __slots__ = ("word",)

    def __init__(self, word):
        self.word = tuple(word)

    @property
    def is_trivial(self):
        return len(self.word) == 0

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, Loop) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        if self.is_trivial:
            return "Loop(<trivial>)"
        return f"Loop({loop_to_text(self)!r})"

    def bonds(self):
        return self.word

    def rotated(self, x):
        """The same loop as a raw word starting at location x (not canonical)."""
        return self.word[x:] + self.word[:x]


TRIVIAL_LOOP = Loop(())


def make_loop(raw_word, allow_trivial: bool = False) -> Loop:
    """Canonical Loop from a raw closed word: erase backtracking, rotate."""
    word = [tuple(b) for b in raw_word]
    _check_word(word)
    word = _erase_backtracking(word)
    if not word:
        if allow_trivial:
            return TRIVIAL_LOOP
        raise LoopError("word erases to the empty loop")
    canon, _ = _canonical_rotation(word)
    return Loop(canon)


def walk_moves(start, moves: str):
    """The bonds of the path from vertex `start` along a move string like
    'RULD', and the vertex where the path ends."""
    x, y = start
    word = []
    for ch in moves:
        d = DIR_CHARS.index(ch)
        word.append((x, y, d))
        dx, dy = DIRS[d]
        x, y = x + dx, y + dy
    return word, (x, y)


def make_loop_from_moves(base, moves: str, allow_trivial=False) -> Loop:
    """Build a loop from a base point and a move string like 'RULD'."""
    return make_loop(walk_moves(base, moves)[0], allow_trivial=allow_trivial)


def loop_to_text(l: Loop) -> str:
    """Serialize as '(x,y):RULD...' (base point plus moves)."""
    if l.is_trivial:
        return "(0,0):"
    x, y = bond_start(l.word[0])
    moves = "".join(DIR_CHARS[b[2]] for b in l.word)
    return f"({x},{y}):{moves}"


def loop_from_text(text: str) -> Loop:
    head, _, moves = text.partition(":")
    base = tuple(int(v) for v in head.strip("()").split(","))
    if not moves:
        return TRIVIAL_LOOP
    return make_loop_from_moves(base, moves)


def occurrences(l: Loop, b: Bond):
    return [i for i, w in enumerate(l.word) if w == tuple(b)]


def _invword(seq):
    return tuple(bond_inverse(b) for b in reversed(seq))


# ---------------------------------------------------------------------------
# splitting / merger / twisting

def _rot_pair(l: Loop, x: int, y: int):
    if not (0 <= x < len(l.word)) or not (0 <= y < len(l.word)) or x == y:
        raise LoopError(f"bad location pair ({x}, {y})")
    r = l.rotated(x)
    return r, (y - x) % len(l.word)


def split_positive(l: Loop, e: Bond, x: int, y: int) -> "LoopString":
    """l = a e b e c with e at locations x, y  ->  (a e c, b e)."""
    e = tuple(e)
    if l.word[x] != e or l.word[y] != e:
        raise LoopError("positive splitting needs the same bond at both locations")
    r, yy = _rot_pair(l, x, y)
    l1 = make_loop(r[yy:], allow_trivial=True)
    l2 = make_loop(r[:yy], allow_trivial=True)
    return LoopString((l1, l2))


def split_negative(l: Loop, e: Bond, x: int, y: int) -> "LoopString":
    """l = a e b e^-1 c with e at x and e^-1 at y  ->  (a c, b)."""
    e = tuple(e)
    if l.word[x] != e or l.word[y] != bond_inverse(e):
        raise LoopError("negative splitting needs the bond and its inverse")
    r, yy = _rot_pair(l, x, y)
    l1 = make_loop(r[yy + 1:], allow_trivial=True)
    l2 = make_loop(r[1:yy], allow_trivial=True)
    return LoopString((l1, l2))


def merge_positive(l: Loop, lp: Loop, e: Bond, x: int, y: int) -> Loop:
    """Positive merger of l (e at x) and lp (e or e^-1 at y)."""
    e = tuple(e)
    if l.word[x] != e:
        raise LoopError("bond not at stated location in first loop")
    r = l.rotated(x)
    rp = lp.rotated(y)
    if rp[0] == e:
        word = rp + r
    elif rp[0] == bond_inverse(e):
        word = (e,) + _invword(rp[1:]) + r
    else:
        raise LoopError("bond not at stated location in second loop")
    return make_loop(word, allow_trivial=True)


def merge_negative(l: Loop, lp: Loop, e: Bond, x: int, y: int) -> Loop:
    """Negative merger of l (e at x) and lp (e or e^-1 at y)."""
    e = tuple(e)
    if l.word[x] != e:
        raise LoopError("bond not at stated location in first loop")
    r = l.rotated(x)
    rp = lp.rotated(y)
    if rp[0] == e:
        word = r[1:] + _invword(rp[1:])
    elif rp[0] == bond_inverse(e):
        word = rp[1:] + r[1:]
    else:
        raise LoopError("bond not at stated location in second loop")
    return make_loop(word, allow_trivial=True)


def twist_negative(l: Loop, e: Bond, x: int, y: int) -> Loop:
    """l = a e b e c -> a b^-1 c."""
    e = tuple(e)
    if l.word[x] != e or l.word[y] != e:
        raise LoopError("negative twisting needs the same bond twice")
    r, yy = _rot_pair(l, x, y)
    return make_loop(_invword(r[1:yy]) + r[yy + 1:], allow_trivial=True)


def twist_positive(l: Loop, e: Bond, x: int, y: int) -> Loop:
    """l = a e b e^-1 c -> a e b^-1 e^-1 c."""
    e = tuple(e)
    if l.word[x] != e or l.word[y] != bond_inverse(e):
        raise LoopError("positive twisting needs the bond and its inverse")
    r, yy = _rot_pair(l, x, y)
    return make_loop((r[0],) + _invword(r[1:yy]) + (r[yy],) + r[yy + 1:],
                     allow_trivial=True)


# ---------------------------------------------------------------------------
# plaquettes and deformations

def plaquette_word(cell):
    """Canonical counterclockwise boundary word of the unit square at `cell`.

    Rooted at the lexicographically smallest vertex (ordering by (y, x)),
    so the first bond runs to the second smallest vertex.
    """
    i, j = cell
    return ((i, j, 0), (i + 1, j, 1), (i + 1, j + 1, 2), (i, j + 1, 3))


def plaquette_loop(cell) -> Loop:
    return make_loop(plaquette_word(cell))


def incident_cells(b: Bond):
    """The two unit squares adjacent to bond b.

    Returns [(cell, same_orientation), ...]: same_orientation is True when
    the canonical (counterclockwise) plaquette of the cell traverses b
    itself, which happens exactly when the cell lies to the left of b.
    """
    x, y, d = b
    if d == 0:
        return [((x, y), True), ((x, y - 1), False)]
    if d == 1:
        return [((x - 1, y), True), ((x, y), False)]
    if d == 2:
        return [((x - 1, y - 1), True), ((x - 1, y), False)]
    return [((x, y - 1), True), ((x - 1, y - 1), False)]


def _plaquette_through(b: Bond, cell, same_orientation):
    """Canonical plaquette loop of `cell` plus the location of b or b^-1 in it."""
    p = plaquette_loop(cell)
    target = tuple(b) if same_orientation else bond_inverse(b)
    locs = occurrences(p, target)
    assert len(locs) == 1
    return p, locs[0]


def deformation_sets(l: Loop, e: Bond, x: int):
    """All negative and positive deformations of l at the bond e, location x.

    Each of the two adjacent squares yields one negative and one positive
    merger of l with the square's canonical plaquette.  Returns
    (d_minus, d_plus): lists of (Loop, cell).
    """
    e = tuple(e)
    if l.word[x] != e:
        raise LoopError("bond not at stated location")
    d_minus, d_plus = [], []
    for cell, same in incident_cells(e):
        p, y = _plaquette_through(e, cell, same)
        d_minus.append((merge_negative(l, p, e, x, y), cell))
        d_plus.append((merge_positive(l, p, e, x, y), cell))
    return d_minus, d_plus


def expansion_sets(l: Loop, e: Bond, x: int):
    """Positive/negative expansions: pairs (l, p) with p an oriented plaquette.

    Positive expansions use the plaquettes through e^-1, negative ones the
    plaquettes through e.  The loop itself is never modified.
    """
    e = tuple(e)
    if l.word[x] != e:
        raise LoopError("bond not at stated location")
    e_plus, e_minus = [], []
    for cell, same in incident_cells(e):
        ccw = plaquette_loop(cell)
        cw = make_loop(_invword(ccw.word))
        if same:  # ccw contains e, cw contains e^-1
            e_minus.append(LoopString((l, ccw)))
            e_plus.append(LoopString((l, cw)))
        else:
            e_minus.append(LoopString((l, cw)))
            e_plus.append(LoopString((l, ccw)))
    return e_plus, e_minus


# ---------------------------------------------------------------------------
# strings

class LoopString:
    """A finite sequence of loops; the observable is the product of traces."""

    __slots__ = ("loops",)

    def __init__(self, loops):
        self.loops = tuple(loops)
        for l in self.loops:
            if not isinstance(l, Loop):
                raise LoopError("LoopString components must be Loops")

    def __eq__(self, other):
        return isinstance(other, LoopString) and self.loops == other.loops

    def __hash__(self):
        return hash(self.loops)

    def __len__(self):
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)

    def __repr__(self):
        return f"LoopString({', '.join(map(repr, self.loops))})"

    def replace(self, index, replacement):
        """New string with component `index` replaced by a Loop or iterable."""
        if isinstance(replacement, Loop):
            replacement = (replacement,)
        elif isinstance(replacement, LoopString):
            replacement = replacement.loops
        loops = self.loops[:index] + tuple(replacement) + self.loops[index + 1:]
        return LoopString(loops)


def as_string(obj) -> LoopString:
    if isinstance(obj, LoopString):
        return obj
    if isinstance(obj, Loop):
        return LoopString((obj,))
    raise LoopError(f"cannot interpret {obj!r} as a loop string")


def string_deformation_sets(s: LoopString, comp: int, e: Bond, x: int):
    l = s.loops[comp]
    d_minus, d_plus = deformation_sets(l, e, x)
    return ([(s.replace(comp, lp), cell) for lp, cell in d_minus],
            [(s.replace(comp, lp), cell) for lp, cell in d_plus])


def string_split(s: LoopString, comp: int, e: Bond, x: int, y: int, positive: bool):
    l = s.loops[comp]
    pair = split_positive(l, e, x, y) if positive else split_negative(l, e, x, y)
    return s.replace(comp, pair)


def string_merge(s: LoopString, comp_a: int, comp_b: int, e: Bond, x: int, y: int,
                 positive: bool):
    """Merger of two distinct components at a shared bond (or its inverse)."""
    if comp_a == comp_b:
        raise LoopError("merger needs two distinct components")
    la, lb = s.loops[comp_a], s.loops[comp_b]
    merged = merge_positive(la, lb, e, x, y) if positive else merge_negative(la, lb, e, x, y)
    keep = [l for i, l in enumerate(s.loops) if i not in (comp_a, comp_b)]
    return LoopString([merged] + keep)


def string_twist(s: LoopString, comp: int, e: Bond, x: int, y: int, positive: bool):
    l = s.loops[comp]
    t = twist_positive(l, e, x, y) if positive else twist_negative(l, e, x, y)
    return s.replace(comp, t)


# ---------------------------------------------------------------------------
# crossing annotations and compatible triples

@dataclass(frozen=True)
class CrossingAnnotation:
    """Edge decomposition of a loop (or string) around a crossing edge.

    Each span is a tuple of (component, location) pairs indexing into the
    canonical word of the named component: `e_first`/`e_second` are the two
    traversals of the tiny crossing edge, `e1`..`e4` the four adjacent
    edges.  For the outgoing edges e1, e2 locations point at bonds of the
    edge itself; for the incoming edges e3, e4 at bonds of the reversed
    edge as actually traversed.
    """

    e_first: tuple
    e_second: tuple
    e1: tuple
    e2: tuple
    e3: tuple
    e4: tuple


@dataclass(frozen=True)
class CompatibleTriple:
    """Three (component, location) sites in consecutive edges of the loop."""

    kind: str  # "first": (eps in e, eps1, eps3); "second": (eps in e_, eps2, eps4)
    site_e: tuple
    site_a: tuple
    site_b: tuple


def compatible_triples(ann: CrossingAnnotation):
    """All compatible bond triples of both kinds."""
    triples = []
    for le, l1, l3 in itertools.product(ann.e_first, ann.e1, ann.e3):
        triples.append(CompatibleTriple("first", le, l1, l3))
    for le, l2, l4 in itertools.product(ann.e_second, ann.e2, ann.e4):
        triples.append(CompatibleTriple("second", le, l2, l4))
    return triples


# ---------------------------------------------------------------------------
# random loops for stress tests

def random_loop(rng, half_steps_x=3, half_steps_y=3, max_tries=200) -> Loop:
    """A random closed lattice loop: shuffled balanced moves, then reduction."""
    for _ in range(max_tries):
        moves = list("R" * half_steps_x + "L" * half_steps_x
                     + "U" * half_steps_y + "D" * half_steps_y)
        rng.shuffle(moves)
        word, _ = walk_moves((0, 0), "".join(moves))
        if _erase_backtracking(word):
            return make_loop(word)
    raise LoopError("could not generate a nontrivial random loop")
