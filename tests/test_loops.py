import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfield.loops import (Loop, LoopError, TRIVIAL_LOOP, bond_inverse,
                             make_loop, make_loop_from_moves, loop_to_text,
                             plaquette_loop, plaquette_word,
                             incident_cells, occurrences, split_positive,
                             split_negative, merge_positive, merge_negative,
                             twist_positive, twist_negative, deformation_sets,
                             expansion_sets, LoopString, string_split,
                             string_merge, random_loop, compatible_triples,
                             walk_moves, _canonical_rotation, _check_word,
                             _erase_backtracking)
from loopfield.driver import make_figure_eight
from oracles import check_word_reference, erase_backtracking_reference, loop_from_text


def test_make_loop_erases_backtracking():
    # a e e^-1 b -> ab: out-and-back spur on a plaquette
    word = [(0, 0, 0), (1, 0, 0), (2, 0, 2),  # R R L: spur erases
            (1, 0, 1), (1, 1, 2), (0, 1, 3)]
    loop = make_loop(word)
    assert loop == plaquette_loop((0, 0))


def test_make_loop_rotation_equivalence():
    w = plaquette_word((2, 3))
    for r in range(4):
        assert make_loop(w[r:] + w[:r]) == plaquette_loop((2, 3))


def test_make_loop_errors():
    with pytest.raises(LoopError):
        make_loop([(0, 0, 0), (1, 0, 1)])  # not closed
    with pytest.raises(LoopError):
        make_loop([(0, 0, 0), (0, 0, 1)])  # not adjacent
    with pytest.raises(LoopError):
        make_loop([(0, 0, 0), (1, 0, 2)])  # erases to empty
    assert make_loop([(0, 0, 0), (1, 0, 2)], allow_trivial=True) is TRIVIAL_LOOP


def test_bond_inverse_involution():
    for d in range(4):
        b = (3, -2, d)
        assert bond_inverse(bond_inverse(b)) == b


def test_serialization_round_trip():
    loop = make_loop_from_moves((0, 0), "RRUULLDD")
    text = loop_to_text(loop)
    assert loop_from_text(text) == loop


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_loop_round_trip_and_invariants(seed):
    rng = np.random.default_rng(seed)
    loop = random_loop(rng, 3, 3)
    # canonical form is idempotent and serialization is bit-exact
    assert make_loop(loop.word) == loop
    assert loop_from_text(loop_to_text(loop)) == loop
    # no backtracking, cyclically
    n = len(loop.word)
    for i in range(n):
        assert loop.word[(i + 1) % n] != bond_inverse(loop.word[i])


def _scan_rotation(word):
    """The former _canonical_rotation: every rotation compared, first least kept."""
    best, best_i = None, 0
    for i in range(len(word)):
        cand = word[i:] + word[:i]
        if best is None or cand < best:
            best, best_i = cand, i
    return tuple(best), best_i


_BONDS = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_BONDS, min_size=1, max_size=6), st.integers(1, 4),
       st.lists(_BONDS, max_size=3))
def test_canonical_rotation_matches_full_scan(period, repeats, tail):
    # periodic words (a period repeated), and ones whose least bond repeats
    for word in (period * repeats, period * repeats + tail, tail + period * repeats):
        if word:
            assert _canonical_rotation(word) == _scan_rotation(word)
            assert _canonical_rotation(list(word)) == _scan_rotation(list(word))


def _reduced(check, erase, word):
    """("error", message) if check rejects the word, else ("word", erased)."""
    try:
        check(word)
    except LoopError as exc:
        return "error", str(exc)
    return "word", erase(word)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.text("RULD", max_size=4),
       st.integers(0, 2**32 - 1),
       st.sampled_from(("closed", "unclosed", "non-adjacent", "empty")))
def test_check_and_erase_match_the_bond_helper_oracles(nx, ny, spur, seed, kind):
    # closed words are shuffled balanced moves with a spur walked out and
    # back at some point (backtracking, and cyclic ends that cancel); the
    # other kinds drop the last bond, move one bond off the path, or are
    # empty, and must fail with the reference's message
    rng = np.random.default_rng(seed)
    moves = list("R" * nx + "L" * nx + "U" * ny + "D" * ny)
    rng.shuffle(moves)
    back = "".join("LDRU"["RULD".index(c)] for c in reversed(spur))
    at = int(rng.integers(len(moves) + 1))
    moves[at:at] = list(spur + back)
    base = tuple(int(v) for v in rng.integers(-3, 4, 2))
    word, end = walk_moves(base, "".join(moves))
    assert end == base
    if kind == "empty":
        word = []
    elif kind == "unclosed" and word:
        word = word[:-1]
    elif kind == "non-adjacent" and word:
        i = int(rng.integers(len(word)))
        x, y, d = word[i]
        word[i] = (x + 1, y + int(rng.integers(-1, 2)), d)
    got = _reduced(_check_word, _erase_backtracking, word)
    assert got == _reduced(check_word_reference, erase_backtracking_reference, word)
    if got[0] == "error":
        with pytest.raises(LoopError) as exc:
            make_loop(word)
        assert str(exc.value) == got[1]
    elif got[1]:
        assert make_loop(word) == Loop(_canonical_rotation(got[1])[0])
    else:
        assert make_loop(word, allow_trivial=True) is TRIVIAL_LOOP


def _figure_eight_parts():
    geo = make_figure_eight(0.5, 0.5, 0.5)
    loop = geo.subject
    comp, x = geo.annotation.e_first[0]
    e = loop.word[x]
    y = [i for i in occurrences(loop, e) if i != x][0]
    return geo, loop, e, x, y


def test_positive_splitting_gives_the_two_lobes():
    geo, loop, e, x, y = _figure_eight_parts()
    pair = split_positive(loop, e, x, y)
    assert len(pair) == 2
    total = len(pair.loops[0].word) + len(pair.loops[1].word)
    assert total == len(loop.word)  # the two e-copies are redistributed
    # each lobe passes the crossing edge once
    for lobe in pair:
        assert len(occurrences(lobe, e)) == 1


def test_split_merge_duality():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        loop = random_loop(rng, 4, 4)
        pairs = [(x, y) for x in range(len(loop.word))
                 for y in occurrences(loop, loop.word[x]) if y != x]
        if not pairs:
            continue
        x, y = pairs[0]
        e = loop.word[x]
        s = split_positive(loop, e, x, y)
        l1, l2 = s.loops
        if l1.is_trivial or l2.is_trivial:
            checked += 1
            continue
        # merging the split pair at the severed bond recovers the loop
        x1 = occurrences(l1, e)[0]
        x2 = occurrences(l2, e)[0]
        merged = merge_positive(l1, l2, e, x1, x2)
        assert merged == loop
        checked += 1


def _dumbbell():
    """Two cells joined by a corridor bond traversed in both directions.

    The cyclic word has the form a e b e^-1 c with e the corridor bond."""
    loop = make_loop_from_moves((1, 0), "RRULDLULDR")
    e = (1, 0, 0)
    x = occurrences(loop, e)[0]
    y = occurrences(loop, bond_inverse(e))[0]
    return loop, e, x, y


def test_negative_splitting_word_pattern():
    # l = a e b e^-1 c -> (ac, b): the two dumbbell cells come apart
    loop, e, x, y = _dumbbell()
    pair = split_negative(loop, e, x, y)
    assert sorted(len(l.word) for l in pair) == [4, 4]
    assert set(pair.loops) == {plaquette_loop((0, 0)), plaquette_loop((2, 0))}
    with pytest.raises(LoopError):
        split_negative(plaquette_loop((0, 0)), (0, 0, 0), 0, 1)


def test_merger_patterns_on_plaquettes():
    p1 = plaquette_loop((0, 0))
    p2 = plaquette_loop((0, 0))
    e = p1.word[0]
    # positive merger of a plaquette with itself: the doubled plaquette
    merged = merge_positive(p1, p2, e, 0, 0)
    assert len(merged.word) == 8
    # negative merger of p with p^-1-containing partner erases everything
    p_cw = make_loop([bond_inverse(b) for b in reversed(p1.word)])
    y = occurrences(p_cw, bond_inverse(e))[0]
    collapsed = merge_negative(p1, p_cw, e, 0, y)
    assert collapsed.is_trivial


def test_deformation_sets_size_and_plaquette_collapse():
    p = plaquette_loop((0, 0))
    e = p.word[0]
    d_minus, d_plus = deformation_sets(p, e, 0)
    assert len(d_minus) == 2 and len(d_plus) == 2
    # deforming a single plaquette into its own face erases to the trivial loop
    assert any(l.is_trivial for l, _ in d_minus)
    # every other output satisfies the loop invariants (constructor-enforced)
    for l, _ in d_minus + d_plus:
        if not l.is_trivial:
            assert make_loop(l.word) == l


def test_deformation_area_bookkeeping():
    # inner-negative shrinks a simple loop by one cell, outer-negative grows it
    from loopfield.driver import build_graph
    loop = make_loop_from_moves((0, 0), "RRUULLDD")
    e = (0, 0, 0)
    x = occurrences(loop, e)[0]
    d_minus, _ = deformation_sets(loop, e, x)
    areas = sorted(build_graph(l).faces[0].plaquettes for l, _ in d_minus)
    assert areas == [3, 5]


def test_twist_negative_gives_l1_l2_inverse():
    # twisting the figure-eight at its doubled bond yields l1 l2^-1: the
    # crossing edge cancels entirely and the second lobe reverses
    geo, loop, e, x, y = _figure_eight_parts()
    tw = twist_negative(loop, e, x, y)
    assert len(occurrences(tw, e)) == 0
    pair = split_positive(loop, e, x, y)
    l1, l2 = pair.loops
    l1r = l1.rotated(occurrences(l1, e)[0])
    l2r = l2.rotated(occurrences(l2, e)[0])
    concat = tuple(l1r) + tuple(bond_inverse(b) for b in reversed(l2r))
    assert tw == make_loop(concat, allow_trivial=True)
    # positive twisting needs an e / e^-1 pair
    with pytest.raises(LoopError):
        twist_positive(loop, e, x, y)


def test_twist_positive_pattern():
    # a e b e^-1 c -> a e b^-1 e^-1 c on the dumbbell: the far cell reverses
    loop, e, x, y = _dumbbell()
    tw = twist_positive(loop, e, x, y)
    assert len(tw.word) == len(loop.word)
    assert len(occurrences(tw, e)) == 1
    assert len(occurrences(tw, bond_inverse(e))) == 1
    # the far cell is now traversed clockwise: both cells wind oppositely
    from loopfield.driver import build_graph
    g = build_graph(tw)
    assert sorted(f.winding for f in g.faces) == [-1, 1]


def test_expansion_sets():
    loop = make_loop_from_moves((0, 0), "RRUULLDD")
    e = (0, 0, 0)
    e_plus, e_minus = expansion_sets(loop, e, 0)
    assert len(e_plus) == 2 and len(e_minus) == 2
    for s in e_plus + e_minus:
        assert isinstance(s, LoopString) and len(s) == 2
        assert s.loops[0] == loop  # expansion never modifies the loop itself
        assert len(s.loops[1].word) == 4
    # positive expansions carry e^-1, negative ones carry e
    for s in e_plus:
        assert occurrences(s.loops[1], bond_inverse(e))
    for s in e_minus:
        assert occurrences(s.loops[1], e)


def test_incident_cells_orientation():
    # the same-orientation cell lies to the left of the bond
    assert incident_cells((0, 0, 0))[0] == ((0, 0), True)
    assert incident_cells((0, 0, 1))[0] == ((-1, 0), True)
    for d in range(4):
        cells = incident_cells((2, 5, d))
        assert len(cells) == 2 and cells[0][1] and not cells[1][1]


def test_string_operations():
    p1 = plaquette_loop((0, 0))
    p2 = plaquette_loop((5, 5))
    s = LoopString((p1, p2))
    merged = string_merge(LoopString((p1, plaquette_loop((0, 0)))), 0, 1,
                          p1.word[0], 0, 0, positive=True)
    assert len(merged) == 1
    with pytest.raises(LoopError):
        string_merge(s, 0, 0, p1.word[0], 0, 0, positive=True)


def test_compatible_triples_counting():
    geo = make_figure_eight(0.5, 0.5, 0.25)
    triples = compatible_triples(geo.annotation)
    n1 = len(geo.annotation.e_first) * len(geo.annotation.e1) * len(geo.annotation.e3)
    n2 = len(geo.annotation.e_second) * len(geo.annotation.e2) * len(geo.annotation.e4)
    assert len(triples) == n1 + n2
    assert len(geo.annotation.e_first) == 2  # |e^eps| = 2 bonds
    # 2 k^2 triples of the first kind with k = 2 bonds per adjacent edge
    assert n1 == 2 * 2 * 2


def test_location_stability_under_rotation():
    # operations take canonical-word locations, so any construction order
    # of the same cyclic word gives identical results
    geo, loop, e, x, y = _figure_eight_parts()
    rotated = make_loop(loop.rotated(3))
    assert rotated == loop
    assert split_positive(rotated, e, x, y) == split_positive(loop, e, x, y)
