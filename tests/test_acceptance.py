"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the Monte-Carlo criteria use the
committed default configs (about 1e6 chain-sweeps for the statistical
suite) with fixed seeds, so the whole suite is deterministic.
"""

import os
import time

import pytest

from loopfield.harness import run_experiment, EXIT_OK, EXIT_FAIL

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(num, text, ok, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {text}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _run_config(name, tmp_path):
    t0 = time.time()
    code = run_experiment(os.path.join(CONFIG_DIR, name), out_dir=str(tmp_path))
    return code, time.time() - t0


def test_criterion_1_loop_algebra_oracles():
    """Definitional word surgeries reproduce their stated outputs, < 1 s."""
    from loopfield.loops import (plaquette_loop, make_loop_from_moves, make_loop,
                                 bond_inverse, occurrences, split_positive,
                                 split_negative, merge_positive, merge_negative,
                                 twist_positive, twist_negative,
                                 deformation_sets, expansion_sets)
    from loopfield.driver import make_figure_eight, build_graph
    t0 = time.time()
    checks = 0

    # positive splitting of the crossing loop into its two lobes
    geo = make_figure_eight(0.5, 0.5, 0.5)
    loop = geo.subject
    _, x = geo.annotation.e_first[0]
    e = loop.word[x]
    y = [i for i in occurrences(loop, e) if i != x][0]
    pair = split_positive(loop, e, x, y)
    assert all(len(occurrences(l, e)) == 1 for l in pair)
    assert sum(len(l.word) for l in pair) == len(loop.word)
    checks += 1

    # negative splitting of a dumbbell into its two cells
    dumb = make_loop_from_moves((1, 0), "RRULDLULDR")
    ed = (1, 0, 0)
    xd = occurrences(dumb, ed)[0]
    yd = occurrences(dumb, bond_inverse(ed))[0]
    cells = split_negative(dumb, ed, xd, yd)
    assert set(cells.loops) == {plaquette_loop((0, 0)), plaquette_loop((2, 0))}
    checks += 1

    # mergers: doubled plaquette and exact collapse
    p = plaquette_loop((0, 0))
    assert len(merge_positive(p, p, p.word[0], 0, 0).word) == 8
    p_cw = make_loop([bond_inverse(b) for b in reversed(p.word)])
    yq = occurrences(p_cw, bond_inverse(p.word[0]))[0]
    assert merge_negative(p, p_cw, p.word[0], 0, yq).is_trivial
    checks += 1

    # the four deformations of a simple loop: areas t -+ eps^2 and doubled bonds
    rect = make_loop_from_moves((0, 0), "RRUULLDD")
    e0 = (0, 0, 0)
    d_minus, d_plus = deformation_sets(rect, e0, occurrences(rect, e0)[0])
    assert sorted(build_graph(l).faces[0].plaquettes for l, _ in d_minus) == [3, 5]
    for l, _ in d_plus:
        assert len(occurrences(l, e0)) == 2  # the bond is repeated
    checks += 1

    # twisting: figure-eight -> l1 l2^-1 (both lobes now wound the same way,
    # and the erased crossing column merges them); dumbbell positive twist
    tw = twist_negative(loop, e, x, y)
    assert len(occurrences(tw, e)) == 0
    tw_windings = {f.winding for f in build_graph(tw).faces}
    assert tw_windings == {-1} or tw_windings == {1}
    assert sum(f.plaquettes for f in build_graph(tw).faces) == \
        sum(f.plaquettes for f in build_graph(loop).faces)
    twp = twist_positive(dumb, ed, xd, yd)
    assert sorted(f.winding for f in build_graph(twp).faces) == [-1, 1]
    checks += 1

    # expansions: pairs (l, p), p through e^-1 resp. e, l untouched
    e_plus, e_minus = expansion_sets(rect, e0, 0)
    assert all(s.loops[0] == rect for s in e_plus + e_minus)
    assert all(occurrences(s.loops[1], bond_inverse(e0)) for s in e_plus)
    assert all(occurrences(s.loops[1], e0) for s in e_minus)
    checks += 1

    dt = time.time() - t0
    _report(1, "loop-algebra oracle suite (surgery fixtures, 100% match)",
            dt < 1.0, f"{checks} fixture groups in {dt:.2f}s")


def test_criterion_2_exact_discrete_identity(tmp_path):
    """U(1) master equation residual < 1e-9, figure-eight + 50 random loops."""
    code, dt = _run_config("verify-discrete.cfg", tmp_path)
    _report(2, "exact discrete loop equation (U(1), residual < 1e-9)",
            code == EXIT_OK and dt < 60.0, f"exit {code}, {dt:.1f}s")


def test_criterion_3_simple_loop_convergence(tmp_path):
    """U(1)/U(2), t=1: combination -> e^{-1/2}; monotone; outer cancellation."""
    code, dt = _run_config("converge-simple.cfg", tmp_path)
    _report(3, "simple-loop deformation convergence to exp(-1/2)",
            code == EXIT_OK and dt < 60.0, f"exit {code}, {dt:.1f}s")


def test_criterion_4_crossing_convergence(tmp_path):
    """Crossing combination -> alternating area derivative; all triples agree."""
    code, dt = _run_config("converge-crossing.cfg", tmp_path)
    _report(4, "crossing combination convergence (triples + general combos)",
            code == EXIT_OK and dt < 300.0, f"exit {code}, {dt:.1f}s")


def test_criterion_5_correction_term_identities():
    """Correction-term identities to 1e-6; per-equation sweeps decrease."""
    from loopfield.equations import crossing_im_sweep
    t0 = time.time()
    rep = crossing_im_sweep([0.25, 0.125, 0.0625], family="coil")
    worst = max(max(r["identity_loop1"], r["identity_g2"], r["identity_g3"])
                for r in rep["rows"])
    mono = all(
        all(a[k] > b[k] for a, b in zip(rep["rows"], rep["rows"][1:]))
        for k in ("gap_e", "gap_e1", "gap_e3"))
    nontrivial = abs(rep["rows"][0]["I"][1]) > 1e-3
    dt = time.time() - t0
    _report(5, "correction-term identities (1e-6) with decreasing sweeps",
            worst < 1e-6 and mono and nontrivial and dt < 120.0,
            f"max identity gap {worst:.1e}, {dt:.1f}s")


def test_criterion_6_merger_convergence(tmp_path):
    code, dt = _run_config("converge-merger.cfg", tmp_path)
    _report(6, "merger combination convergence (two crossing squares)",
            code == EXIT_OK and dt < 120.0, f"exit {code}, {dt:.1f}s")


def test_criterion_7_gaussian_lemma(tmp_path):
    code, dt = _run_config("gauss-lemma.cfg", tmp_path)
    _report(7, "small-field approximation: slopes in [3.5, 4.5]; J1 decreasing",
            code == EXIT_OK and dt < 120.0, f"exit {code}, {dt:.1f}s")


@pytest.mark.slow
def test_criterion_8_monte_carlo_statistical_suite(tmp_path):
    code, dt = _run_config("sample-diagnostics.cfg", tmp_path)
    _report(8, "Monte-Carlo statistical suite (plaquette identities, equations, "
               "gauge bit-identity, detailed balance)",
            code == EXIT_OK and dt < 900.0, f"exit {code}, {dt:.1f}s")


@pytest.mark.slow
def test_criterion_9_unified_group_consistency(tmp_path):
    code, dt = _run_config("converge-unified.cfg", tmp_path)
    _report(9, "unified-group combination vs continuum RHS within 3 sigma "
               "(statistical acceptance of an exact lattice identity at each "
               "eps, not of eps -> 0)",
            code == EXIT_OK and dt < 900.0, f"exit {code}, {dt:.1f}s")


def test_criterion_10_degenerate_cases(tmp_path):
    code, dt = _run_config("degenerate.cfg", tmp_path)
    _report(10, "degenerate crossings: both displayed identities to 1e-8",
            code == EXIT_OK and dt < 30.0, f"exit {code}, {dt:.1f}s")


def test_criterion_11_negative_control(tmp_path):
    """A 10% coefficient perturbation must blow up the residual and exit 1."""
    import json
    code, dt = _run_config("negative-control.cfg", tmp_path)
    payload = json.loads((tmp_path / "negative-control.json").read_text())
    worst = max(abs(r["residual"]) for r in payload["rows"])
    _report(11, "negative control: perturbed coefficient fails loudly (exit 1)",
            code == EXIT_FAIL and worst > 1e-3,
            f"exit {code}, max residual {worst:.2e}")
