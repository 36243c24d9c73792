"""The discrete master loop equation holds exactly on the lattice.

For U(1) every term of the loop equation at a fixed bond -- deformations
with weight 1/(2 eps^2), splittings, the loop itself -- evaluates in
closed form through the face products, and the residual vanishes to
machine precision at every bond of every loop.  Perturbing any single
coefficient by 10% destroys the identity, which is the package's built-in
negative control.
"""

import numpy as np

from loopfield.groups import GroupSpec
from loopfield.driver import U1Backend, make_figure_eight
from loopfield.equations import EquationSpec, assemble, evaluate_exact_u1
from loopfield.loops import random_loop

print(__doc__)

eps = 0.25
backend = U1Backend(eps)
geo = make_figure_eight(0.5, 0.5, eps)
u1 = GroupSpec("U", 1)

print("figure-eight with lobe areas (0.5, 0.5) at eps =", eps)
for label, site in [("crossing bond", geo.sites["e"]),
                    ("side bond e1", geo.sites["e1"]),
                    ("side bond e3", geo.sites["e3"])]:
    terms, meta = assemble(EquationSpec(u1, eps, geo.subject, site))
    rep = evaluate_exact_u1(terms, meta, backend)
    print(f"  at {label:13s}: {len(terms)} terms, residual = {rep.residual:+.2e}")
    for t, v in zip(rep.terms, rep.values):
        print(f"      {t.tag:13s} coef {t.coefficient:+9.3f}  E W = {v.mean:.10f}")
    break  # full term table once; residuals for the rest
for label, site in [("crossing bond", geo.sites["e"]),
                    ("side bond e1", geo.sites["e1"]),
                    ("side bond e3", geo.sites["e3"])]:
    rep = evaluate_exact_u1(*assemble(EquationSpec(u1, eps, geo.subject, site)),
                            backend)
    print(f"  residual at {label}: {rep.residual:+.2e}")

print("\n30 random loops, random bond each:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(30):
    loop = random_loop(rng, 4, 4)
    loc = int(rng.integers(len(loop.word)))
    rep = evaluate_exact_u1(*assemble(EquationSpec(u1, eps, loop, (0, loc))),
                            backend)
    worst = max(worst, abs(rep.residual))
print(f"  worst |residual| = {worst:.2e}")

print("\nnegative control: scale the negative-deformation coefficient by 1.1:")
rep = evaluate_exact_u1(*assemble(EquationSpec(u1, eps, geo.subject,
                                               geo.sites["e"],
                                               {"deform-minus": 1.1})), backend)
print(f"  residual = {rep.residual:+.3f}   (loudly nonzero)")
