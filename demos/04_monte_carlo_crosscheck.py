"""Monte Carlo against quadrature, and a nonabelian loop equation.

The sampler draws lattice configurations of the Wilson measure on a
finite box (exact heat bath for U(1), tuned Metropolis otherwise).  The
single-plaquette expectation must reproduce the character coefficient
a_std(eps) computed by quadrature, and whole master loop equations can be
estimated on one shared sample stream: for SO(3) the equation at the
crossing bond of a figure-eight carries the twist term with coefficient
-1/3 and the modified constant 2/3.
"""

import numpy as np

from loopfield.groups import GroupSpec
from loopfield.action import ActionParams, char_coefficient, standard_label
from loopfield.loops import plaquette_loop
from loopfield.sampler import MCSchedule, estimate_wilson
from loopfield.driver import make_figure_eight
from loopfield.equations import EquationSpec, assemble, evaluate_mc

print(__doc__)

sched = MCSchedule(sweeps=3000, burn_in=300, thin=2, chains=8, seed=42)
plaq = plaquette_loop((0, 0))
for fam in (GroupSpec("U", 1), GroupSpec("SU", 2), GroupSpec("SO", 3)):
    params = ActionParams(fam, 0.5)
    a = char_coefficient(standard_label(fam), params)
    ests, _, meta = estimate_wilson(params, [plaq], sched, margin=1)
    z = (ests[0].mean - a) / ests[0].sigma
    print(f"{fam}: <W_p> = {ests[0].mean:.5f} +- {ests[0].sigma:.5f} "
          f"({meta['algorithm']}), quadrature a_std = {a:.5f}, z = {z:+.2f}")

print("\nSO(3) master loop equation at the crossing bond (shared stream):")
so3 = GroupSpec("SO", 3)
eps = 0.5
geo = make_figure_eight(1.0, 1.0, eps)
terms, meta = assemble(EquationSpec(so3, eps, geo.subject, geo.sites["e"]))
print(f"  constant = {meta['const']:.4f} (1 - 1/3), "
      f"{sum('twist' in t.tag for t in terms)} twist term(s) with "
      f"coefficient +1/3 in the residual")
rep = evaluate_mc(terms, meta, ActionParams(so3, eps),
                  MCSchedule(sweeps=2500, burn_in=300, thin=3, chains=8, seed=7))
print(f"  residual = {rep.residual:+.4f} +- {rep.residual_sigma:.4f} "
      f"(z = {rep.residual / rep.residual_sigma:+.2f})")
