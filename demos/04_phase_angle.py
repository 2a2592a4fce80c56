"""
Counting zeros through the phase angle
======================================

Write (phi, psi) in polar form.  phi vanishes exactly when the angle theta
crosses a vertical line pi/2 - m pi.  angle_line_crossings reads those
crossings off one walk of the companion's fundamental matrix, solved as
Chebyshev series chunk by chunk and rescaled at the end of each chunk, so
solutions that grow by orders of magnitude stay in range: the solution
from (cos theta0, sin theta0) vanishes where the Pruefer angle of the
matrix's first row reaches a level.  The direct count below steps the
same system with integrate_ode and records the sign changes of phi as
events.
"""

import numpy as np

from oscillint import (SystemSpec, Tolerances, angle_line_crossings,
                       integrate_ode, parse_text, zero_crossing)

rng = np.random.default_rng(11)


def random_system():
    q0 = rng.uniform(0.2, 1.5)
    q1 = rng.uniform(0.0, 0.9) * q0
    r0 = rng.uniform(-1.5, 1.5)
    w = rng.uniform(0.5, 2.0)
    return SystemSpec(parse_text(f"{rng.uniform(-0.4, 0.4):.4f} * cos(t)"),
                      parse_text(f"{q0:.4f} + {q1:.4f} * sin({w:.4f} * t)"),
                      parse_text(f"{r0:.4f} + {rng.uniform(0, 1):.4f} * cos(t)"),
                      parse_text(f"{rng.uniform(-0.4, 0.4):.4f} * sin(t)"),
                      parse_text("0"), parse_text("0"))


span = (0.0, 20.0)
tol = Tolerances(escape_magnitude=1e300)

print(" angle  direct   agree")
for _ in range(8):
    system = random_system()
    # theta0 = 0 is the solution starting at (phi, psi) = (1, 0)
    crossings = angle_line_crossings(system, span, theta0=0.0, tol=tol)
    trajectory = integrate_ode(system.field(), [1.0, 0.0], span, tol,
                               events=[zero_crossing(0)])
    direct = [ev.time for ev in trajectory.events
              if ev.kind == "zero-crossing"]
    print(f"  {len(crossings):4d}  {len(direct):6d}   "
          f"{'yes' if len(crossings) == len(direct) else 'NO'}")

# The two counters agree system by system.  The angle version restarts each
# chunk on the unit circle, which is why the escape ceiling above only
# matters for the direct integration.
