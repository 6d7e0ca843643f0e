"""The second-derivative stencils as slice sums, written term by term.

``second_derivative`` is the oracle for ``dynamics._second_derivative``,
whose interior rows at orders 4 and 6 are one ``np.correlate`` pass with
the symmetric taps (so it is the convolution), and whose rows near the
ends are Python-float sums.  Each sum here is evaluated left to right as
written, so an exact comparison pins the correlate's summation order, not
only its taps.  ``np.correlate`` swaps its inputs when the kernel is longer
than the input (and reverses its result), which would reverse that order;
the shortest input the program forms has 17 nodes (``n_cells`` 16), and
``tests/test_dynamics.py`` compares from there up.
"""

import numpy as np


def second_derivative(u: np.ndarray, dr: float, order: int) -> np.ndarray:
    """Centered u_rr of order 2, 4 or 6, with the ghost values u[-k] = -u[k]
    at the origin, lower-order rows at the outer end and 0 in the first and
    last row."""
    out = np.zeros_like(u)
    h2 = dr * dr
    if order == 2:
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
        return out
    if order == 4:
        out[2:-2] = (-u[4:] + 16.0 * u[3:-1] - 30.0 * u[2:-2]
                     + 16.0 * u[1:-3] - u[:-4]) / (12.0 * h2)
        out[1] = (-u[3] + 16.0 * u[2] - 29.0 * u[1] + 16.0 * u[0]) / (12.0 * h2)
        out[-2] = (u[-1] - 2.0 * u[-2] + u[-3]) / h2
        return out
    out[3:-3] = (2.0 * u[:-6] - 27.0 * u[1:-5] + 270.0 * u[2:-4] - 490.0 * u[3:-3]
                 + 270.0 * u[4:-2] - 27.0 * u[5:-1] + 2.0 * u[6:]) / (180.0 * h2)
    out[1] = (-2.0 * u[2] + 27.0 * u[1] + 270.0 * u[0] - 490.0 * u[1]
              + 270.0 * u[2] - 27.0 * u[3] + 2.0 * u[4]) / (180.0 * h2)
    out[2] = (-2.0 * u[1] - 27.0 * u[0] + 270.0 * u[1] - 490.0 * u[2]
              + 270.0 * u[3] - 27.0 * u[4] + 2.0 * u[5]) / (180.0 * h2)
    out[-3] = (-u[-1] + 16.0 * u[-2] - 30.0 * u[-3] + 16.0 * u[-4] - u[-5]) / (12.0 * h2)
    out[-2] = (u[-1] - 2.0 * u[-2] + u[-3]) / h2
    return out
