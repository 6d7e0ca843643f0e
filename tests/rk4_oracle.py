"""The classical RK4 step written out stage by stage.

``rk4`` is the oracle for ``dynamics._rk4``, which issues the same numpy
calls in the same order from two loops over its tableau (three stages, two
updates); an exact comparison pins that order, not only the coefficients.
"""

import numpy as np

from inflaton.dynamics import _accel


def rk4(u, u_t, stages, t, dt, hubble, spec, grid, order):
    """One step, in place on u and u_t, through the eight rows of ``stages``
    (overwritten): v2 = u_t + h a1, v3 = u_t + h a2, v4 = u_t + dt a3
    (h = dt/2), then the two updates."""
    a1, a2, a3, a4, v2, v3, v4, arg = stages
    h = 0.5 * dt
    _accel(u, u_t, t, hubble, spec, grid, order, out=a1)
    np.multiply(a1, h, out=v2)
    v2 += u_t
    np.multiply(u_t, h, out=arg)
    arg += u
    _accel(arg, v2, t + h, hubble, spec, grid, order, out=a2)
    np.multiply(a2, h, out=v3)
    v3 += u_t
    np.multiply(v2, h, out=arg)
    arg += u
    _accel(arg, v3, t + h, hubble, spec, grid, order, out=a3)
    np.multiply(a3, dt, out=v4)
    v4 += u_t
    np.multiply(v3, dt, out=arg)
    arg += u
    _accel(arg, v4, t + dt, hubble, spec, grid, order, out=a4)
    w = dt / 6.0
    v2 += v3                # u += w (u_t + 2 (v2 + v3) + v4)
    v2 *= 2.0
    v2 += u_t
    v2 += v4
    v2 *= w
    u += v2
    a2 += a3                # u_t += w (a1 + 2 (a2 + a3) + a4)
    a2 *= 2.0
    a2 += a1
    a2 += a4
    a2 *= w
    u_t += a2
    u[0] = u[-1] = 0.0
    u_t[0] = u_t[-1] = 0.0
