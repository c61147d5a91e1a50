"""Fourier and sign conventions of the package.

Transform pair:

    u_hat(xi) = int e^{+i<xi,x>} u(x) dx
    u(x)      = (2*pi)^{-d} int e^{-i<xi,x>} u_hat(xi) dxi

Characteristic function of the process at time t:

    mu_hat_t(xi) = E e^{i<xi,L_t>} = e^{-t*A(-xi)}

so the time-t propagator acting on transformed payoffs is the decaying
factor e^{-tau*A(xi)} (consistent with Re A >= 0).  Only the inverse
prefactor is shared as code (`inv_scale`, used by spectral); the exponents
are written out where they are applied, e^{-t A(-xi)} in Symbol.char_fn and
e^{-tau A(xi)} in spectral's propagators, and must follow these lines.
"""

import numpy as np


def inv_scale(d: int) -> float:
    """(2*pi)^{-d} prefactor of the inverse transform."""
    return float((2.0 * np.pi) ** (-d))
