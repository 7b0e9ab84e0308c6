"""Exponentially scaled Bessel evaluations used by the model-cone solvers.

bessel_i returns e^(-|Re z|) I_nu(z) and bessel_k returns e^z K_nu(z), the
overflow-free pair (AMOS's scaled forms); callers fold the exponentials
back into their own products.  Orders nu in [0, 60] and arguments
0 < |z| <= 1e4 off the negative real axis are supported; outside that box
a DomainError is raised rather than returning a value of unknown quality.
Both delegate to scipy.special's ive/kve, which meet a relative-error
target of 1e-10 on this box.  z is a complex scalar (a real one is taken
as complex) or a complex ndarray: one box check (one modulus pass and its
min and max) and one scipy call for the whole array.  scipy.special is imported on the first call, not with
this module.
"""

import numpy as np

from .errors import DomainError

_NU_MAX = 60.0
_Z_MAX = 1.0e4


def check_order(nu: float) -> float:
    """nu as a float, or DomainError outside [0, _NU_MAX]."""
    nu = float(nu)
    if not 0.0 <= nu <= _NU_MAX:
        raise DomainError(f"order {nu} outside [0, {_NU_MAX}]")
    return nu


def _check_complex_arg(z):
    """Complex z, or a complex ndarray checked as a whole: one modulus pass
    and its min and max decide the box, and only an array with a negative
    real part is searched for points on the negative real axis."""
    arr = np.asarray(z, dtype=complex)
    if arr.size:
        r = np.abs(arr)
        if not (r.min() > 0.0 and r.max() <= _Z_MAX):  # a nan modulus fails too
            raise DomainError(f"|argument| {r[~((0.0 < r) & (r <= _Z_MAX))][0]} outside (0, {_Z_MAX}]")
        if arr.real.min() < 0.0 and np.any((arr.imag == 0.0) & (arr.real < 0.0)):
            raise DomainError("argument on the negative real axis")
    return arr if isinstance(z, np.ndarray) else complex(z)


def _scaled(fn, nu, z):
    nu, z = check_order(nu), _check_complex_arg(z)
    value = fn(nu, z)
    return value if isinstance(z, np.ndarray) else complex(value)


def bessel_i(nu, z):
    """e^(-|Re z|) I_nu(z) (scipy's ive); z may be a complex ndarray."""
    from scipy import special

    return _scaled(special.ive, nu, z)


def bessel_k(nu, z):
    """e^z K_nu(z) (scipy's kve); z may be a complex ndarray."""
    from scipy import special

    return _scaled(special.kve, nu, z)
