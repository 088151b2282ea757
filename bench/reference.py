"""Reference model of the quantized PI loop, written apart from quantloop.

The benchmark checks every output of the program against this module, so
it imports nothing from quantloop and shares none of its code paths.

Exact runs work on integers.  With D the lcm of the denominators of the
gain, the disturbance and the initial state, every state stays on the
lattice (1/D)Z: each step adds integers and d to e, and adds integers and
alpha times an integer to u (or resets u to an integer).  A state is held
as the integer pair (E, U) = (D e, D u), rounding is one ``divmod`` and the
capture inequalities are integer compares.

Float runs repeat the loop's IEEE operation order (left to right, as the
laws are written) with a rounding of their own, so they reproduce binary
trajectories bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO_BRANCH = "rho-zero-branch"
NONZERO_BRANCH = "rho-nonzero-branch"
NO_BRANCH = "n/a"

THEOREM1 = "theorem1-set"
ALT_UNIT = "alt-unit-set"
AMPLITUDE2 = "amplitude2-set"
UNRESOLVED = "unresolved"

_HALF = Fraction(1, 2)


def rho_scaled(x: int, den: int) -> int:
    """Round ``x / den`` (den > 0) to the nearest integer, halves away
    from zero."""
    q, r = divmod(abs(x), den)
    if 2 * r >= den:
        q += 1
    return q if x >= 0 else -q


def rho_float(z: float) -> int:
    """Round a binary double to the nearest integer, halves away from zero.

    ``a - floor(a)`` is exact for a double ``a >= 0``, so the tie test
    involves no rounding of its own.
    """
    a = abs(z)
    n = math.floor(a)
    if a - n >= 0.5:
        n += 1
    return n if z >= 0 else -n


def rho(z) -> int:
    """Half-away rounding of an int, Fraction or float."""
    if isinstance(z, float):
        return rho_float(z)
    z = Fraction(z)
    return rho_scaled(z.numerator, z.denominator)


def fmt_scaled(x: int, den: int) -> str:
    """``x / den`` in lowest terms as ``n/m``, or bare ``n`` for integers."""
    g = math.gcd(x, den)
    n, m = x // g, den // g
    return str(n) if m == 1 else f"{n}/{m}"


def lattice(*values) -> int:
    """Common denominator D of exact values: every value times D is an int."""
    return math.lcm(*(Fraction(v).denominator for v in values))


def exact_run(alpha, d, e0, u0, steps: int, switched: bool):
    """Yield ``(E, U, branch)`` for k = 0..steps of a constant-disturbance
    run, with the state scaled by ``D = lattice(alpha, d, e0, u0)``.

    ``branch`` is the switched law's branch that produced the state (``n/a``
    for the initial state and for the standard law).
    """
    den = lattice(alpha, d, e0, u0)
    a, dd, e, u = (int(Fraction(v) * den) for v in (alpha, d, e0, u0))
    branch = NO_BRANCH
    yield e, u, branch
    for _ in range(steps):
        re, ru = rho_scaled(e, den), rho_scaled(u, den)
        e = e + ru * den + dd
        re1 = rho_scaled(e, den)
        if switched and re1 == 0:
            u = (ru + re) * den
            branch = ZERO_BRANCH
        else:
            u = u + re * den - a * re1
            branch = NONZERO_BRANCH if switched else NO_BRANCH
        yield e, u, branch


def float_run(alpha, d, e0, u0, steps: int, switched: bool):
    """Yield ``(e, u)`` for k = 0..steps of a constant-disturbance run in
    binary doubles."""
    alpha, d, e, u = float(alpha), float(d), float(e0), float(u0)
    yield e, u
    for _ in range(steps):
        re, ru = rho_float(e), rho_float(u)
        e = e + ru + d
        re1 = rho_float(e)
        if switched and re1 == 0:
            u = float(ru + re)
        else:
            u = u + re - alpha * re1
        yield e, u


def trajectory_rows(alpha, dbar, e0, u0, steps: int):
    """CSV rows ``k,e,u,rho_e,rho_u,d,mode`` of an exact switched-PI run
    under the constant disturbance ``dbar``, as strings."""
    den = lattice(alpha, dbar, e0, u0)
    d_text = fmt_scaled(int(Fraction(dbar) * den), den)
    for k, (e, u, branch) in enumerate(
            exact_run(alpha, dbar, e0, u0, steps, switched=True)):
        yield [str(k), fmt_scaled(e, den), fmt_scaled(u, den),
               str(rho_scaled(e, den)), str(rho_scaled(u, den)), d_text, branch]


def rms_from_rest(alpha, dbar, horizon: int, switched: bool) -> float:
    """RMS of the quantized error over steps 0..horizon-1, from e = u = 0.

    ``dbar`` is a Fraction (exact run) or a float (binary run).
    """
    if isinstance(dbar, float):
        errors = (rho_float(e) for e, _ in
                  float_run(alpha, dbar, 0, 0, horizon - 1, switched))
    else:
        den = lattice(alpha, dbar)
        errors = (rho_scaled(e, den) for e, _, _ in
                  exact_run(alpha, dbar, 0, 0, horizon - 1, switched))
    return math.sqrt(sum(r * r for r in errors) / horizon)


def residual(dbar) -> Fraction:
    """Rounding error ``dbar - rho(dbar)`` of an exact disturbance."""
    dbar = Fraction(dbar)
    return dbar - rho(dbar)


def minimal_pairs(delta_d) -> frozenset:
    """The paper's minimal invariant set of quantized pairs: {(0,0)} at zero
    residual, else {(0,0), (s,-s)} with s the residual's sign."""
    s = (delta_d > 0) - (delta_d < 0)
    return frozenset({(0, 0), (s, -s)})


def amplitude2_set(delta_d):
    """The paper's excursion-2 set, which exists only at |delta_d| = 1/2."""
    if delta_d == _HALF:
        return frozenset({(-1, 1), (1, -2)})
    if delta_d == -_HALF:
        return frozenset({(-1, 2), (1, -1)})
    return None


def classify(alpha, delta_d, e0, u_bar0, budget: int):
    """Classify the attractor reached by the shifted switched loop.

    Returns ``(tag, path, steps)``: ``path`` is ``capture`` when the state
    entered the capture region, ``recurrence`` when an exact state revisit
    closed a cycle first, and ``budget`` when neither happened; ``steps``
    counts the law steps taken before the decision.
    """
    den = lattice(alpha, delta_d, e0, u_bar0)
    a = int(Fraction(alpha) * den)
    s = (delta_d > 0) - (delta_d < 0)
    seen = {}
    pairs = []
    k = 0
    for e, u, _ in exact_run(alpha, delta_d, e0, u_bar0, budget, switched=True):
        # -1/2 < e < 1/2, -1/2 < u < 1/2 and 1 <= alpha - s u < 3/2
        x = a - s * u
        if (-den < 2 * e < den and -den < 2 * u < den
                and den <= x and 2 * x < 3 * den):
            return THEOREM1, "capture", k
        j = seen.get((e, u))
        if j is not None:
            return _cycle_tag(delta_d, pairs[j:]), "recurrence", k
        seen[(e, u)] = k
        pairs.append((rho_scaled(e, den), rho_scaled(u, den)))
        k += 1
    return UNRESOLVED, "budget", budget


def _cycle_tag(delta_d, cycle: list) -> str:
    pairs = frozenset(cycle)
    if pairs <= minimal_pairs(delta_d):
        return THEOREM1
    if pairs == amplitude2_set(delta_d):
        return AMPLITUDE2
    errors = [p[0] for p in pairs]
    if max(errors) - min(errors) <= 1:
        return ALT_UNIT
    return UNRESOLVED
