"""Asymptotic expansion templates near the cone tip.

For the k-th power of the cone Laplacian with admissible weight gamma, the
solution's expansion as x -> 0 is a finite sum of candidate terms
x^e log^l x with l bounded per exponent, plus a remainder of order
x^(gamma + 2k - (n+1)/2 - eps), minus the lower edge of the tile J_k
(``weights.tile_edge``).  Two independent constructions are provided:

* ``template_closed_form`` evaluates the closed formula directly: the
  constant term, even shifts x^(2 nu) for nu < k (with an extra log when
  n = 1 and odd companions x^(2 nu - 1) when n = 2), and spectral terms
  x^(-mu_j + 2 nu) for mu_j in the tile J_m, 2 <= m <= k, 0 <= nu <= k-m,
  with log bound m + nu - 2.

* ``template_inductive`` rebuilds the same set by literal induction on k,
  starting from the k = 2 template assembled out of the composed-symbol
  pole set restricted to J_2 and adjoining, at each step k -> k+1, the
  newly visible terms.

Coincident exponents merge with the larger log bound; every term is a
candidate (its realized coefficient may vanish identically).
"""

import math
import warnings
from collections import namedtuple
from fractions import Fraction

from .errors import ContinuityHypothesisFailed, ScenarioError, TruncationTooShort
from .indicial import MERGE_TOL, group_locations, indicial_roots, less, pole_set, same
from .weights import locate_interval, on_tile_edge, require_power, require_window, tile_edge

# the eps of the remainder x^(gamma + 2k - (n+1)/2 - eps) that render_uexp states
_REMAINDER_EPS = 1e-3


class Origin(namedtuple("Origin", "kind j m nu", defaults=(-1, -1, -1))):
    """Provenance tag of a template term, ordered by its fields.

    kind 'constant' | 'even' | 'even_odd' (the n = 2 odd companion) |
    'spectral'; for spectral terms j is the eigenvalue index, m the tile
    index of mu_j, nu the even shift.
    """

    __slots__ = ()

    def as_dict(self):
        out = {"kind": self.kind}
        if self.kind == "spectral":
            out.update({"j": self.j, "m": self.m, "nu": self.nu})
        elif self.kind in ("even", "even_odd"):
            out.update({"nu": self.nu})
        return out


class AsymTerm(namedtuple("AsymTerm", "exponent max_log_power origins approximate_merge near_tile_boundary",
                          defaults=(False, False))):
    __slots__ = ()

    def as_dict(self):
        return {
            "exponent": self.exponent,
            "max_log_power": self.max_log_power,
            "origins": [o.as_dict() for o in self.origins],
            "approximate_merge": self.approximate_merge,
            "near_tile_boundary": self.near_tile_boundary,
        }


class ExpansionTemplate(namedtuple("ExpansionTemplate", "n gamma k terms remainder_exponent validity")):
    __slots__ = ()

    def exponents(self) -> list:
        return [t.exponent for t in self.terms]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma,
            "k": self.k,
            "terms": [t.as_dict() for t in self.terms],
            "remainder_exponent": self.remainder_exponent,
            "validity": self.validity,
        }


def _merged(entries):
    """Terms of (exponent, max_log, origin, near_boundary) entries, merged
    by exponent with the larger log bound, in increasing exponent."""
    terms = []
    for center, key, members, approx in group_locations(entries):
        exponent = center if key is None else key  # prefer the exact representative
        max_log = max(m[1] for m in members)
        origins = tuple(sorted({m[2] for m in members}))
        near = any(m[3] for m in members)
        terms.append(AsymTerm(exponent, max_log, origins, approx, near))
    terms.sort(key=lambda t: float(t.exponent))
    return tuple(terms)


def _precheck(cross_section, gamma, k):
    require_power(k)
    return require_window(cross_section, gamma)


def _truncation_sufficient(cross_section, gamma, k) -> bool:
    """The listed spectrum certifies completeness iff the deepest mu sits
    below the bottom of the deepest contributing tile J_k."""
    n = cross_section.n
    mu_last = indicial_roots(n, cross_section.eigenvalues[-1]).mu
    return less(mu_last, tile_edge(n, gamma, k))


def _finish(cross_section, gamma, k, entries, window):
    terms = _merged(entries)
    sufficient = _truncation_sufficient(cross_section, gamma, k)
    if not sufficient:
        warnings.warn(
            "spectrum truncated too early to certify the template complete",
            TruncationTooShort,
            stacklevel=3,
        )
    validity = {
        "window_lo": float(window[0]),
        "window_hi": float(window[1]),
        "truncation_sufficient": sufficient,
        "complete": sufficient,
        "near_boundary_terms": [float(t.exponent) for t in terms if t.near_tile_boundary],
    }
    return ExpansionTemplate(
        n=cross_section.n,
        gamma=gamma,
        k=k,
        terms=terms,
        remainder_exponent=-tile_edge(cross_section.n, gamma, k),
        validity=validity,
    )


def _spectral_entries(cross_section, gamma, k_max):
    """(j, mu_j, m, near) for eigenvalue indices with mu_j in a tile J_m,
    2 <= m <= k_max; near flags a mu_j on the tile's lower edge."""
    n = cross_section.n
    out = []
    for j, lam in enumerate(cross_section.eigenvalues):
        if j == 0:
            continue
        mu = indicial_roots(n, lam).mu
        m = locate_interval(n, gamma, mu)
        if m is not None and 2 <= m <= k_max:
            out.append((j, mu, m, on_tile_edge(n, gamma, mu)))
    return out


def template_closed_form(cross_section, gamma, k: int) -> ExpansionTemplate:
    """Evaluate the closed template formula at (cross_section, gamma, k)."""
    window = _precheck(cross_section, gamma, k)
    n = cross_section.n
    entries = [(Fraction(0), 0, Origin("constant"), False)]
    extra_even_log = 1 if n == 1 else 0
    for nu in range(1, k):
        if n == 2:
            entries.append((Fraction(2 * nu - 1), nu, Origin("even_odd", nu=nu), False))
        entries.append((Fraction(2 * nu), nu + extra_even_log, Origin("even", nu=nu), False))
    for j, mu, m, near in _spectral_entries(cross_section, gamma, k):
        for nu in range(0, k - m + 1):
            entries.append((-mu + 2 * nu, m + nu - 2, Origin("spectral", j=j, m=m, nu=nu), near))
    return _finish(cross_section, gamma, k, entries, window)


def template_inductive(cross_section, gamma, k: int) -> ExpansionTemplate:
    """Rebuild the template by literal induction on the power k.

    Base k = 2: the constant term, the first even shift (odd companion for
    n = 2), and one term per pole of the composed-symbol pole set lying in
    the tile J_2 with a mode branch q_j^-.  Step K -> K+1 adjoins the newly
    visible terms: the next even shift (and odd companion), and for every
    m <= K+1 and mu_j in J_m the deepest shift exponent -mu_j + 2(K+1-m)
    with log bound K-1.  Merging keeps the larger log bound.
    """
    window = _precheck(cross_section, gamma, k)
    n = cross_section.n
    extra_even_log = 1 if n == 1 else 0

    # base K = 2
    entries = [(Fraction(0), 0, Origin("constant"), False)]
    if n == 2:
        entries.append((Fraction(1), 1, Origin("even_odd", nu=1), False))
    entries.append((Fraction(2), 1 + extra_even_log, Origin("even", nu=1), False))
    for pole in pole_set(cross_section, 2):
        if locate_interval(n, gamma, pole.location) != 2:
            continue
        for j, branch, shift in pole.provenance:
            if j >= 1 and branch == "-" and shift == 0:
                near = on_tile_edge(n, gamma, pole.location)
                entries.append((-pole.location, 0, Origin("spectral", j=j, m=2, nu=0), near))

    # steps K -> K+1 for K = 2 .. k-1
    spectral = _spectral_entries(cross_section, gamma, k)
    for big_k in range(2, k):
        level = big_k + 1
        if n == 2:
            entries.append((Fraction(2 * big_k - 1), big_k, Origin("even_odd", nu=big_k), False))
        entries.append((Fraction(2 * big_k), big_k + extra_even_log, Origin("even", nu=big_k), False))
        for j, mu, m, near in spectral:
            if m <= level:
                entries.append((-mu + 2 * (level - m), big_k - 1, Origin("spectral", j=j, m=m, nu=level - m), near))
    return _finish(cross_section, gamma, k, entries, window)


def template_differences(a: ExpansionTemplate, b: ExpansionTemplate) -> list:
    """Human-readable mismatches between two templates (empty if equal).

    Terms match when exponents agree (exactly for rationals, within 1e-9
    otherwise) and log bounds plus origin tags coincide.
    """
    diffs = []
    if (a.n, a.k) != (b.n, b.k):
        diffs.append(f"shape mismatch: (n,k) {(a.n, a.k)} vs {(b.n, b.k)}")
        return diffs
    if len(a.terms) != len(b.terms):
        diffs.append(f"term count {len(a.terms)} vs {len(b.terms)}")
    for ta, tb in zip(a.terms, b.terms):
        ea, eb = ta.exponent, tb.exponent
        if not same(ea, eb, MERGE_TOL):
            diffs.append(f"exponent {float(ea)} vs {float(eb)}")
            continue
        if ta.max_log_power != tb.max_log_power:
            diffs.append(f"log bound at exponent {float(ea)}: {ta.max_log_power} vs {tb.max_log_power}")
        if ta.origins != tb.origins:
            diffs.append(f"origins at exponent {float(ea)}: {ta.origins} vs {tb.origins}")
    if float(a.remainder_exponent) != float(b.remainder_exponent):
        diffs.append("remainder exponent mismatch")
    return diffs


def render_uexp(template: ExpansionTemplate, s: float = 0.0, p: float = 2.0) -> str:
    """The pointwise expansion as text; needs s + 2k > (n+1)/p.

    s must be finite and 1 < p < inf, the range of the L^p Mellin-Sobolev
    spaces H_p^{s,gamma}.  The stated remainder exponent sits 1e-3 below
    the template's.
    """
    s, p = float(s), float(p)
    if not (math.isfinite(s) and 1 < p < math.inf):
        raise ScenarioError(f"need finite s and 1 < p < inf, got s={s:g}, p={p:g}")
    if not s + 2 * template.k > (template.n + 1) / p:
        raise ContinuityHypothesisFailed(
            f"s + 2k = {s + 2 * template.k} must exceed (n+1)/p = {(template.n + 1) / p}"
        )
    lines = ["u(t, x) ~ sum of:"]
    for t in template.terms:
        e = float(t.exponent)
        if t.max_log_power > 0:
            lines.append(f"  x^{e:g} * P_{t.max_log_power}(log x)")
        else:
            lines.append(f"  x^{e:g}")
    lines.append(f"  + O(x^{float(template.remainder_exponent) - _REMAINDER_EPS:g})")
    lines.append(f"(coefficients depend on t; P_l is a polynomial of degree <= l; valid for s={s:g}, p={p:g})")
    return "\n".join(lines)
