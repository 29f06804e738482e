"""Real trigonometric polynomials on the rho-torus, indexed by frequency vectors.

The zero frequency is excluded (observables are centered) and coefficients
satisfy c_{-k} = conj(c_k) so values are real.  The polynomial is a table of
coefficients: the toral scenery evaluates it at rational lattice points p/q
through exact integer phases (``scenery.site_values``), which is what keeps
iteration under hyperbolic matrices stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .walk import lattice_point, real_number


@dataclass(frozen=True)
class TrigPolynomial:
    """coeffs: mapping frequency tuple (in Z^rho, nonzero) -> complex coefficient."""

    coeffs: dict
    rho: int = field(init=False, default=0)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty trigonometric polynomial")
        rho = len(next(iter(self.coeffs)))
        object.__setattr__(self, "rho", rho)
        norm = {}
        for k, c in self.coeffs.items():
            k = lattice_point(k)
            if len(k) != rho:
                raise ValueError("inconsistent frequency dimensions")
            if all(x == 0 for x in k):
                raise ValueError("zero frequency not allowed (observables are centered)")
            norm[k] = complex(c)
        for k, c in norm.items():
            mk = tuple(-x for x in k)
            if mk not in norm or abs(norm[mk] - c.conjugate()) > 1e-12:
                raise ValueError(f"coefficients not Hermitian at {k}: real-valuedness fails")
        object.__setattr__(self, "coeffs", norm)

    @property
    def support(self) -> list:
        return sorted(self.coeffs)

    def norm_c(self) -> float:
        """||f||_c = sum |c_k| (absolutely convergent by finiteness)."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    def norm_l2_sq(self) -> float:
        """||f||_2^2 = sum |c_k|^2 (Parseval)."""
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def half_support(self) -> list:
        """(k, c_k) for one frequency k of each conjugate pair, in support order."""
        half, seen = [], set()
        for k in self.support:
            if tuple(-x for x in k) not in seen:
                seen.add(k)
                half.append((k, self.coeffs[k]))
        return half

    def truncate_to(self, n_terms: int) -> "TrigPolynomial":
        """Keep the n_terms largest coefficients (conjugate pairs kept together)."""
        kept = {}
        for _, k in sorted(((abs(c), k) for k, c in self.half_support()), reverse=True):
            if len(kept) >= n_terms:
                break
            mk = tuple(-x for x in k)
            kept[k] = self.coeffs[k]
            kept[mk] = self.coeffs[mk]
        return TrigPolynomial(kept)


def trig_from_list(items) -> TrigPolynomial:
    coeffs = {tuple(k): complex(real_number(re, f"poly: frequency {k} real part"),
                                real_number(im, f"poly: frequency {k} imaginary part"))
              for k, re, im in items}
    if len(coeffs) < len(items):
        raise ValueError("poly: a frequency k is listed more than once")
    return TrigPolynomial(coeffs)


def cosine_polynomial(freqs, amplitudes=None) -> TrigPolynomial:
    """sum_j a_j cos(2 pi <k_j, x>) as coefficient pairs c_{+-k} = a/2."""
    coeffs = {}
    for j, k in enumerate(freqs):
        a = 1.0 if amplitudes is None else float(amplitudes[j])
        k = lattice_point(k)
        mk = tuple(-x for x in k)
        coeffs[k] = coeffs.get(k, 0.0) + a / 2.0
        coeffs[mk] = coeffs.get(mk, 0.0) + a / 2.0
    return TrigPolynomial(coeffs)
