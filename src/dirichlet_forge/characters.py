"""Semigroup characters psi: Lambda -> C with psi(0) = 1, |psi| <= 1.

A character is stored by its values on the free generators (|z_beta| <= 1,
zeros allowed); psi(lambda) = prod z_beta^nu_beta.  Characters of the form
psi_s(lambda) = exp(-lambda . s) for s in the closed right half-space carry
their s as provenance, and their induced functional agrees with series
evaluation by construction (same sum, same order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import ValidationError, BasisMismatchError
from .semigroup import SemigroupBasis, SemigroupElement, FREE
from .algebra import AlgebraElement, _char_exp, _s_vector
from .exactnum import _complex_value

EXPLICIT = "explicit"
FROM_S = "from_s"
EXTENDED = "extended"


@dataclass(frozen=True)
class Character:
    basis: SemigroupBasis
    values: tuple  # complex value per generator, aligned with basis.generators
    provenance: str = EXPLICIT
    s: Optional[tuple] = None  # for FROM_S

    def __post_init__(self):
        if self.provenance not in (EXPLICIT, FROM_S, EXTENDED):
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        if self.basis.mode != FREE:
            raise ValidationError("explicit characters require a free basis")
        vals = tuple(complex(v) for v in self.values)
        if len(vals) != len(self.basis.generators):
            raise ValidationError("one value per generator required")
        for v in vals:
            if not abs(v) <= 1.0 + 1e-9:  # NaN fails this test too
                raise ValidationError(f"generator value {v} not in the closed unit disk")
        object.__setattr__(self, "values", vals)
        if self.s is not None:
            object.__setattr__(self, "s", tuple(complex(z) for z in self.s))

    @classmethod
    def from_s(cls, basis: SemigroupBasis, s) -> "Character":
        """psi_s(lambda) = exp(-lambda . s), Re s >= 0 coordinatewise."""
        sv = _s_vector(basis, s)
        if any(z.real < 0 for z in sv):
            raise ValidationError("from_s requires Re s >= 0 in every coordinate")
        vals = tuple(_char_exp(basis.generator_element(g.id), sv)
                     for g in basis.generators)
        return cls(basis, vals, FROM_S, sv)

    @cached_property
    def _vm(self) -> dict:
        return {g.id: v for g, v in zip(self.basis.generators, self.values)}

    def value_map(self) -> dict:
        return dict(self._vm)

    def apply(self, lam: SemigroupElement) -> complex:
        """psi(lambda) = prod z_beta^nu; 0^0 = 1."""
        if lam.basis is not self.basis and lam.basis != self.basis:
            raise BasisMismatchError("element over a different basis")
        if self.s is not None:
            return _char_exp(lam, self.s)
        vm = self._vm
        out = 1.0 + 0j
        for gid, n in lam.exponents:
            z = vm[gid]
            if z == 0:
                if n > 0:
                    return 0j
            else:
                out *= z ** n
        return out

    def to_json(self) -> dict:
        data = {
            "values": {str(g.id): {"re": v.real, "im": v.imag}
                       for g, v in zip(self.basis.generators, self.values)},
            "provenance": self.provenance,
        }
        if self.s is not None:
            data["s"] = [{"re": z.real, "im": z.imag} for z in self.s]
        return data

    @classmethod
    def from_json(cls, basis: SemigroupBasis, data: dict) -> "Character":
        try:
            prov = data.get("provenance", EXPLICIT)
            if prov == FROM_S and "s" in data:
                return cls.from_s(basis, [_complex_value(z) for z in data["s"]])
            vm = {int(k): _complex_value(v) for k, v in data["values"].items()}
            vals = []
            for g in basis.generators:
                if g.id not in vm:
                    raise ValidationError(f"missing value for generator {g.id}")
                vals.append(vm[g.id])
            return cls(basis, tuple(vals), prov)
        except (KeyError, OverflowError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed character JSON: {e}") from e


def functional(psi: Character, a: AlgebraElement) -> complex:
    """h_psi(a) = sum a(lambda) psi(lambda), |h_psi(a)| <= ||a||_w for w-bounded psi.

    For psi = from_s this is literally the same sum as evaluate_series(a, s):
    both iterate the sorted support and use the shared exp(-lambda . s) helper.
    """
    if a.basis is not psi.basis and a.basis != psi.basis:
        raise BasisMismatchError("element and character over different bases")
    total = 0j
    for lam in a.support():
        total += complex(a.coeffs[lam]) * psi.apply(lam)
    return total

