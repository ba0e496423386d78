"""SL2-equivariant decomposition of map pairs into a form pair.

A degree-d pair (F1, F2) is equivalent, as an SL2 representation, to a
pair (H, J) where H = dF1/dX + dF2/dY is the divergence form of degree
d-1 and J = Y F1 - X F2 is the fixed-point form of degree d+1.  The
inverse is (X H + dJ/dY, Y H - dJ/dX) / (d+1).  The multiplicative group
acts by t.(H, J) = (tH, J/t), commuting with the substitution action, and
a scaled pair comes from a genuine degree-d map exactly when no multiple
zero of J is also a zero of H.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cyclotomic import Cyclotomic, _images
from .forms import (
    BinaryForm,
    DegreeMismatch,
    RationalMap,
    _coprime_images,
    _proportional,
    form_gcd,
    multiple_zero_locus,
    partial_derivatives,
)

_C0 = Cyclotomic.rational(0)


class NotAnEigenvector(ValueError):
    """The form is not an eigenvector of the diagonal torus action."""


class ForbiddenMultipleZero(ValueError):
    """0 or infinity occurs as a multiple zero where that is not allowed."""


class FormPair:
    """(H, J) with deg H = d-1 and deg J = d+1, not both zero."""

    __slots__ = ("d", "H", "J")

    def __init__(self, d: int, H: BinaryForm, J: BinaryForm):
        if H.degree != d - 1 or J.degree != d + 1:
            raise DegreeMismatch("component degrees must be d-1 and d+1")
        if H.is_zero() and J.is_zero():
            raise ValueError("the zero pair is excluded")
        self.d = d
        self.H = H
        self.J = J

    def __eq__(self, other):
        return (
            isinstance(other, FormPair)
            and self.d == other.d
            and self.H == other.H
            and self.J == other.J
        )

    def proportional_to(self, other: FormPair) -> bool:
        v, w = self.H.coeffs + self.J.coeffs, other.H.coeffs + other.J.coeffs
        return self.d == other.d and _proportional(v, w)

    def to_json(self) -> dict:
        return {"d": self.d, "H": self.H.to_json(), "J": self.J.to_json()}

    @classmethod
    def from_json(cls, obj) -> FormPair:
        return cls(int(obj["d"]), BinaryForm.from_json(obj["H"]), BinaryForm.from_json(obj["J"]))

    def __repr__(self):
        return f"FormPair(d={self.d}, H={self.H!r}, J={self.J!r})"


def decompose(f1: BinaryForm, f2: BinaryForm) -> FormPair:
    """(divergence, fixed-point form) of a degree-d pair; the pair must be
    a map's (equal degrees >= 1, not both zero)."""
    j = RationalMap(f1, f2).fixed_point_form()
    f1x, _ = partial_derivatives(f1)
    _, f2y = partial_derivatives(f2)
    return FormPair(f1.degree, f1x + f2y, j)


def decompose_map(phi: RationalMap) -> FormPair:
    return decompose(phi.F, phi.G)


def recompose(pair: FormPair) -> tuple[BinaryForm, BinaryForm]:
    """Inverse of decompose: (X H + dJ/dY, Y H - dJ/dX) / (d+1), exactly."""
    d = pair.d
    h, j = pair.H, pair.J
    xh = BinaryForm(d, list(h.coeffs) + [_C0])
    yh = BinaryForm(d, [_C0] + list(h.coeffs))
    jx, jy = partial_derivatives(j)
    scale = Cyclotomic.rational(Fraction(1, d + 1))
    return (xh + jy) * scale, (yh - jx) * scale


def recompose_map(pair: FormPair) -> RationalMap:
    f, g = recompose(pair)
    return RationalMap(f, g)


def gm_action(t: Cyclotomic, pair: FormPair) -> FormPair:
    """t . (H, J) = (t H, J / t)."""
    t = t if isinstance(t, Cyclotomic) else Cyclotomic.rational(t)
    if not t:
        raise ValueError("the torus parameter must be nonzero")
    return FormPair(pair.d, pair.H * t, pair.J * t.inverse())


def meets_ratd(pair: FormPair) -> bool:
    """Does the torus orbit of [(H, J)] contain the image of a genuine degree-d map?  Exactly: no
    multiple zero of J may be a zero of H, that is J != 0 and J_X, J_Y and a nonzero H share no root,
    proved mod p (``_meets_ratd_image``) or else decided by one exact gcd, of H and the multiple-zero
    locus of J (the zero form for J = 0, so the gcd is H).  No command calls it: a platonic member is
    proved on the quotient P^1/G (``platonic._member_meets``), on lists about |G| times shorter."""
    h, j = pair.H, pair.J
    image = _images([h.coeffs, j.coeffs])
    if image and _meets_ratd_image(image[0], *image[1]):
        return True
    return form_gcd(multiple_zero_locus(j), h).degree == 0


def _meets_ratd_image(p: int, h: list[int], j: list[int]) -> bool:
    """True proves ``meets_ratd`` for H and J with these images mod p: J's
    is nonzero, and those of J_X, J_Y and H, zero ones dropped, share no root
    over the closure of F_p.  A common root of the exact forms reduces, at a
    prime above p, to one of each image; dropping a form only adds roots."""
    n = len(j) - 1
    jx = [(n - i) * c % p for i, c in enumerate(j[:-1])]
    jy = [(i + 1) * c % p for i, c in enumerate(j[1:])]
    return any(j) and _coprime_images([f for f in (jx, jy, h) if any(f)], p)


class EigenformReport(namedtuple("EigenformReport", "k m divisibility eigenvalue")):
    """Outcome of classifying a torus eigenform with simple 0/infinity zeros;
    divisibility is one of "m|k", "m|k-1", "m|k-2"."""

    __slots__ = ()


def diagonal_eigenvalue(f: BinaryForm, eta: Cyclotomic) -> Cyclotomic:
    """Eigenvalue of F under X -> eta X, Y -> Y/eta; raises if F is not an
    eigenvector."""
    if f.is_zero():
        raise NotAnEigenvector("the zero form is not an eigenform here")
    k = f.degree
    lam = None
    eta_inv = eta.inverse()
    for i, c in enumerate(f.coeffs):
        if not c:
            continue
        val = eta ** (k - i) * eta_inv**i
        if lam is None:
            lam = val
        elif lam != val:
            raise NotAnEigenvector("coefficients force two different eigenvalues")
    return lam


def eigenform_classify(f: BinaryForm, m: int, eta: Cyclotomic) -> EigenformReport:
    """Classify an eigenform of the diagonal action by its values at 0 and
    infinity; eta must be a primitive 2m-th root of unity.

    With z0 = [F(0) = 0], zinf = [F(inf) = 0] and s = z0 + zinf, the four
    support cells are one rule: m | k-s and lambda = (-1)^((k-s)/m) eta^(z0-zinf).
    """
    if eta.ru_order() != 2 * m:
        raise ValueError("eta must be a primitive 2m-th root of unity")
    lam = diagonal_eigenvalue(f, eta)
    k = f.degree
    c = f.coeffs
    z0, zinf = not c[k], not c[0]  # F(0,1) and F(1,0) vanish
    if z0 and k >= 2 and not c[k - 1]:
        raise ForbiddenMultipleZero("0 is a multiple zero")
    if zinf and k >= 2 and not c[1]:
        raise ForbiddenMultipleZero("infinity is a multiple zero")
    s = z0 + zinf
    div = f"m|k-{s}" if s else "m|k"
    if (k - s) % m:
        raise NotAnEigenvector(f"support contradicts the divisibility {div}")
    if lam != Cyclotomic.rational(-1) ** ((k - s) // m) * eta ** (z0 - zinf):
        raise AssertionError("computed eigenvalue disagrees with the classification")
    return EigenformReport(k=k, m=m, divisibility=div, eigenvalue=lam)
