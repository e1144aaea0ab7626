import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from helpers import display_form
from symunion.poly import (
    ConwayPoly,
    LaurentPoly,
    NonIntegralSolution,
    NotNormalizable,
    NotSymmetric,
    ZeroPolynomial,
    alexander_from_conway,
    conway_from_alexander,
    is_monic,
    normalize_alexander,
    parse_poly,
)


def L(text):
    return parse_poly(text)


@st.composite
def laurents(draw, max_terms=6):
    d = draw(
        st.dictionaries(
            st.integers(-6, 6), st.integers(-9, 9), max_size=max_terms
        )
    )
    return LaurentPoly({e: v for e, v in d.items() if v})


@st.composite
def nonzero_laurents(draw):
    p = draw(laurents())
    if p.is_zero():
        p = p + LaurentPoly.one()
    return p


# -- arithmetic ---------------------------------------------------------------


def test_mul_trefoil_square():
    p = L("1 - t + t^2")
    assert (p * p).text() == "1 - 2*t + 3*t^2 - 2*t^3 + t^4"


def test_mul_by_zero():
    p = L("1 - t + t^2")
    assert (p * LaurentPoly.zero()).is_zero()


def test_cube_of_fig8_factor():
    # (t^2 - 3t + 1)^3, expanded by hand and spot-checked at t=1 and t=2
    p = L("1 - 3*t + t^2")
    cube = p**3
    assert cube == L("1 - 9*t + 30*t^2 - 45*t^3 + 30*t^4 - 9*t^5 + t^6")
    assert cube.evaluate(1) == -1
    assert cube.evaluate(2) == -1


def test_pow_zero_and_one():
    p = L("2 - t")
    assert p**0 == LaurentPoly.one()
    assert p**1 == p


@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == LaurentPoly.zero()


def test_evaluate():
    p = L("1 - t + t^2")
    assert p.evaluate(2) == 3
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert L("t^-2").evaluate(2) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        L("t^-1").evaluate(0)


@given(laurents(), st.sampled_from([1, -1, 2, Fraction(1, 2)]))
def test_evaluate_matches_fraction_arithmetic(p, x):
    want = sum((Fraction(v) * Fraction(x) ** e for e, v in p.items()), Fraction(0))
    got = p.evaluate(x)
    assert got == want
    # an integral value comes back as an int, any other as a Fraction
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_int_scalar_mul():
    assert 3 * L("t") == L("3*t")
    assert L("t") * -1 == L("- t") == -L("t")


@given(nonzero_laurents(), laurents())
def test_divexact_roundtrip(b, a):
    assert (a * b).divexact(b) == a


def test_divexact_remainder_raises():
    with pytest.raises(NonIntegralSolution):
        L("1 + t").divexact(L("1 + t + t^2"))


def test_divexact_non_integral_quotient_raises():
    with pytest.raises(NonIntegralSolution):
        L("2 + 2*t").divexact(L("3 + 3*t"))


def test_shift_and_inverted():
    p = L("1 - t + t^2")
    assert p.shift(3) == L("t^3 - t^4 + t^5")
    assert p.inverted() == L("t^-2 - t^-1 + 1")
    assert p.inverted().inverted() == p


# -- normalization ------------------------------------------------------------


def test_normalize_strips_units():
    p = L("1 - t + t^2")
    for k in (-2, 0, 3):
        for s in (1, -1):
            q = normalize_alexander(s * p.shift(k))
            assert q == L("t^-1 - 1 + t") or q == L("- t^-1 + 1 - t")
            assert q.evaluate(1) == 1
    assert display_form(normalize_alexander(p.shift(3))) == p


def test_normalize_centers_even_span():
    q = normalize_alexander(L("1 - t + t^2"))
    assert q == L("t^-1 - 1 + t")
    assert q.inverted() == q


def test_normalize_sign_from_value_at_one():
    # -t*(t^2 - 3t + 1) evaluates to +1 at t=1, so no sign flip: the
    # canonical form is the centered -t^-1 + 3 - t.
    q = normalize_alexander(L("- t + 3*t^2 - t^3"))
    assert q == L("- t^-1 + 3 - t")
    assert q.evaluate(1) == 1


def test_normalize_odd_span_lowest_zero():
    assert normalize_alexander(L("t^3 + t^4")) == L("1 + t")
    assert normalize_alexander(L("- t^3 - t^4")) == L("1 + t")


def test_normalize_value_zero_tiebreak():
    q = normalize_alexander(L("1 - t"))
    assert q == L("- 1 + t")


def test_normalize_zero_passthrough():
    assert normalize_alexander(LaurentPoly.zero()).is_zero()


def test_normalize_knot_flag_rejects():
    with pytest.raises(NotNormalizable):
        normalize_alexander(L("1 + t + t^2"), knot=True)  # value 3 at t=1
    with pytest.raises(NotNormalizable):
        normalize_alexander(LaurentPoly.zero(), knot=True)


@given(nonzero_laurents())
def test_normalize_idempotent_and_unit_invariant(p):
    q = normalize_alexander(p)
    assert normalize_alexander(q) == q
    assert normalize_alexander(-p.shift(5)) == q


# -- Conway conversion --------------------------------------------------------


def test_conway_unknot():
    assert conway_from_alexander(LaurentPoly.one()) == ConwayPoly.one()


def test_conway_trefoil():
    assert conway_from_alexander(L("1 - t + t^2")) == ConwayPoly({0: 1, 2: 1})


def test_conway_fig8():
    assert conway_from_alexander(L("1 - 3*t + t^2")) == ConwayPoly({0: 1, 2: -1})


def test_alexander_from_conway():
    assert alexander_from_conway(ConwayPoly({0: 1, 2: 1})) == L("t^-1 - 1 + t")
    assert alexander_from_conway(ConwayPoly.one()) == LaurentPoly.one()
    assert alexander_from_conway(ConwayPoly({0: 1, 2: -1})) == L("- t^-1 + 3 - t")


def test_conway_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        conway_from_alexander(L("- 1 + t + t^2"))  # value 1 at t=1, not palindromic


def test_conway_rejects_non_knot_value():
    with pytest.raises(NotNormalizable):
        conway_from_alexander(L("1 + t"))  # value 2 at t=1


def test_conway_rejects_zero_and_link_flag():
    with pytest.raises(NotSymmetric):
        conway_from_alexander(LaurentPoly.zero())
    with pytest.raises(ValueError):
        conway_from_alexander(LaurentPoly.one(), knot=False)


@st.composite
def knot_conways(draw):
    d = draw(st.dictionaries(st.integers(1, 4), st.integers(-5, 5), max_size=4))
    return ConwayPoly({0: 1, **{2 * e: v for e, v in d.items() if v}})


@given(knot_conways())
def test_conversion_round_trip(n):
    assert conway_from_alexander(alexander_from_conway(n)) == n


@given(knot_conways(), knot_conways())
def test_conversion_is_multiplicative(a, b):
    assert alexander_from_conway(a * b) == alexander_from_conway(
        a
    ) * alexander_from_conway(b)


def test_alexander_from_conway_rejects_odd_powers():
    with pytest.raises(ValueError):
        alexander_from_conway(ConwayPoly({1: 1}))


# -- monicity -----------------------------------------------------------------


def test_is_monic():
    assert is_monic(L("1 - t + t^2"))
    assert not is_monic(L("2 - 3*t + 2*t^2"))
    assert is_monic(LaurentPoly.one())
    with pytest.raises(ZeroPolynomial):
        is_monic(LaurentPoly.zero())


# -- multiplicativity of the canonical form ------------------------------------


@given(nonzero_laurents(), nonzero_laurents())
def test_normalized_products(a, b):
    lhs = normalize_alexander(a * b)
    rhs = normalize_alexander(normalize_alexander(a) * normalize_alexander(b))
    assert lhs == rhs


# -- text form ----------------------------------------------------------------


def test_text_examples():
    assert LaurentPoly.zero().text() == "0"
    assert L("1 - t + t^2").text() == "1 - t + t^2"
    assert LaurentPoly({-5: 1, -4: -3}).text() == "t^-5 - 3*t^-4"
    assert LaurentPoly({0: 2, 1: -3, 2: 2}).text() == "2 - 3*t + 2*t^2"
    assert ConwayPoly({0: 1, 2: -1}).text() == "1 - z^2"


def test_parse_rejects_garbage():
    for bad in ("", "t +", "+ t", "t ^ 2", "q^2", "1 2"):
        with pytest.raises(ValueError):
            parse_poly(bad)


@given(laurents())
def test_text_round_trip(p):
    assert parse_poly(p.text()) == p

