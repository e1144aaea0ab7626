import math

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from helpers import (
    alexander_from_conway,
    conway_by_zsq_powers,
    display_form,
    is_monic,
    pack_by_loop,
    parse_poly,
    unpack_by_loop,
)
from symunion import poly
from symunion.poly import (
    ConwayPoly,
    LaurentPoly,
    NotNormalizable,
    NotSymmetric,
    PolyError,
    ZeroPolynomial,
    addmul,
    conway_from_alexander,
    normalize_alexander,
    pack,
    unpack,
    width,
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
    assert L("2*t^-1 + 3").evaluate(2) == 4
    with pytest.raises(ValueError):
        L("t^-2").evaluate(2)
    with pytest.raises(ZeroDivisionError):
        L("t^-1").evaluate(0)
    with pytest.raises(TypeError):
        p.evaluate(Fraction(1, 2))


@given(laurents(), st.sampled_from([1, -1, 2, -3]))
def test_evaluate_matches_fraction_arithmetic(p, x):
    want = sum((Fraction(v) * Fraction(x) ** e for e, v in p.items()), Fraction(0))
    if want.denominator == 1:
        got = p.evaluate(x)
        assert type(got) is int and got == want
    else:
        with pytest.raises(ValueError):
            p.evaluate(x)


def test_int_scalar_mul():
    assert 3 * L("t") == L("3*t")
    assert L("t") * -1 == L("- t") == -L("t")


# -- the coefficient kernel ---------------------------------------------------

coeff_maps = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4).filter(bool), max_size=6)


def naive_addmul(acc, f, a):
    """acc + f * a, term by term, with its zero coefficients dropped."""
    want = dict(acc)
    for e1, v1 in f.items():
        for e2, v2 in a.items():
            want[e1 + e2] = want.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in want.items() if v}


def assert_addmul(acc, f, a):
    got = dict(acc)
    addmul(got, f, a)
    assert got == naive_addmul(acc, f, a)
    assert all(got.values())


@given(coeff_maps, coeff_maps, coeff_maps)
def test_addmul_matches_the_naive_product(acc, f, a):
    assert_addmul(acc, f, a)


@st.composite
def long_addmul_operands(draw):
    """(acc, f, a) with up to 64 terms in f and in a, so that len(f) * len(a)
    falls on both sides of addmul's packed switch, poly._PACK_PAIRS;
    negative exponents and coefficients up to 2^40. acc overlaps f * a,
    with coefficients up to 2^90, or is minus all of it or minus part of
    it, so that coefficients cancel to zero. Sometimes a's exponents are
    spread so far apart that the sum spans more exponents than there are
    term pairs."""
    coeff = st.integers(-(2**40), 2**40).filter(bool)

    def terms(n):
        return draw(st.dictionaries(st.integers(-80, 40), coeff, min_size=n, max_size=n))

    f = terms(draw(st.integers(0, 64)))
    a = terms(draw(st.integers(0, 64)))
    if draw(st.booleans()) and draw(st.booleans()):
        a = {1000 * e: v for e, v in a.items()}
    product = naive_addmul({}, f, a)
    shape = draw(st.sampled_from(["overlap", "minus all", "minus part"]))
    if shape == "overlap":
        acc = draw(st.dictionaries(st.integers(-120, 80), st.integers(-(2**90), 2**90), max_size=80))
        acc = {e: v for e, v in acc.items() if v}
    else:
        step = draw(st.integers(1, 3)) if shape == "minus part" else 1
        acc = {e: -v for i, (e, v) in enumerate(sorted(product.items())) if i % step == 0}
    return acc, f, a


@given(long_addmul_operands())
@settings(max_examples=150, deadline=None)
def test_addmul_matches_the_naive_product_on_long_maps(operands):
    assert_addmul(*operands)


@pytest.mark.parametrize("side", [0, 1])
def test_addmul_on_both_sides_of_the_packed_switch(side):
    # n^2 < _PACK_PAIRS <= (n + 1)^2 term pairs; one acc the sum cancels
    n = math.isqrt(poly._PACK_PAIRS - 1) + side
    f = {e - 20: (-1) ** e * (2**40 - e) for e in range(n)}
    a = {e - 5: 3 * e + 1 for e in range(n)}
    assert_addmul({}, f, a)
    assert_addmul({e: -v for e, v in naive_addmul({}, f, a).items()}, f, a)
    assert_addmul({e: 7 for e in range(-40, 60, 3)}, f, a)
    assert_addmul({e: -(2**100) for e in range(-40, 60, 3)}, f, a)


@st.composite
def bounded_coefficients(draw):
    """(b, cs): a bound b = 2^k - 1 or 2^k and coefficients of size at most
    b, with b and -b themselves likely, zeros in the middle, and sometimes
    zeros on top."""
    k = draw(st.integers(1, 80))
    b = draw(st.sampled_from((2**k - 1, 2**k)))
    c = st.one_of(st.sampled_from((b, -b, 0)), st.integers(-b, b))
    cs = draw(st.lists(c, max_size=12)) + [0] * draw(st.integers(0, 3))
    return b, cs


@given(bounded_coefficients())
@example((1, [1, 0, -1, 0]))
@example((2**64 - 1, [-(2**64 - 1), 0, 2**64 - 1]))
@example((2**64, [2**64, 0, 0, -(2**64), 0]))
def test_unpack_inverts_pack_at_the_width_of_a_bound(case):
    b, cs = case
    bits = width(b)
    want = list(cs)
    while want and not want[-1]:
        want.pop()
    assert unpack(pack(enumerate(cs), bits), bits) == tuple(want)


@st.composite
def long_packed(draw):
    """(bits, pairs, lo): up to three times poly._SPLIT_SLOTS coefficients
    at a width of 2 to 70 bits, the extreme digits -2^(bits-1) and
    2^(bits-1) - 1 likely (a top digit of -2^(bits-1) in the low half is
    where the split's low part leaves the balanced residue), zeros on top
    and sometimes at the bottom, exponents from lo on, shuffled."""
    bits = draw(st.integers(2, 70))
    top = 1 << bits - 1
    digit = st.one_of(st.sampled_from((-top, top - 1, -1, 0, 1)), st.integers(-top, top - 1))
    n = draw(st.integers(0, 3 * poly._SPLIT_SLOTS))
    cs = [0] * draw(st.integers(0, 5)) + draw(st.lists(digit, min_size=n, max_size=n))
    cs += [0] * draw(st.integers(0, 5))
    lo = draw(st.integers(-50, 50))
    pairs = [(lo + j, c) for j, c in enumerate(cs)]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    return bits, pairs, lo


@given(long_packed(), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
@example((2, [(j, -2) for j in range(300)], 0), 0)
@example((3, [(j, 3 if j % 2 else -4) for j in range(400)], -7), 1)
def test_pack_and_unpack_match_their_loops(case, nudge):
    """On both sides of the split, for negative and long inputs with
    trailing zeros; nudge moves the packed value off a digit boundary."""
    bits, pairs, lo = case
    p = pack(pairs, bits, lo)
    assert p == pack_by_loop(pairs, bits, lo)
    for q in (p, -p, p + nudge, -p + nudge):
        assert unpack(q, bits) == unpack_by_loop(q, bits)


def test_width_leaves_a_sign_bit():
    assert [width(b) for b in (0, 1, 2, 3, 4, 2**64 - 1, 2**64)] == [1, 2, 3, 3, 4, 65, 66]


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


def test_conway_rejects_zero():
    with pytest.raises(NotSymmetric):
        conway_from_alexander(LaurentPoly.zero())


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


@st.composite
def near_palindromes(draw):
    """Laurent polynomials of span up to 30 built around a palindrome
    c_0 + sum c_k (t^k + t^-k): value +-1 at t = 1 (a knot's), any other
    value, or a palindrome with one coefficient changed; each times a
    unit +-t^s. Zero comes up too."""
    half = draw(st.integers(0, 15))
    c = draw(st.lists(st.integers(-(10**6), 10**6), min_size=half, max_size=half))
    kind = draw(st.sampled_from(["knot", "knot", "value", "asymmetric", "zero"]))
    if kind == "zero":
        return LaurentPoly.zero()
    value = draw(st.sampled_from([1, -1])) if kind == "knot" else draw(st.integers(-5, 5))
    coeffs = {0: value - 2 * sum(c)}
    for k, v in enumerate(c, start=1):
        coeffs[k] = coeffs[-k] = v
    if kind == "asymmetric":
        e = draw(st.integers(-half, half))
        coeffs[e] += draw(st.integers(-3, 3).filter(bool))
    unit = LaurentPoly.term(draw(st.sampled_from([1, -1])), draw(st.integers(-20, 20)))
    return LaurentPoly(coeffs) * unit


def conway_outcome(convert, p):
    try:
        return convert(p)
    except PolyError as exc:
        return type(exc)


@given(near_palindromes())
@settings(max_examples=300)
def test_binomial_peel_matches_the_peel_by_powers(p):
    assert conway_outcome(conway_from_alexander, p) == conway_outcome(conway_by_zsq_powers, p)


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



class _Int(int):
    pass


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "1"])
def test_laurent_rejects_non_int_exponent_or_coefficient(bad):
    with pytest.raises(TypeError):
        LaurentPoly({bad: 1})
    with pytest.raises(TypeError):
        LaurentPoly({1: bad})
    with pytest.raises(TypeError):
        ConwayPoly({2: bad})


def test_laurent_accepts_int_subclasses():
    p = LaurentPoly({_Int(2): _Int(3), -1: _Int(0)})
    assert p == LaurentPoly({2: 3})
    assert p.text() == "3*t^2"
