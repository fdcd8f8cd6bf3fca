"""Problem-file grammar, validation, and round-tripping."""

import pytest

from charclass import DomainError, ParseError, parse_problem, parse_expression
from charclass.poly import FieldSpec, Ring

from helpers import PRIME

TWISTED = "vars x,y,z,w;\ngens: x*z-y^2, y*w-z^2, x*w-y*z;\n"


class TestGrammar:
    def test_twisted_cubic(self):
        pf = parse_problem(TWISTED)
        assert pf.variables == ("x", "y", "z", "w")
        assert len(pf.generators) == 3
        I = pf.ideal(PRIME)
        assert I.ring.nvars == 4

    def test_minimal_file(self):
        pf = parse_problem("vars x; gens: x;")
        assert pf.variables == ("x",)
        assert str(pf.generators[0]) == "x"

    def test_missing_vars_is_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_problem("gens: x;")
        assert err.value.line == 1

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_problem("vars x; gens: y;")

    def test_inhomogeneous_rejected_outside_affine(self):
        with pytest.raises(ParseError, match="not homogeneous"):
            parse_problem("vars x,y; gens: x*y - 1;")

    def test_affine_mode_allows_inhomogeneous(self):
        pf = parse_problem("vars x,y; affine; gens: x*y - 1;")
        assert pf.affine

    def test_homvar(self):
        pf = parse_problem("vars h,x,y; homvar h; gens: x*y - h^2;")
        assert pf.homvar == "h"

    def test_homvar_must_be_declared(self):
        with pytest.raises(ParseError, match="homvar"):
            parse_problem("vars x,y; homvar z; gens: x;")

    def test_comments_and_unicode_minus(self):
        pf = parse_problem("vars x,y;  # projective line\ngens: x*y − y^2;\n")
        x, y = pf.generators[0].ring.gens()
        assert pf.generators[0] == x * y - y * y

    def test_parentheses_and_unary_minus(self):
        pf = parse_problem("vars x,y; gens: -(x + y)^2 + x*(x - 2*y);")
        x, y = pf.generators[0].ring.gens()
        assert pf.generators[0] == -4 * x * y - y * y

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_problem("vars x,y;\ngens: x + $;")
        assert err.value.line == 2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_problem("vars x; gens: x; vars y;")

    def test_keyword_as_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("vars gens; gens: gens;")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_problem("vars x,x; gens: x;")

    @pytest.mark.parametrize("gens", ["x^32768", "x^20000*x^20000", "(x^200)^200"])
    def test_degree_above_the_key_slots_rejected(self, gens):
        # a 16-bit exponent slot would wrap: x^32768 used to parse as y
        with pytest.raises(ParseError, match="degree"):
            parse_problem(f"vars x,y,z; gens: {gens};")

    def test_top_supported_degree(self):
        g = parse_problem("vars x,y,z; gens: x^32767;").generators[0]
        assert g == g.ring.var(0) ** 32767 and g.total_degree() == 32767


class TestFieldChange:
    """A coefficient the prime kills is an error, not a silently lost term."""

    def test_coefficient_divisible_by_characteristic(self):
        pf = parse_problem(f"vars x,y,z; gens: {PRIME}*x^2 + y^2 + z^2;")
        with pytest.raises(DomainError, match=str(PRIME)):
            pf.ideal(PRIME)
        assert len(pf.ideal(0).gens[0]) == 3

    def test_generator_vanishing_entirely(self):
        pf = parse_problem(f"vars x,y,z; gens: x*y, {2 * PRIME}*z^2;")
        with pytest.raises(DomainError):
            pf.ideal(PRIME)

    def test_affine_generators(self):
        pf = parse_problem(f"vars x,y; affine; gens: x*y - {PRIME};")
        with pytest.raises(DomainError):
            pf.affine_generators(PRIME)
        gens, ring = pf.affine_generators(1000000007)
        assert len(gens[0]) == 2 and ring.field.p == 1000000007


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        pf = parse_problem(TWISTED)
        again = parse_problem(pf.serialize())
        assert again.variables == pf.variables
        assert again.generators == pf.generators
        assert again.serialize() == pf.serialize()

    def test_affine_flags_round_trip(self):
        pf = parse_problem("vars h,x; affine; homvar h; gens: x - h;")
        again = parse_problem(pf.serialize())
        assert again.affine and again.homvar == "h"

    def test_digest_is_stable(self):
        a = parse_problem(TWISTED)
        b = parse_problem(TWISTED.replace("\n", " "))
        assert a.digest() == b.digest()


def test_parse_expression_in_ring():
    ring = Ring(("x", "y"), FieldSpec(PRIME))
    f = parse_expression("(x + y)^2 - x^2", ring)
    x, y = ring.gens()
    assert f == 2 * x * y + y * y


def test_parse_expression_rejects_unknown_variable():
    ring = Ring(("x",), FieldSpec(PRIME))
    with pytest.raises(ParseError):
        parse_expression("x + q", ring)
