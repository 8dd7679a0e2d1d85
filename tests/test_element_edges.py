"""The edges of the element API, pinned as a table.

Over F_9, with a = 2g + 1 and b = 2 in F_3, and over the lift rings
W_1(F_9) and W_4(F_9), with u = g + 2: each expression gives either a
value (compared by repr) or an exception of a given type and message.
Mixed field/ring arithmetic is refused, a field element takes negative
powers while a ring element does not, and `1 - a` is a TypeError while
`1 - u` is ring subtraction."""

import pytest

from isolab.errors import InputError
from isolab.unramified import finite_field, unramified_ring

# expression -> ("value", repr) or (exception type, message); "{U}" stands
# for repr(u) and "{N}" for the ring's precision
TABLE = {
    "1 - a": (TypeError, "unsupported operand type(s) for -: 'int' and 'FFElement'"),
    "1 - u": ("value", "U([{neg1}, {neg1}]; p=3,m=2,N={N})"),
    "a ** -1": ("value", "FF(2*g+2)"),
    "a ** -1 * a": ("value", "FF(1)"),
    "u ** -1": (InputError, "exponent must be >= 0, got -1"),
    "a == u": ("value", "False"),
    "u == a": ("value", "False"),
    "hash(a) == hash(u)": ("value", "False"),
    "a * u": (InputError, "cannot coerce {U}"),
    "u * a": (InputError, "context mismatch"),
    "a + u": (InputError, "cannot coerce {U}"),
    "u - a": (InputError, "context mismatch"),
    "a * 'x'": (InputError, "cannot coerce 'x'"),
    "u * 'x'": (InputError, "context mismatch"),
    "a + 1.5": (InputError, "cannot coerce 1.5"),
    "u + 1.5": (InputError, "context mismatch"),
    "a * b": (InputError, "element from a different field"),
    "b * a": (InputError, "element from a different field"),
    "u * b": (InputError, "context mismatch"),
    "F.coerce(u)": (InputError, "cannot coerce {U}"),
    "F.coerce(b)": (InputError, "element from a different field"),
    "repr(a)": ("value", "'FF(2*g+1)'"),
    "repr(u)": ("value", "'{U}'"),
    "F.zero().inverse()": (InputError, "inverse of zero"),
    "R.zero().inverse()": (InputError, "not a unit"),
    "F.zero() ** -1": (InputError, "inverse of zero"),
    "a == 1 + 2 * F.generator()": ("value", "True"),
    "u == 2 + R.from_coeffs([0, 1])": ("value", "True"),
    "a * 2 == 2 * a == a + a": ("value", "True"),
    "u * 3 == 3 * u == u + u + u": ("value", "True"),
}


@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("expr", sorted(TABLE))
def test_element_edge(N, expr):
    F, R = finite_field(3, 2), unramified_ring(3, 2, N)
    names = {"F": F, "R": R, "a": F([1, 2]), "b": finite_field(3, 1)(2), "u": R.from_coeffs([2, 1])}
    kind, text = TABLE[expr]
    text = text.format(U="U([2, 1]; p=3,m=2,N=%d)" % N, N=N, neg1=3**N - 1)
    if kind == "value":
        assert repr(eval(expr, names)) == text
    else:
        with pytest.raises(kind) as info:
            eval(expr, names)
        assert type(info.value) is kind and str(info.value) == text
