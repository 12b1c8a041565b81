"""The token-index polynomial parser, kept as the oracle for the cursor
parser in ``soclekit.apolarity``.

This is ``parse_form`` as it stood before the rewrite around an end
sentinel and one cursor helper, unchanged but for its imports.  Every
input must give the same ``(coeffs, max_index)`` from both, or the same
exception type with the same message, line and column.  It is not part
of the package.
"""

from __future__ import annotations

from fractions import Fraction

from soclekit.apolarity import _TOKEN, MAX_VARIABLE_INDEX, Form
from soclekit.errors import EnvelopeError, ParseError


def parse_form(text: str, var: str = "y") -> tuple[Form, int]:
    """Parse the polynomial grammar; returns (coefficients, max index).

    Raises ParseError with 1-based line and column information, and
    EnvelopeError for a variable index above MAX_VARIABLE_INDEX.
    """

    def err(msg: str, pos: int) -> ParseError:
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        return ParseError(msg, line, col)

    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise err(f"unexpected character {text[bad]!r}", bad)
            break
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("var"):
            if m.group("var") != var:
                raise err(f"unknown variable {m.group('var')!r}", m.start("var"))
            tokens.append(("var", m.group("idx"), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()

    coeffs: dict[tuple, Fraction] = {}
    max_index = 0
    i = 0
    if not tokens:
        raise err("empty polynomial", 0)

    def number(k: int) -> int:
        _, digits, at = tokens[k]
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's int_max_str_digits
            raise err(f"integer literal of {len(digits)} digits is too long", at) from None

    def peek(kind: str, value: str | None = None) -> bool:
        if i >= len(tokens):
            return False
        k, v, _ = tokens[i]
        return k == kind and (value is None or v == value)

    term_index = 0
    while i < len(tokens):
        sign = 1
        saw_sign = False
        while peek("op", "+") or peek("op", "-"):
            saw_sign = True
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise err("dangling sign", tokens[-1][2])
        if tokens[i][0] == "op":
            raise err(f"unexpected {tokens[i][1]!r}", tokens[i][2])
        if term_index > 0 and not saw_sign:
            raise err("expected '+' or '-' between terms", tokens[i][2])
        coeff = Fraction(1)
        exponents: dict[int, int] = {}
        expect_factor = True
        while expect_factor:
            if peek("num"):
                value = number(i)
                i += 1
                if peek("op", "/"):
                    i += 1
                    if not peek("num"):
                        raise err("expected denominator", tokens[i - 1][2])
                    den = number(i)
                    if den == 0:
                        raise err("zero denominator", tokens[i][2])
                    i += 1
                    coeff *= Fraction(value, den)
                else:
                    coeff *= value
            elif peek("var"):
                idx = number(i)
                if idx > MAX_VARIABLE_INDEX:
                    raise EnvelopeError(
                        f"variable index {idx} is above the maximum {MAX_VARIABLE_INDEX}"
                    )
                i += 1
                power = 1
                if peek("op", "^"):
                    i += 1
                    if not peek("num"):
                        raise err("expected exponent", tokens[i - 1][2])
                    power = number(i)
                    i += 1
                exponents[idx] = exponents.get(idx, 0) + power
                max_index = max(max_index, idx)
            else:  # an operator, or the end of the text after a '*'
                at = tokens[min(i, len(tokens) - 1)][2]
                raise err("expected a coefficient or variable", at)
            if peek("op", "*"):
                i += 1
                expect_factor = True
            else:
                expect_factor = False
        packed = tuple(sorted(exponents.items()))
        coeffs.setdefault(packed, Fraction(0))
        coeffs[packed] += coeff * sign
        term_index += 1

    width = max_index + 1
    out: Form = {}
    for packed, c in coeffs.items():
        mono = [0] * width
        for idx, e in packed:
            mono[idx] = e
        if c:
            out[tuple(mono)] = c
    return out, max_index
