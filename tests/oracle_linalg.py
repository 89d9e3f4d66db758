"""``linalg.frac`` as it was before it built its Fraction from the integer
parts of its own regex match: the string was checked by the regex, then parsed
a second time by ``Fraction(str)``.  Tests compare the library against it."""

import re
from fractions import Fraction

_FRAC_RE = re.compile(r"[+-]?\d+(/\d+)?")


def frac(x) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _FRAC_RE.fullmatch(x.strip()):
            raise ValueError(f"not a 'p' or 'p/q' rational string: {x!r}")
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")
