"""Size guards for operations that enumerate exponentially many objects
or run vertex/facet conversion, both of which blow up without warning.

Every guarded operation takes the bound as a keyword argument so callers
(including the command line driver) can raise it deliberately, except
for the fixed ceilings, which nothing overrides.  parse_json is the
guard on reading JSON; exact_number, text_int and the json_* readers
below hold the rules for exact input.  check_count is the one rule for
a part count or a dimension, from below and from above: every entry
point that takes one applies it first, directly or through
check_bruteforce, and every size guard refuses through it, in the one
line "<function>: <name> must be at most <most>, got <x>".  Imports no
package module.
"""

import json
import sys
from fractions import Fraction

DEFAULT_BRUTEFORCE_BOUND = 20
DEFAULT_HULL_MAX_DIM = 15
DEFAULT_HULL_MAX_POINTS = 64

# a fixed ceiling on the parts of a graph, and on the variables of a 2CNF,
# one per part: solving allocates per part, so without it a 34-byte graph
# JSON file can ask for any amount of memory (n = 400000 took 146 MB)
GRAPH_MAX_PARTS = 10000


class ScaleGuardError(ValueError):
    """An operation was asked to run past its configured size guard.

    guard names which limit tripped: "bruteforce", "hull-dim",
    "hull-points", "census" (n = 5 without allow_large), "census-max"
    (n > 5) or "graph-parts" (a graph, built or read from JSON, or a
    2CNF given to solve_2sat, past GRAPH_MAX_PARTS parts or variables);
    nothing overrides the last two.  limit is the bound and requested
    the refused value.  Raised by check_count alone, so the message is
    always its one line.  The command line uses guard to point at the
    override flag where there is one.
    """

    def __init__(self, guard: str, limit: int, requested: int, message: str):
        super().__init__(message)
        self.guard = guard
        self.limit = limit
        self.requested = requested


def check_count(x, what: str, least: int, name: str = "n",
                most: int | None = None, guard: str | None = None) -> None:
    """The count rule: refuse an x that is not an int (a bool, a float, a
    str, None), is below least or is past most, naming the function what
    and the argument name.  Past most it raises ScaleGuardError when
    guard names the bound, and ValueError otherwise."""
    if not is_int(x):
        raise ValueError("%s: %s must be an integer, got %s"
                         % (what, name, _shown(x, repr)))
    if x < least:
        raise ValueError("%s: %s must be at least %d, got %s"
                         % (what, name, least, _shown(x)))
    if most is not None and x > most:
        message = "%s: %s must be at most %s, got %s" % (
            what, name, _shown(most), _shown(x))
        if guard is None:
            raise ValueError(message)
        raise ScaleGuardError(guard, most, x, message)


def check_bruteforce(n: int, bound: int, what: str, least: int = 1) -> None:
    """The count rule for a part count n whose 2**n enumeration is behind
    bound: an n or a bound that is not an int is refused, then an n below
    least or past bound (check_count, guard "bruteforce")."""
    if not (is_int(n) and is_int(bound)):
        raise ValueError("%s: n and bound must be integers, got %s and %s"
                         % (what, _shown(n, repr), _shown(bound, repr)))
    check_count(n, what, least, most=bound, guard="bruteforce")


class _RepeatedKey(ValueError):
    """A JSON object that gives one key twice."""


def _unique_keys(pairs: list) -> dict:
    """The dict of a JSON object's (key, value) pairs, refusing a key given
    twice, which a plain dict would settle by keeping the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey("JSON object gives the key %s twice"
                                   % (_shown(key),))
            seen.add(key)
    return obj


# one decoder for the process: json.loads with a hook builds a new one on
# every call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_json(text: str):
    """The JSON value of text, with a key given twice in one object,
    nesting too deep for the parser and an int past Python's digit limit
    each refused in a one-line ValueError of its own."""
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None
    except (json.JSONDecodeError, _RepeatedKey):
        raise
    except ValueError:
        raise ValueError("JSON holds an integer of over %d digits"
                         % (sys.get_int_max_str_digits(),)) from None


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_SHOWN_MAX = 40


def _shown(x, quote=json.dumps) -> str:
    """x in an error message, the one rule for echoing bad input: a list or
    an object by its type, an int too long for str by its size, any other
    value as quote(x), past _SHOWN_MAX characters cut short with its length."""
    try:
        text = {list: "a list", dict: "an object"}.get(type(x)) or quote(x)
    except ValueError:  # an int past Python's digit limit for str
        return "an integer of over %d digits" % sys.get_int_max_str_digits()
    if len(text) > _SHOWN_MAX:
        text = "%s... (%d characters)" % (text[:_SHOWN_MAX], len(text))
    return text


def exact_number(text: str) -> Fraction:
    """Fraction(text) for a sign, digits and an optional /digits.  A decimal
    point or an exponent is refused: Fraction builds 10**k for exponent k.
    A zero denominator raises ZeroDivisionError; any other bad text raises
    ValueError with the text shown by _shown."""
    if not ("." in text or "e" in text or "E" in text):
        try:
            return Fraction(text)
        except ValueError:
            pass
    raise ValueError("invalid literal for an exact number: %s"
                     % (_shown(text, repr),))


def text_int(tok: str) -> int:
    """int(tok), with bad text refused in a ValueError that shows it by
    _shown: the one reader of integers from text."""
    try:
        return int(tok)
    except ValueError:
        raise ValueError("invalid literal for an integer: %s"
                         % (_shown(tok, repr),)) from None


def json_fields(obj, *keys):
    """The values of keys in a JSON object; ValueError names a missing one."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError('JSON input lacks "%s"' % (key,))
    return [obj[key] for key in keys]


def json_int(x, what: str) -> int:
    """An int from JSON; floats and bools are refused, not truncated."""
    if is_int(x):
        return x
    raise ValueError("%s holds %s, not an integer" % (what, _shown(x)))


def json_number(x, what: str) -> Fraction:
    """An exact number from JSON: an int or a fraction string like "-3/4".
    Floats and bools are refused, since neither is exact input here."""
    if is_int(x) or isinstance(x, str):
        try:
            return exact_number(x) if isinstance(x, str) else Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("%s holds %s, not an int or a fraction string"
                     % (what, _shown(x)))


def json_list(x, what: str, read=None, length: int | None = None):
    """A JSON list, or the tuple of its entries read by read (json_int or
    json_number); with length, of exactly that many entries."""
    if not isinstance(x, list) or length not in (None, len(x)):
        of = "" if read is None and length is None else " of %s%s" % (
            "" if length is None else "%d " % length,
            {None: "entries", json_int: "integers"}.get(read, "numbers"))
        raise ValueError("%s must be a list%s" % (what, of))
    return x if read is None else tuple(read(v, what) for v in x)
