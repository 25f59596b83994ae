"""Size guards for operations that enumerate exponentially many objects
or run vertex/facet conversion, both of which blow up without warning.

Every guarded operation takes the bound as a keyword argument so callers
(including the command line driver) can raise it deliberately, except
for the fixed ceilings, which nothing overrides.  parse_json is the
guard on reading JSON; exact_number, text_int and the json_* readers
below hold the rules for exact input.  Imports no package module.
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
    nothing overrides the last two.
    The command line uses it to point at the override flag where there is
    one.
    """

    def __init__(self, guard: str, limit: int, requested: int, message: str):
        super().__init__(message)
        self.guard = guard
        self.limit = limit
        self.requested = requested


def check_ints(n, bound, what: str) -> None:
    """The int rule for a part count and its brute-force bound: an n or a
    bound that is not an int (a bool, a float, a str, None) is refused."""
    if not (is_int(n) and is_int(bound)):
        raise ValueError("%s: n and bound must be integers, got %s and %s"
                         % (what, _shown(n, repr), _shown(bound, repr)))


def check_bruteforce(n: int, bound: int, what: str) -> None:
    """Reject part counts whose 2**n enumeration would be hopeless, and by
    the int rule (check_ints) an n or a bound that is not an int."""
    check_ints(n, bound, what)
    if n > bound:
        raise ScaleGuardError(
            "bruteforce", bound, n,
            "%s: %s parts is too large for brute force (bound %d)"
            % (what, _shown(n), bound))


def parse_json(text: str):
    """json.loads, with nesting too deep for the parser and an int past
    Python's digit limit each refused in a one-line ValueError of its own."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None
    except json.JSONDecodeError:
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


def json_positive_int(obj, key: str) -> int:
    (x,) = json_fields(obj, key)
    if not is_int(x) or x < 1:
        raise ValueError('"%s" must be a positive integer' % (key,))
    return x


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
