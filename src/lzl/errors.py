"""The two exceptions the command line turns into exit codes.

``UsageError`` is exit 2: a malformed value, spec, graph file or schedule,
or a strategy asked for outside its preconditions.  ``SizeCapError`` is
exit 3.  An engine fault (a policy over its budget, a sweep that fails
verification, inconsistent bounds) raises a plain ``AssertionError``,
which the command line does not catch, so it ends in a traceback.
"""


class UsageError(Exception):
    """A command-line value, input file or request the engines refuse."""


class SizeCapError(Exception):
    """Instance exceeds the size cap of the engine it was given to."""

    def __init__(self, what: str, size: int, limit: int):
        # str() refuses an int of more than 4300 digits, and a spec can ask for one
        shown = size if size.bit_length() <= 64 else f"at least 2^{size.bit_length() - 1}"
        super().__init__(f"{what}: size {shown} exceeds cap {limit}")
