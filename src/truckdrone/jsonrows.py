"""Integer rows in the CLI's JSON layout, written by one %-format."""


def _int_rows(value, inner: str) -> str:
    """A list of ints, or of equal rows of ints, as JSON items by one %-format;
    "" for anything else.  Each item sits on its own line after inner."""
    if set(map(type, value)) == {int}:
        return ",\n".join([inner + "%d"] * len(value)) % tuple(value)
    if not set(map(type, value)) <= {list, tuple} or len(set(map(len, value))) != 1:
        return ""
    flat = [e for row in value for e in row]
    if set(map(type, flat)) != {int}:
        return ""
    row = "[\n" + ",\n".join([inner + "  %d"] * len(value[0])) + f"\n{inner}]"
    return ",\n".join([inner + row] * len(value)) % tuple(flat)
