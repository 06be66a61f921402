"""One comparison for large texts that fails fast: a mismatch names its first differing line."""


def assert_same_text(got: str, expected: str) -> None:
    """Assert got == expected. On a mismatch, report the first line that differs, not
    pytest's diff of the two texts, which for a CSV of megabytes runs for minutes."""
    __tracebackhide__ = True
    if got != expected:
        a, b = got.split("\n"), expected.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        got_line, expected_line = (repr(lines[i]) if i < len(lines) else "no line" for lines in (a, b))
        raise AssertionError(f"texts differ first at line {i + 1}: got {got_line}, expected {expected_line} "
                             f"({len(a)} and {len(b)} lines)")
