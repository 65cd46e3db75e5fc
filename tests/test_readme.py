"""The README's list of refused requests states the limits the code enforces."""

import pathlib

import pytest

from hypermult import classifier, cli, forms, hesselink

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _too_large_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("Requests too large to answer")
    return text[start:text.index("\n\n", text.index("\n- ", start) + 1)]


def _power_of_two(n: int) -> str:
    assert n & (n - 1) == 0, f"{n} is not a power of two"
    return f"2^{n.bit_length() - 1}"


# each limit, as the README's list spells it
LIMITS = {
    "hesselink.MAX_FRAMES": lambda: f"a frame family above {hesselink.MAX_FRAMES:,}.",
    "hesselink.MAX_PAIRS": lambda: (
        f"more than {hesselink.MAX_PAIRS:,} ({_power_of_two(hesselink.MAX_PAIRS)}) of the"
    ),
    "classifier.MAX_CORPUS": lambda: f"a corpus above {_power_of_two(classifier.MAX_CORPUS)},",
    "cli.MAX_INPUT_CHARS": lambda: (
        f"`cli.MAX_INPUT_CHARS` = {cli.MAX_INPUT_CHARS:,} ({_power_of_two(cli.MAX_INPUT_CHARS)})"
    ),
    "forms.MAX_DEN_BITS": lambda: f"`forms.MAX_DEN_BITS` = {forms.MAX_DEN_BITS:,} bits",
    "forms.MAX_DIM": lambda: f"`forms.MAX_DIM` = {forms.MAX_DIM} variables",
    "forms.MAX_MOVED_TERMS": lambda: (
        f"`forms.MAX_MOVED_TERMS` = {forms.MAX_MOVED_TERMS:,}"
        f" ({_power_of_two(forms.MAX_MOVED_TERMS)})"
    ),
    "forms.MAX_SHIFT_WORK": lambda: (
        f"`forms.MAX_SHIFT_WORK` = {forms.MAX_SHIFT_WORK:,}"
        f" ({_power_of_two(forms.MAX_SHIFT_WORK)})"
    ),
}


@pytest.mark.parametrize("name", LIMITS)
def test_readme_states_each_limit(name):
    assert LIMITS[name]() in " ".join(_too_large_section().split())


def test_readme_states_the_largest_degree_threshold_lists():
    d = max(d for d in range(1, 2**16) if d * (d + 1) // 2 <= hesselink.MAX_PAIRS)
    assert f"d = {d} is the largest it lists" in " ".join(_too_large_section().split())
