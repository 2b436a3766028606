"""Named small posets used throughout the demos and the verification suite."""

from __future__ import annotations

from .poset import FinitePoset


def singleton() -> FinitePoset:
    return FinitePoset.from_covers(("x",), ())


def chain(n: int) -> FinitePoset:
    labels = tuple(str(i) for i in range(n))
    return FinitePoset.from_covers(labels, [(str(i), str(i + 1)) for i in range(n - 1)])


def antichain(n: int) -> FinitePoset:
    return FinitePoset.from_up_masks([1 << i for i in range(n)])


def vee() -> FinitePoset:
    """Two incomparable points below a common top."""
    return FinitePoset.from_covers(("a", "b", "t"), (("a", "t"), ("b", "t")))


def wedge() -> FinitePoset:
    """One point below two incomparable points."""
    return FinitePoset.from_covers(("m", "a", "b"), (("m", "a"), ("m", "b")))


def bowtie() -> FinitePoset:
    """Two points with two incomparable common upper bounds: the smallest
    poset whose consistent pairs lack least joins."""
    return FinitePoset.from_covers(
        ("a", "b", "s", "t"),
        (("a", "s"), ("a", "t"), ("b", "s"), ("b", "t")),
    )


def standard_trio() -> tuple[FinitePoset, FinitePoset, FinitePoset]:
    """The two-antichain, the vee and the wedge: the fixed instance set for
    mutation-sensitivity runs."""
    return antichain(2), vee(), wedge()
