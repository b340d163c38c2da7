"""Every ``repro.…`` name the documents cite resolves.

A backticked dotted name in DESIGN.md, README.md or EXPERIMENTS.md,
such as ``repro.analysis.AreaModel``, must import as a module and then
resolve attribute by attribute, so deleting or renaming code leaves no
stale reference behind.  Names under a heading marked "(removed)" are
the record of what left, and are exempt.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def cited(text: str):
    """``(line number, name)`` of every cited name outside a "(removed)" section."""
    removed = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            removed = "(removed)" in line
        if not removed:
            yield from ((number, match.group(1)) for match in NAME.finditer(line))


def resolve(name: str):
    """The object ``name`` names: its longest importable prefix, then attributes."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            found = getattr(found, attr)
        return found
    raise ModuleNotFoundError(name)


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_name_resolves(doc):
    names = list(cited((ROOT / doc).read_text(encoding="utf-8")))
    stale = []
    for number, name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            stale.append(f"{doc}:{number}: {name} ({exc})")
    assert not stale, "\n".join(stale)


def test_a_removed_section_is_exempt_and_a_stale_name_is_caught():
    text = "# Live\n`repro.errors.SecNDPError`\n## Gone (removed)\n`repro.tiering`\n"
    assert list(cited(text)) == [(2, "repro.errors.SecNDPError")]
    with pytest.raises(AttributeError):
        resolve("repro.errors.NoSuchError")


@pytest.mark.parametrize(
    "text, names",
    [
        ("calls `repro.cli.main()`\n", [(1, "repro.cli.main")]),
        ("# Gone (removed)\n`repro.tiering`\n## Live\n`repro.obs`\n", [(4, "repro.obs")]),
        ("plain repro.obs and `repro` alone\n", []),
        ("`repro.a.b` then `repro.c`\n", [(1, "repro.a.b"), (1, "repro.c")]),
    ],
    ids=["call-form", "exemption-ends-at-next-heading", "unquoted-or-bare", "two-on-a-line"],
)
def test_what_counts_as_a_citation(text, names):
    assert list(cited(text)) == names


@pytest.mark.parametrize(
    "name, expected",
    [
        ("repro.analysis", "repro.analysis"),
        ("repro.analysis.AreaModel.total_mm2", "total_mm2"),
        ("repro.harness.experiments.table5", "repro.harness.experiments.table5"),
    ],
    ids=["package", "method-of-a-class", "submodule"],
)
def test_a_name_resolves_through_modules_then_attributes(name, expected):
    assert getattr(resolve(name), "__name__", None) == expected


def test_a_name_with_no_importable_prefix_is_stale():
    with pytest.raises(ModuleNotFoundError):
        resolve("reproduction.nothing")
