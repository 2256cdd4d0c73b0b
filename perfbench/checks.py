"""Output checks that take their expected answers from the workload generator.

Nothing here imports labelforge: tags are read back from the EPS and tex
text with patterns that match the lines the generators and labelforge's
writer produce, and compared with what the generator knows.
"""

from __future__ import annotations

import re

from workloads import SceneInput

PREVIEW_MARKER = b"%%Creator: labelforge-preview"

# A tag show on one line, as labelforge's writer emits it; comments and
# procedure bodies never start with gsave.
_SHOW_LINE = re.compile(rb"^gsave [^\n]*?\(([A-Za-z0-9]*)\) show grestore$", re.M)
_PSFRAG_TAG = re.compile(r"^\\psfrag\{([^}]*)\}", re.M)
_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class CheckFailed(Exception):
    """An output differs from what the generator says it must be."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def base52(index: int) -> str:
    """Bijective base 52 over a..z, A..Z: 0 -> "a", 51 -> "Z", 52 -> "aa"."""
    n = index + 1
    out = []
    while n:
        n, digit = divmod(n - 1, 52)
        out.append(_ALPHABET[digit])
    return "".join(reversed(out))


def eps_tags(eps: bytes) -> list[str]:
    return [m.decode("latin-1") for m in _SHOW_LINE.findall(eps)]


def tex_tags(tex: str) -> list[str]:
    return _PSFRAG_TAG.findall(tex)


def _is_subsequence(needles: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(any(tag == seen for seen in it) for tag in needles)


def check_export(scene: SceneInput, stdout: str, eps: bytes, tex: str) -> None:
    n = scene.labels
    expect(stdout.strip() == f"{n} labels, {n} tagged",
           f"export of {scene.name} printed {stdout.strip()!r}, expected {n} labels")
    shown = eps_tags(eps)
    expect(len(shown) == n, f"export of {scene.name}: EPS shows {len(shown)} tags, expected {n}")
    expect(len(set(shown)) == n, f"export of {scene.name}: EPS tags are not unique")
    expect(_is_subsequence(scene.explicit_tags, shown),
           f"export of {scene.name}: explicit tags missing or out of order in the EPS")
    expect(tex_tags(tex) == shown, f"export of {scene.name}: tex entries differ from EPS tags")


def parse_inspect(stdout: str) -> list[tuple[str, float, float, float, float]]:
    rows = []
    for line in stdout.splitlines():
        fields = line.split("\t")
        expect(len(fields) == 5, f"inspect line {line!r} does not have five fields")
        rows.append((fields[0], *(float(v) for v in fields[1:])))
    return rows


def check_inspect(scene: SceneInput, stdout: str) -> None:
    tags = [row[0] for row in parse_inspect(stdout)]
    expect(len(tags) == scene.labels,
           f"inspect of {scene.name} listed {len(tags)} tags, expected {scene.labels}")
    expect(_is_subsequence(scene.explicit_tags, tags),
           f"inspect of {scene.name}: explicit tags missing or out of order")


def check_preview(matched: int, stdout: str, out: bytes) -> None:
    expect(stdout.strip() == f"{matched} occurrences substituted",
           f"preview printed {stdout.strip()!r}, expected {matched} substitutions")
    expect(out.startswith(b"%!PS-Adobe"), "preview output is not PostScript")
    expect(PREVIEW_MARKER in out.split(b"\n", 3)[:3], "preview creator marker is missing")


def check_renumber(tags: int, stdout: str, eps: bytes, tex: str) -> None:
    """The pair's tags, which export wrote in the same order to the EPS and
    the tex (check_export), become base52(0), base52(1), ... in both files."""
    expected = [base52(i) for i in range(tags)]
    expect(stdout.strip() == f"renumbered {tags} tags",
           f"renumber printed {stdout.strip()!r}, expected {tags} tags")
    expect(tex_tags(tex) == expected, "renumbered tex tags are not the base-52 sequence")
    expect(eps_tags(eps) == expected, "renumbered EPS tags are not the base-52 sequence")
