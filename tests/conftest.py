from __future__ import annotations

import math
from pathlib import Path

import pytest

from labelforge import ExportOptions, load_scene, preview, psfrag_export, scan_tags
from labelforge.exprkit import plain_text
from labelforge.fontmetrics import string_extents
from labelforge.labeling import parse_psfrag_document

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def check_shows(eps: bytes, scene, tag_text) -> list:
    """Scan `eps`, written from the expanded `scene` with `tag_text`, and assert that it shows
    each text primitive's tag or plain text within 0.5 pt and 0.1 degree of where the scene
    puts it: the plot range fills the target size less a 5% margin on each side, and the
    string's 10 pt box, as `string_extents` measures it, sits on its anchor and runs along
    its direction in device space. Returns the occurrences."""
    (xmin, xmax), (ymin, ymax) = scene.plot_range
    width, height = scene.target_size
    sx, sy = 0.9 * width / (xmax - xmin), 0.9 * height / (ymax - ymin)
    occs = scan_tags(eps)
    texts = scene.text_primitives()
    assert len(occs) == len(texts)
    for i, (occ, prim) in enumerate(zip(occs, texts)):
        text = tag_text.get(i) or plain_text(prim.expr)
        assert occ.tag == text
        theta = math.atan2(prim.direction[1] * sy, prim.direction[0] * sx)
        w, h, depth = string_extents(text, 10.0)
        mx, my = -(prim.anchor[0] + 1) / 2 * w, depth - (prim.anchor[1] + 1) / 2 * h
        x = 0.05 * width + (prim.position[0] - xmin) * sx  # the anchor on the page
        y = 0.05 * height + (prim.position[1] - ymin) * sy
        x, y = (x + math.cos(theta) * mx - math.sin(theta) * my,
                y + math.sin(theta) * mx + math.cos(theta) * my)
        assert math.hypot(occ.device_position[0] - x, occ.device_position[1] - y) < 0.5
        delta = (occ.rotation - math.degrees(theta)) % 360.0
        assert min(delta, 360.0 - delta) < 0.1
    return occs


def preview_points(eps: bytes, tex: str, measure) -> list[tuple[str, tuple[float, float]]]:
    """Preview the pair with `measure` in place of `preview.default_measure`, and give each
    box's tag and baseline-left device point, in drawing order. The point is recovered from
    the box's 4 pt caption, which preview shows at (1, depth + 1) in the box's frame."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preview, "default_measure", measure)
        result = preview.substitute_preview(eps, parse_psfrag_document(tex))
    points = []
    for occ in scan_tags(result.eps):
        if occ.font_size == 4.0:  # a caption: the box frame's (1, 1) step is undone
            r = math.radians(occ.rotation)
            cos_r, sin_r = occ.scale * math.cos(r), occ.scale * math.sin(r)
            x, y = occ.device_position
            points.append((occ.tag, (x - cos_r + sin_r, y - sin_r - cos_r)))
    return points


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture
def scene_of():
    def _load(name: str):
        return load_scene(FIXTURES / f"{name}.scene")
    return _load


@pytest.fixture
def export():
    """Export a fixture scene in memory, returning (eps, tex, registry)."""

    def _export(name: str, opts: ExportOptions = ExportOptions(), hooks=None):
        result = psfrag_export(load_scene(FIXTURES / f"{name}.scene"), opts, hooks)
        return result.eps, result.tex, result.registry

    return _export
