"""Documentation link checker.

Every relative markdown link in ``docs/``, ``README.md`` and
``DESIGN.md`` must resolve to a real file, anchor fragments must match
a heading in the target document, and every backticked dotted
``repro.…`` name must import as a module or resolve as an attribute of
one.  Runs in the normal test suite (and in the CI docs job) so the tree
can't merge broken links or mentions of deleted code.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", *(REPO / "docs").glob("*.md")]
)

#: Inline markdown links: [text](target).  Reference-style links and
#: autolinks are not used in this tree.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
#: A backticked dotted name in the package, e.g. `repro.core.views.build_views`.
NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _links(path: Path) -> list[str]:
    return LINK_RE.findall(path.read_text())


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = heading.strip().lower()
    # Drop inline-code backticks and markdown emphasis markers.
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    return {
        _slugify(m.group(1))
        for m in re.finditer(r"^#{1,6}\s+(.*)$", path.read_text(), re.MULTILINE)
    }


def _resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute path under one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_doc_pages_exist():
    for page in ("index", "quickstart", "architecture", "observability", "cli"):
        assert (REPO / "docs" / f"{page}.md").exists(), f"docs/{page}.md missing"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(doc):
    broken = []
    for target in _links(doc):
        if target.startswith(EXTERNAL):
            continue
        target, _, fragment = target.partition("#")
        resolved = (doc.parent / target).resolve() if target else doc
        if target and not resolved.exists():
            broken.append(f"{target}: file not found")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in _anchors(resolved):
                broken.append(f"{target}#{fragment}: no such heading")
    assert not broken, f"{doc.name}: " + "; ".join(broken)


def test_docs_linked_from_readme():
    readme_links = _links(REPO / "README.md")
    assert any("docs/" in t for t in readme_links), (
        "README.md must link into the docs/ tree"
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_package_names_resolve(doc):
    names = sorted(set(NAME_RE.findall(doc.read_text())))
    missing = [name for name in names if not _resolves(name)]
    assert not missing, f"{doc.name}: unresolved names " + ", ".join(missing)


def test_name_check_rejects_unknown_names():
    assert _resolves("repro.core.views.build_views")
    assert not _resolves("repro.core.no_such_module")
    assert not _resolves("repro.core.views.no_such_name")
