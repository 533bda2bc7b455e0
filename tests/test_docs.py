"""Executable documentation: code blocks run, links resolve.

The observability guide and metrics reference are operator-facing and
full of runnable examples; docs that drift from the code are worse
than no docs.  This module:

* executes every fenced ``python`` block in the two new documents (the
  blocks carry their own asserts, so a behaviour change that breaks an
  example fails here, not in a reader's terminal);
* checks every intra-repo markdown link — relative links in any
  tracked ``.md`` file must point at a file that exists.

CI runs this as its own ``docs`` job.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).parent.parent
DOCS = REPO / "docs"

EXECUTABLE_DOCS = [
    DOCS / "observability.md",
    DOCS / "metrics_reference.md",
    DOCS / "feature_store.md",
    DOCS / "parallelism.md",
    DOCS / "kernels.md",
    DOCS / "cluster.md",
    DOCS / "campaign.md",
    DOCS / "memory_planner.md",
    DOCS / "bucketing.md",
]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
# [text](target) — skips images (![..]) via the lookbehind.
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")


def _python_blocks(path):
    return _FENCE.findall(path.read_text())


def _markdown_files():
    skip_dirs = {".git", ".pytest_cache", "__pycache__", "node_modules"}
    return sorted(
        p for p in REPO.rglob("*.md")
        if not (set(p.relative_to(REPO).parts[:-1]) & skip_dirs)
    )


class TestDocExamples:
    @pytest.mark.parametrize(
        "doc", EXECUTABLE_DOCS, ids=lambda p: p.name
    )
    def test_doc_has_executable_examples(self, doc):
        assert doc.exists(), doc
        assert _python_blocks(doc), f"{doc.name} has no ```python blocks"

    @pytest.mark.parametrize(
        "doc,index,block",
        [
            (doc.name, i, block)
            for doc in EXECUTABLE_DOCS
            for i, block in enumerate(_python_blocks(doc))
        ],
        ids=lambda v: str(v) if not isinstance(v, str) or "\n" not in v
        else "block",
    )
    def test_python_block_executes(self, doc, index, block):
        namespace = {"__name__": f"doctest_{doc}_{index}"}
        exec(compile(block, f"{doc}[python #{index}]", "exec"), namespace)


class TestIntraRepoLinks:
    def test_relative_markdown_links_resolve(self):
        broken = []
        for md in _markdown_files():
            for target in _LINK.findall(md.read_text()):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:           # pure anchor (#section)
                    continue
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    broken.append(f"{md.relative_to(REPO)} -> {target}")
        assert not broken, "broken intra-repo links:\n" + "\n".join(broken)

    def test_new_docs_are_linked_from_readme(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/observability.md" in readme
        assert "docs/metrics_reference.md" in readme
        assert "docs/parallelism.md" in readme
        assert "docs/kernels.md" in readme
        assert "docs/feature_store.md" in readme
        assert "docs/cluster.md" in readme
        assert "docs/campaign.md" in readme
        assert "docs/memory_planner.md" in readme
        assert "docs/bucketing.md" in readme
        assert "docs/README.md" in readme

    def test_docs_index_covers_every_guide(self):
        """docs/README.md is the index: every guide appears in it."""
        index = (DOCS / "README.md").read_text()
        for guide in sorted(DOCS.glob("*.md")):
            if guide.name == "README.md":
                continue
            assert f"({guide.name})" in index, (
                f"docs/README.md does not index {guide.name}"
            )


class TestMetricsReferenceNames:
    """Every metric name in the Prometheus column of the metrics
    reference is one the exporter really emits.  The seeded
    expositions are the ``tests/golden/prometheus_*.txt`` pins
    (``tests/test_prometheus.py`` keeps them equal to the exporter)."""

    #: ``## `` heading prefix -> (metric prefix, goldens) for the
    #: tables under it; serving tables come before the first of these.
    DOMAINS = {
        "": ("afsys_serving_", ("prometheus_serving.txt",
                                "prometheus_serving_chaos.txt")),
        "Cluster summary": ("afsys_cluster_", ("prometheus_cluster.txt",)),
        "Campaign summary": ("afsys_campaign_",
                             ("prometheus_campaign.txt",)),
    }

    @staticmethod
    def _emitted(goldens):
        names = set()
        for golden in goldens:
            for line in (REPO / "tests" / "golden" / golden).read_text() \
                    .splitlines():
                if line.startswith("# HELP "):
                    names.add(line.split()[2])
                elif not line.startswith("#"):
                    names.add(re.split(r"[{ ]", line)[0])
        return names

    def _documented(self):
        """(domain heading, backticked name) per Prometheus-column cell."""
        domain, column = "", None
        text = (DOCS / "metrics_reference.md").read_text()
        for line in text.splitlines():
            if line.startswith("## "):
                domain = next(
                    (d for d in self.DOMAINS if d and line[3:].startswith(d)),
                    domain,
                )
                continue
            if not line.startswith("|"):
                column = None
                continue
            cells = [c.strip() for c in line.strip("|").split("|")]
            if column is None:
                column = cells.index("Prometheus") \
                    if "Prometheus" in cells else -1
                continue
            if column < 0 or set(cells[0]) <= {"-"}:
                continue
            cell = cells[column]
            if cell.startswith("label"):
                continue
            for name in re.findall(r"`([^`]+)`", cell):
                yield domain, name.split("{")[0]

    def test_documented_names_are_emitted(self):
        checked = {domain: 0 for domain in self.DOMAINS}
        missing = []
        for domain, name in self._documented():
            prefix, goldens = self.DOMAINS[domain]
            pattern = re.compile(
                re.escape(prefix + name).replace(r"\*", ".*")
            )
            if not any(pattern.fullmatch(m) for m in self._emitted(goldens)):
                missing.append(f"{prefix}{name}")
            checked[domain] += 1
        assert not missing, f"documented but never emitted: {missing}"
        assert all(count >= 10 for count in checked.values()), checked
