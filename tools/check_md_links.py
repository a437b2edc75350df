#!/usr/bin/env python3
"""Checks intra-repo links and anchors in the repository's Markdown files,
and the Markdown files that source code cites.

Scans every *.md file (outside build trees) for inline links and
reference-style definitions, and fails if

  * a relative link points at a file or directory that does not exist, or
  * a fragment — `#anchor` within the same file, or `other.md#anchor`
    across files — names a heading that does not exist in the target
    Markdown file (GitHub slug rules: lowercase, punctuation stripped,
    spaces to hyphens, `-N` suffixes for duplicates).

External schemes (http, https, mailto) are ignored; fenced code blocks are
skipped so code samples cannot produce false positives.

It also scans the .h, .cc, .cpp and .py files under src/, bench/,
examples/, tests/ and tools/ for `NAME.md` tokens, and fails if one names
neither an existing repo-relative path nor the basename of an existing
Markdown file (so a comment may say `OPERATIONS.md` or
`docs/OPERATIONS.md`). This file itself is not scanned.

Usage: python3 tools/check_md_links.py [repo_root]
Exit status: 0 if every intra-repo link, anchor and code citation
resolves, 1 otherwise.
"""

import os
import re
import sys

SKIP_DIRS = {".git", "build", "build-tsan", "node_modules"}
INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)")
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
MD_LINK_TEXT = re.compile(r"\[([^\]]*)\]\([^)]*\)")
SLUG_STRIP = re.compile(r"[^\w\- ]")
CODE_DIRS = ("src", "bench", "examples", "tests", "tools")
CODE_SUFFIXES = (".h", ".cc", ".cpp", ".py")
MD_TOKEN = re.compile(r"[\w./-]*\w\.md\b")
CHECKER = os.path.join("tools", "check_md_links.py")  # its docs cite examples


def find_markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build")
        ]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def non_fenced_lines(path):
    in_fence = False
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            yield line_number, line


def code_citations(root):
    """(repo-relative file, line number, token) for every NAME.md token in
    source code."""
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                relative = os.path.relpath(path, root)
                if not name.endswith(CODE_SUFFIXES) or relative == CHECKER:
                    continue
                with open(path, encoding="utf-8") as handle:
                    for line_number, line in enumerate(handle, start=1):
                        for match in MD_TOKEN.finditer(line):
                            yield relative, line_number, match.group(0)


def links_in(path):
    for line_number, line in non_fenced_lines(path):
        for match in INLINE_LINK.finditer(line):
            yield line_number, match.group(1)
        match = REFERENCE_DEF.match(line)
        if match:
            yield line_number, match.group(1)


def github_slug(text):
    """The anchor GitHub generates for a heading (close enough: lowercase,
    markdown markup dropped, punctuation removed — underscores KEPT —
    spaces hyphenated)."""
    text = MD_LINK_TEXT.sub(r"\1", text)       # [text](url) -> text
    text = text.replace("`", "").replace("*", "")
    text = SLUG_STRIP.sub("", text.lower())
    return text.strip().replace(" ", "-")


def anchors_in(path):
    """All heading anchors of one Markdown file, with duplicate -N suffixes."""
    seen = {}
    anchors = set()
    for _, line in non_fenced_lines(path):
        match = HEADING.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    anchor_cache = {}

    def anchors_of(path):
        if path not in anchor_cache:
            anchor_cache[path] = anchors_in(path)
        return anchor_cache[path]

    dead = []
    dangling = []
    checked = anchors_checked = 0
    md_files = list(find_markdown_files(root))
    for md_file in md_files:
        for line_number, target in links_in(md_file):
            if EXTERNAL.match(target):
                continue
            relative, _, fragment = target.partition("#")
            if not relative:
                resolved = md_file  # pure #anchor: same file
            elif relative.startswith("/"):
                resolved = os.path.join(root, relative.lstrip("/"))
            else:
                resolved = os.path.join(os.path.dirname(md_file), relative)
            if relative:
                checked += 1
                if not os.path.exists(resolved):
                    dead.append(
                        (os.path.relpath(md_file, root), line_number, target))
                    continue
            if fragment and resolved.endswith(".md") and os.path.isfile(resolved):
                anchors_checked += 1
                if fragment.lower() not in anchors_of(resolved):
                    dangling.append(
                        (os.path.relpath(md_file, root), line_number, target))
    md_basenames = {os.path.basename(path) for path in md_files}
    missing = []
    cited = 0
    for path, line_number, token in code_citations(root):
        cited += 1
        if (token not in md_basenames and
                not os.path.exists(os.path.join(root, token))):
            missing.append((path, line_number, token))

    status = 0
    if dead:
        print("dead intra-repo links:")
        for md_file, line_number, target in dead:
            print(f"  {md_file}:{line_number}: {target}")
        status = 1
    if dangling:
        print("dangling anchors (no such heading in the target file):")
        for md_file, line_number, target in dangling:
            print(f"  {md_file}:{line_number}: {target}")
        status = 1
    if missing:
        print("source comments citing missing Markdown files:")
        for path, line_number, token in missing:
            print(f"  {path}:{line_number}: {token}")
        status = 1
    if status == 0:
        print(f"ok: {checked} intra-repo links, {anchors_checked} anchors "
              f"and {cited} Markdown citations in code resolve")
    return status


if __name__ == "__main__":
    sys.exit(main())
