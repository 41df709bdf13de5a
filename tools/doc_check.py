#!/usr/bin/env python3
"""doc_check: keep the docs honest about the CLI surface.

Three checks, all gating in CI (.github/workflows/ci.yml "docs" job):

1. Flag coverage — every flag registered with the command-line parser
   (common/flags.h) under bench/, tools/, examples/ or src/ must be
   mentioned, spelled as registered ("--jobs", "-ruu"), in README.md or
   EXPERIMENTS.md. Removing a flag's documentation (or documenting a flag
   that was renamed in code only) fails the build, and so does finding
   fewer than MIN_FLAGS flags: a collector that stops matching the
   registrations must not pass with nothing to check.

2. Schema coverage — every report schema literal ("reese-*-vN") a bench
   emits must be mentioned in README.md or EXPERIMENTS.md, so a new or
   renamed report format cannot ship undocumented.

3. Link integrity — every intra-repo markdown link in the top-level *.md
   files and docs referenced from them must point at a file that exists.

Usage: python3 tools/doc_check.py [repo_root]
Exit status 0 when both checks pass, 1 otherwise.
"""

import os
import re
import sys


# A flag "counts" when a binary registers it with the parser:
# flags.add("--jobs", ...) or flags->add("-ruu", ...).
FLAG_REGISTRATION = re.compile(r'(?:\.|->)add\(\s*"(--?[a-z][a-z0-9_-]*)"')

# Every flag of every binary, as registered when this floor was last
# raised; a count below it means the collector lost track of the sources.
MIN_FLAGS = 72

# Directories holding binaries (or, under src/, shared helpers such as
# sim::add_grid_flags) that register flags.
FLAG_SOURCE_DIRS = ("bench", "tools", "examples", "src")

# A report schema "counts" when a bench emits it as a JSON string literal,
# e.g. \"schema\": \"reese-cavf-v1\" in bench/*.cpp.
SCHEMA_LITERAL = re.compile(r'\\"(reese-[a-z0-9-]+-v\d+)\\"')

# [text](target) markdown links; images share the syntax via a leading '!'.
MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# External or intra-page targets that are not files on disk.
NON_FILE_PREFIXES = ("http://", "https://", "mailto:", "#")


def collect_flags(repo_root):
    """Map flag -> sorted list of source files that register it."""
    flags = {}
    for subdir in FLAG_SOURCE_DIRS:
        for root, _dirs, names in sorted(os.walk(os.path.join(repo_root,
                                                              subdir))):
            for name in sorted(names):
                if not name.endswith(".cpp"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                for flag in FLAG_REGISTRATION.findall(text):
                    flags.setdefault(flag, set()).add(
                        os.path.relpath(path, repo_root))
    return {flag: sorted(sources) for flag, sources in flags.items()}


def is_documented(flag, documented):
    """The flag as a whole word: "-instr" is not documented by
    "--instructions", nor "--out" by "--out-dir"."""
    pattern = r"(?<![\w-])" + re.escape(flag) + r"(?![\w-])"
    return re.search(pattern, documented) is not None


def collect_schemas(repo_root):
    """Map report schema -> sorted list of bench sources that emit it."""
    schemas = {}
    directory = os.path.join(repo_root, "bench")
    if not os.path.isdir(directory):
        return schemas
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".cpp"):
            continue
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for schema in SCHEMA_LITERAL.findall(text):
            schemas.setdefault(schema, set()).add(os.path.join("bench", name))
    return {schema: sorted(sources) for schema, sources in schemas.items()}


def check_flag_coverage(repo_root):
    doc_paths = [os.path.join(repo_root, name)
                 for name in ("README.md", "EXPERIMENTS.md")]
    documented = ""
    for path in doc_paths:
        with open(path, encoding="utf-8") as handle:
            documented += handle.read()

    errors = []
    flags = collect_flags(repo_root)
    if len(flags) < MIN_FLAGS:
        errors.append(
            f"found {len(flags)} registered flags, fewer than MIN_FLAGS = "
            f"{MIN_FLAGS}; the collector no longer matches how binaries "
            f"register flags")
    for flag, sources in sorted(flags.items()):
        if not is_documented(flag, documented):
            errors.append(
                f"flag {flag} (parsed by {', '.join(sources)}) is not "
                f"documented in README.md or EXPERIMENTS.md")
    for schema, sources in sorted(collect_schemas(repo_root).items()):
        if schema not in documented:
            errors.append(
                f"schema {schema} (emitted by {', '.join(sources)}) is not "
                f"documented in README.md or EXPERIMENTS.md")
    return errors


def markdown_files(repo_root):
    """Top-level *.md plus any docs/ markdown; skip build and .git trees."""
    found = []
    for entry in sorted(os.listdir(repo_root)):
        path = os.path.join(repo_root, entry)
        if entry.endswith(".md") and os.path.isfile(path):
            found.append(path)
    docs_dir = os.path.join(repo_root, "docs")
    if os.path.isdir(docs_dir):
        for root, _dirs, names in os.walk(docs_dir):
            for name in sorted(names):
                if name.endswith(".md"):
                    found.append(os.path.join(root, name))
    return found


def check_links(repo_root):
    errors = []
    for md_path in markdown_files(repo_root):
        base = os.path.dirname(md_path)
        with open(md_path, encoding="utf-8") as handle:
            text = handle.read()
        for target in MARKDOWN_LINK.findall(text):
            if target.startswith(NON_FILE_PREFIXES):
                continue
            # Strip an intra-file anchor: DESIGN.md#section -> DESIGN.md.
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = os.path.normpath(os.path.join(base, file_part))
            if not os.path.exists(resolved):
                rel = os.path.relpath(md_path, repo_root)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def main():
    repo_root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    errors = check_flag_coverage(repo_root) + check_links(repo_root)
    for error in errors:
        print(f"doc_check: {error}", file=sys.stderr)
    if errors:
        print(f"doc_check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("doc_check: ok (flags documented, links resolve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
