#!/usr/bin/env python3
"""Documentation gate: dead links and stale CLI examples.

Run from anywhere inside the repo (CI runs it in the static-analysis job):

    python3 tools/check_docs.py [--bin-dir build]

Three checks, the first two over README.md and every docs/*.md:

1.  Dead relative links. Every markdown link/image whose target is not
    absolute (http(s)://, mailto:, #anchor) must resolve to an existing
    file or directory relative to the file containing it. Anchors are
    stripped before the existence check.

2.  Stale CLI examples. Inside fenced code blocks, commands (joined at a
    trailing `\\`) that invoke one of the repo's binaries (campaign_cli,
    caft_cli, campaign_server, campaign_client, ftsched_lint) have their
    `--flag` tokens verified, and a `\\` not ending a line is flagged.
    A flag is accepted when it appears in the
    binary's `--help` output or, because the CLIs keep their usage text
    in the source header, in the tool's source file; anything found in
    neither is a renamed or removed option still advertised by the docs.
    With --bin-dir the `--help` probe also asserts the binary runs and
    exits 0; without it (or for unbuilt binaries) the source-text check
    still gates.

3.  Dead markdown citations in code. Every `*.md` path named in a source
    file under src/, tools/ or tests/ (comments and strings alike) must
    exist relative to the repo root, so a comment that points the reader
    at a document points at one that is there.

Exit status: 0 clean, 1 findings (one line per finding on stderr).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# binary name -> source file holding its usage text and option parser
TOOL_SOURCES = {
    "campaign_cli": "tools/campaign_cli.cpp",
    "caft_cli": "tools/caft_cli.cpp",
    "campaign_server": "tools/campaign_server.cpp",
    "campaign_client": "tools/campaign_client.cpp",
    "ftsched_lint": "tools/ftsched_lint.cpp",
}

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^(```|~~~)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
MD_CITE_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
CODE_DIRS = ("src", "tools", "tests")
CODE_SUFFIXES = {".cpp", ".hpp", ".py", ".sh"}
INVOKE_RE = re.compile(
    r"(?:^|[\s;(`])(?:[.\w/]*/)?(%s)(?:\s|$)" % "|".join(TOOL_SOURCES)
)


def doc_files() -> list[pathlib.Path]:
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def check_links(doc: pathlib.Path, findings: list[str]) -> None:
    in_fence = False
    for line_no, line in enumerate(doc.read_text().splitlines(), 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            if target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                findings.append(
                    f"{doc.relative_to(REPO)}:{line_no}: dead relative link "
                    f"'{target}' (resolves to {resolved})"
                )


def help_flags(binary: pathlib.Path) -> set[str] | None:
    """Flags named by `--help`; None when the probe cannot run."""
    try:
        proc = subprocess.run(
            [str(binary), "--help"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return set(FLAG_RE.findall(proc.stdout + proc.stderr))


def check_cli_examples(
    doc: pathlib.Path, bin_dir: pathlib.Path | None, findings: list[str]
) -> None:
    known: dict[str, set[str] | None] = {}

    def flags_of(tool: str) -> set[str] | None:
        if tool not in known:
            flags: set[str] = set()
            probed = False
            if bin_dir is not None:
                for sub in ("tools", "bench", "."):
                    binary = bin_dir / sub / tool
                    if binary.is_file():
                        from_help = help_flags(binary)
                        if from_help is None:
                            findings.append(
                                f"{binary}: `--help` failed — docs examples "
                                f"for {tool} cannot be trusted"
                            )
                        else:
                            flags |= from_help
                            probed = True
                        break
            source = REPO / TOOL_SOURCES[tool]
            if source.is_file():
                flags |= set(FLAG_RE.findall(source.read_text()))
                probed = True
            known[tool] = flags if probed else None
        return known[tool]

    in_fence = False
    command, start = "", 0  # physical lines joined by a trailing backslash
    for line_no, line in enumerate(doc.read_text().splitlines(), 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            command = ""
            continue
        if not in_fence:
            continue
        if not command:
            start = line_no
        if line.endswith("\\"):
            command += line[:-1]
            continue
        command, line = "", command + line
        invoked = INVOKE_RE.search(line)
        if not invoked:
            continue
        tool = invoked.group(1)
        if "\\" in line:
            findings.append(
                f"{doc.relative_to(REPO)}:{start}: example for {tool} has a "
                f"'\\' that does not end its line"
            )
        accepted = flags_of(tool)
        if accepted is None:
            continue  # neither binary nor source available: nothing to gate
        for flag in FLAG_RE.findall(line):
            if flag not in accepted:
                findings.append(
                    f"{doc.relative_to(REPO)}:{start}: example uses "
                    f"{tool} {flag}, unknown to its --help/source"
                )


def check_code_citations(findings: list[str]) -> None:
    for top in CODE_DIRS:
        for source in sorted((REPO / top).rglob("*")):
            if source.suffix not in CODE_SUFFIXES or not source.is_file():
                continue
            text = source.read_text(errors="replace")
            for line_no, line in enumerate(text.splitlines(), 1):
                for match in MD_CITE_RE.finditer(line):
                    cited = match.group(1)
                    if not (REPO / cited).exists():
                        findings.append(
                            f"{source.relative_to(REPO)}:{line_no}: cites "
                            f"{cited}, which does not exist"
                        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bin-dir",
        type=pathlib.Path,
        default=None,
        help="build directory holding tools/ and bench/ binaries; "
        "enables the live --help probe",
    )
    args = parser.parse_args()

    findings: list[str] = []
    docs = doc_files()
    if len(docs) < 2:
        findings.append("docs/ tree missing or empty next to README.md")
    for doc in docs:
        check_links(doc, findings)
        check_cli_examples(doc, args.bin_dir, findings)
    check_code_citations(findings)

    for finding in findings:
        print(finding, file=sys.stderr)
    print(
        f"check_docs: {len(docs)} files, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
