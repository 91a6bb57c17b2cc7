#!/usr/bin/env python
"""Generate ``docs/API.md`` from package docstrings.

The reference is *derived*, never hand-written: every symbol in
``repro.service.__all__`` and ``repro.kernels.__all__`` is rendered
with its signature, its full
docstring (verbatim, fenced so numpydoc sections survive markdown), and
— for classes — a one-line summary per public method/property. CI runs
``tools/check_docs.py`` (no symbol may lack a docstring) and this
script's ``--check`` mode (the committed file may not drift from the
code), so the reference cannot rot silently.

Usage::

    python tools/gen_api_docs.py          # (re)write docs/API.md
    python tools/gen_api_docs.py --check  # exit 1 if docs/API.md is stale
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

OUT_PATH = os.path.join(REPO_ROOT, "docs", "API.md")

HEADER = """\
# API reference

> Generated by `python tools/gen_api_docs.py` from the package
> docstrings — **do not edit by hand**; edit the docstrings and
> regenerate. CI fails when this file drifts from the code.

Two flat-exported packages are documented: `repro.service` (the batch
routing service) and `repro.kernels` (the routing kernels — see the
"Kernels" section of [ARCHITECTURE.md](ARCHITECTURE.md)). `from repro.service import X` /
`from repro.kernels import X` works for every symbol below. See
[ARCHITECTURE.md](ARCHITECTURE.md) for how the pieces compose and
[OPERATIONS.md](OPERATIONS.md) for running them.
"""


def _signature(obj: object) -> str:
    try:
        return str(inspect.signature(obj))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "(...)"


def _summary(obj: object) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def _kind(obj: object) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    return f"data ({type(obj).__name__})"


def _class_members(cls: type) -> list[tuple[str, str, str]]:
    """(kind, name+signature, summary) for public members, as defined."""
    rows: list[tuple[str, str, str]] = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            rows.append(("property", name, _summary(member.fget)))
        elif inspect.isfunction(member):
            rows.append(("method", f"{name}{_signature(member)}", _summary(member)))
    return rows


def _render_symbol(name: str, obj: object) -> list[str]:
    lines: list[str] = []
    module = getattr(obj, "__module__", "repro.service")
    kind = _kind(obj)
    lines.append(f"## `{name}`")
    lines.append("")
    lines.append(f"*{kind} — `{module}`*")
    lines.append("")
    if inspect.isclass(obj):
        lines.append("```python")
        lines.append(f"class {name}{_signature(obj)}")
        lines.append("```")
    elif inspect.isfunction(obj):
        lines.append("```python")
        lines.append(f"def {name}{_signature(obj)}")
        lines.append("```")
    doc = inspect.getdoc(obj)
    if doc:
        lines.append("")
        lines.append("```text")
        lines.extend(doc.splitlines())
        lines.append("```")
    if inspect.isclass(obj):
        members = _class_members(obj)
        if members:
            lines.append("")
            lines.append("| member | kind | summary |")
            lines.append("| --- | --- | --- |")
            for member_kind, member_sig, member_summary in members:
                sig = member_sig.replace("|", "\\|")
                summary = member_summary.replace("|", "\\|")
                lines.append(f"| `{sig}` | {member_kind} | {summary} |")
    lines.append("")
    return lines


def _render_module(module: object, title: str) -> list[str]:
    """One `# title` section: index table plus every exported symbol."""
    lines: list[str] = [f"# {title}", ""]
    lines.append("## Index")
    lines.append("")
    lines.append("| symbol | kind | summary |")
    lines.append("| --- | --- | --- |")
    for name in module.__all__:
        obj = getattr(module, name)
        anchor = name.lower()
        summary = _summary(obj) if (inspect.isclass(obj) or inspect.isfunction(obj)) \
            else "module-level export (see its module docstring)"
        lines.append(f"| [`{name}`](#{anchor}) | {_kind(obj)} | {summary} |")
    lines.append("")
    for name in module.__all__:
        obj = getattr(module, name)
        lines.extend(_render_symbol(name, obj))
    return lines


def generate() -> str:
    """The full docs/API.md text for the current code."""
    import repro.kernels as kernels
    import repro.service as service

    lines: list[str] = [HEADER]
    lines.extend(_render_module(service, "`repro.service`"))
    lines.extend(_render_module(kernels, "`repro.kernels`"))
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/API.md matches the code instead of writing it",
    )
    args = parser.parse_args(argv)
    text = generate()
    if args.check:
        try:
            with open(OUT_PATH, "r", encoding="utf-8") as fh:
                current = fh.read()
        except OSError:
            print("gen_api_docs: docs/API.md is missing; run tools/gen_api_docs.py")
            return 1
        if current != text:
            print(
                "gen_api_docs: docs/API.md is stale; "
                "run `python tools/gen_api_docs.py` and commit the result"
            )
            return 1
        print("gen_api_docs: docs/API.md is up to date")
        return 0
    os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"gen_api_docs: wrote {os.path.relpath(OUT_PATH, REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
