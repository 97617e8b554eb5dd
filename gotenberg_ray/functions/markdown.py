"""Markdown → sanitized HTML (the chromium markdown route's transform).

Mirrors /root/reference/pkg/modules/chromium/routes.go:709-782: each
``.md`` file is rendered to HTML (gomarkdown) and sanitized with
bluemonday's UGC policy, then spliced into the ``index.html`` template
wherever ``{{ toHTML "name.md" }}`` appears; referencing a missing
``.md`` file is a 400.

The container has no markdown library, so this is a small deterministic
CommonMark-subset renderer (headings, paragraphs, emphasis, inline
code, fenced code, links, unordered/ordered lists, blockquotes, hr).
The subset is pinned by the unit tests; the *pipeline* semantics
(template splice, sanitize, missing-file error) are the part that must
match the reference.
"""

from __future__ import annotations

import html
import re

from ..spans import InvalidInput

_TO_HTML_RE = re.compile(r"\{\{\s*toHTML\s+\"([^\"]+)\"\s*\}\}")

# precompiled hot-path patterns (this renderer runs once per text span
# per crawled markdown page — re.sub with string patterns pays a cache
# lookup per call)
_CODE_RE = re.compile(r"`([^`]+)`")
_STRONG_RE = re.compile(r"\*\*([^*]+)\*\*")
_EM_RE = re.compile(r"\*([^*]+)\*")
_LINK_RE = re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_HR_RE = re.compile(r"(-{3,}|\*{3,}|_{3,})")
_ULI_RE = re.compile(r"^[-*+]\s+(.*)$")
_OLI_RE = re.compile(r"^\d+\.\s+(.*)$")
_BQ_RE = re.compile(r"^>\s?(.*)$")

# --------------------------------------------------------------------------
# inline rendering


def _inline(text: str) -> str:
    out = html.escape(text, quote=False)
    out = _CODE_RE.sub(r"<code>\1</code>", out)
    out = _STRONG_RE.sub(r"<strong>\1</strong>", out)
    out = _EM_RE.sub(r"<em>\1</em>", out)
    out = _LINK_RE.sub(
        lambda m: f'<a href="{m.group(2)}">{m.group(1)}</a>',
        out,
    )
    return out


def markdown_to_html(md: str) -> str:
    """Render the pinned markdown subset to HTML."""
    lines = md.split("\n")
    out: list[str] = []
    para: list[str] = []
    list_tag: str | None = None
    in_code = False
    code: list[str] = []

    def flush_para():
        if para:
            out.append(f"<p>{_inline(' '.join(para))}</p>")
            para.clear()

    def flush_list():
        nonlocal list_tag
        if list_tag:
            out.append(f"</{list_tag}>")
            list_tag = None

    for line in lines:
        if in_code:
            if line.strip().startswith("```"):
                out.append(f"<pre><code>{html.escape(chr(10).join(code))}</code></pre>")
                code.clear()
                in_code = False
            else:
                code.append(line)
            continue
        stripped = line.strip()
        if stripped.startswith("```"):
            flush_para()
            flush_list()
            in_code = True
            continue
        m = _HEADING_RE.match(stripped)
        if m:
            flush_para()
            flush_list()
            out.append(f"<h{len(m.group(1))}>{_inline(m.group(2))}</h{len(m.group(1))}>")
            continue
        if _HR_RE.fullmatch(stripped):
            flush_para()
            flush_list()
            out.append("<hr/>")
            continue
        m = _ULI_RE.match(stripped)
        if m:
            flush_para()
            if list_tag != "ul":
                flush_list()
                out.append("<ul>")
                list_tag = "ul"
            out.append(f"<li>{_inline(m.group(1))}</li>")
            continue
        m = _OLI_RE.match(stripped)
        if m:
            flush_para()
            if list_tag != "ol":
                flush_list()
                out.append("<ol>")
                list_tag = "ol"
            out.append(f"<li>{_inline(m.group(1))}</li>")
            continue
        m = _BQ_RE.match(stripped)
        if m:
            flush_para()
            flush_list()
            out.append(f"<blockquote>{_inline(m.group(1))}</blockquote>")
            continue
        if not stripped:
            flush_para()
            flush_list()
            continue
        para.append(stripped)
    if in_code:  # unterminated fence renders as code (gomarkdown behavior)
        out.append(f"<pre><code>{html.escape(chr(10).join(code))}</code></pre>")
    flush_para()
    flush_list()
    return "\n".join(out)


# --------------------------------------------------------------------------
# sanitizer — bluemonday.UGCPolicy() equivalent: allowlist of common
# user-generated-content tags; strip scripts/styles/event handlers and
# javascript: URLs.

_ALLOWED_TAGS = frozenset(
    "a abbr b blockquote br code dd del details div dl dt em figcaption figure "
    "h1 h2 h3 h4 h5 h6 hr i img ins kbd li mark ol p pre q rp rt ruby s samp "
    "small span strike strong sub summary sup table tbody td tfoot th thead "
    "time tr u ul var wbr".split()
)
_URL_ATTRS = {"href", "src"}
_ALLOWED_ATTRS = {"href", "src", "alt", "title", "width", "height", "colspan", "rowspan"}

_TAG_RE = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9]*)((?:[^>\"']|\"[^\"]*\"|'[^']*')*?)(/?)>")
_ATTR_RE = re.compile(r"([a-zA-Z-]+)\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s\"'>]+)")
# script/style elements: (with their content, stray open/self-closing tags)
_DROP_CONTENT_RES = tuple(
    (
        re.compile(rf"<{tag}\b[^>]*>.*?</{tag}\s*>", re.S | re.I),
        re.compile(rf"<{tag}\b[^>]*/?>", re.I),
    )
    for tag in ("script", "style")
)
_JS_URL_RE = re.compile(r"\s*javascript:", re.I)


def sanitize_html(src: str) -> str:
    """Strip disallowed tags/attributes (UGC policy semantics)."""
    # remove script/style elements with their content
    for element_re, tag_re in _DROP_CONTENT_RES:
        src = tag_re.sub("", element_re.sub("", src))

    def repl(m: re.Match) -> str:
        close, name, attrs, selfclose = m.groups()
        name_l = name.lower()
        if name_l not in _ALLOWED_TAGS:
            return ""
        if close:
            return f"</{name_l}>"
        kept: list[str] = []
        for am in _ATTR_RE.finditer(attrs or ""):
            aname = am.group(1).lower()
            aval = am.group(2).strip("\"'")
            if aname.startswith("on") or aname not in _ALLOWED_ATTRS:
                continue
            if aname in _URL_ATTRS and _JS_URL_RE.match(aval):
                continue
            kept.append(f'{aname}="{aval}"')
        inner = (" " + " ".join(kept)) if kept else ""
        return f"<{name_l}{inner}{'/' if selfclose else ''}>"

    return _TAG_RE.sub(repl, src)


def render_markdown_template(template_html: str, md_files: dict[str, str]) -> str:
    """Splice rendered+sanitized markdown into the index template.

    ``{{ toHTML "file.md" }}`` markers are replaced by the rendered file;
    referencing a missing file raises InvalidInput (400 — the reference
    errors the template execution, routes.go:732-740).
    """

    def repl(m: re.Match) -> str:
        name = m.group(1)
        if name not in md_files:
            raise InvalidInput(f"markdown file {name!r} not found")
        return sanitize_html(markdown_to_html(md_files[name]))

    return _TO_HTML_RE.sub(repl, template_html)


# ------------------------------------------------------------- render memo
#
# Crawl corpora repeat source documents across fetched URLs (the bench
# frontier renders ~20k distinct docs ~25×; real mirrors/boilerplate
# behave the same), so the render is memoized per worker PROCESS.
# Pure-function cache: results are byte-identical with or without it.
_RENDER_CACHE: dict[str, str] = {}
_RENDER_CACHE_MAX = 65_536  # entries; cleared wholesale when full


def render_markdown_cached(md: str) -> str:
    """``sanitize_html(markdown_to_html(md))`` with a process-level
    memo (bounded; cleared when full rather than LRU-tracked — the hit
    path must stay one dict probe)."""
    out = _RENDER_CACHE.get(md)
    if out is None:
        if len(_RENDER_CACHE) >= _RENDER_CACHE_MAX:
            _RENDER_CACHE.clear()
        out = sanitize_html(markdown_to_html(md))
        _RENDER_CACHE[md] = out
    return out
