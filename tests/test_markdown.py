from gotenberg_ray.functions import markdown as M


def test_basic_blocks():
    html = M.markdown_to_html("# Title\n\npara **bold** *em* `code`\n\n- a\n- b\n\n1. x\n2. y")
    assert "<h1>Title</h1>" in html
    assert "<p>para <strong>bold</strong> <em>em</em> <code>code</code></p>" in html
    assert "<ul>\n<li>a</li>\n<li>b</li>\n</ul>" in html
    assert "<ol>\n<li>x</li>\n<li>y</li>\n</ol>" in html


def test_links_fence_blockquote_hr_escape():
    html = M.markdown_to_html("[t](http://x/)\n\n```\na < b\n```\n\n> quoted\n\n---")
    assert '<a href="http://x/">t</a>' in html
    assert "<pre><code>a &lt; b</code></pre>" in html
    assert "<blockquote>quoted</blockquote>" in html
    assert "<hr/>" in html
    assert "&lt;" in M.markdown_to_html("a < b")


def test_sanitize_strips_script_and_handlers():
    src = '<p onclick="x()">hi</p><script>evil()</script><a href="javascript:e()">x</a><img src="a.png" onerror="e()">'
    out = M.sanitize_html(src)
    assert "script" not in out and "onclick" not in out and "onerror" not in out
    assert "javascript:" not in out
    assert "<p>hi</p>" in out
    assert '<img src="a.png">' in out


def test_sanitize_drops_unknown_tags_keeps_content():
    assert M.sanitize_html("<custom>keep</custom>") == "keep"
    assert M.sanitize_html('<iframe src="x">no</iframe>') == "no"
