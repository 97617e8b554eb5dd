"""gotenberg_ray — a Ray-Data-native crawl + document-conversion engine.

A from-scratch reimplementation of the capabilities of gotenberg/gotenberg
(reference at /root/reference) re-expressed Ray-Data-first:

- documents are rows of interleaved text+media *span lists* (Arrow
  ``list<struct<kind,text,media_ref,offset>>``) instead of working
  directories of files,
- every conversion route, ``libreoffice/convert`` included, is one
  batch pass (``pipelines/convert.py::convert_batch``) over zero-copy
  Arrow batches; the crawl runs it inside its fetch workers,
- stateful crawl machinery (URL frontier, seen-set, politeness, robots)
  lives in frontier shards, one Ray actor each under ``mode="ray"``,
- all wide steps are explicit, keyed shuffles.

Nothing here calls ``ray.init()``/``ray.shutdown()`` — the session is
owned by the driver / bench / test fixture.
"""

__version__ = "0.1.0"
