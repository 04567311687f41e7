"""Morphologically guided subword tokenization toolkit.

Two trainable tokenizers (WordPiece and unigram language model), three
guidance modes that inject morphological analyses into training
(vocabulary seeding, acontextual and contextual presegmentation), and a
segmentation-quality evaluation harness.

The submodules are the API; import from them, not from this package:

- ``corpus``: input file loaders, sampling and delimiter escaping
- ``morphology``: POS mapping and analysis disambiguation
- ``presegment``: morpheme presegmentation of corpora and words
- ``wordpiece``, ``ulm``: trainers, vocabularies and encoders
- ``artifacts``: guidance modes, artifact save/load, encode pipelines
- ``evaluation``: segmentation metrics against gold sets
- ``cli``: the ``morphtok`` command
"""

__version__ = "0.1.0"
