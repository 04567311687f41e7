"""Command line interface: presegment, train, encode, evaluate.

Exit codes: 0 on success, 2 for input or configuration errors, 3 for
internal failures.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import artifacts, evaluation, presegment, ulm, wordpiece
from .corpus import (
    DEFAULT_DELIMITER,
    escape_delimiter,
    load_corpus,
    load_gold_set,
    load_lexicon,
    load_suffixes,
    load_tagged_corpus,
    sample_sentences,
    unescape_delimiter,
)
from .errors import LoaderError
from .evaluation import normalize_pieces
from .morphology import load_pos_mapping


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_delimiter(value: str) -> str:
    # "\" escapes the delimiter in text and whitespace separates words
    if len(value) != 1 or value == "\\" or value.isspace():
        raise ValueError(
            f"morph delimiter must be one character other than '\\' and whitespace, got {value!r}"
        )
    return value


# the train options a trainer config cannot declare: name -> (parser, default).
# The corpus pass reads all four; `seed` seeds the sentence sampling, and the
# delimiter reaches the trainer config only with presegmented training data.
CORPUS_OPTIONS = {
    "morph_delimiter": (_parse_delimiter, DEFAULT_DELIMITER),
    "sample_fraction": (float, 1.0),
    "seed": (int, 0),
    "lowercase": (_parse_bool, False),
}

# every train option: each trainer config field, then the corpus options;
# a flag (--vocab-size 1200) overrides a config file line (vocab_size 1200)
TRAIN_OPTIONS = {
    name: (_parse_bool if typ is bool else typ, default)
    for config_class in artifacts.CONFIG_CLASSES.values()
    for name, typ, default in artifacts.config_fields(config_class)
} | CORPUS_OPTIONS


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_option(key: str, text: str, where: str):
    """Parse one train option's text; `where` locates it in an error."""
    try:
        return TRAIN_OPTIONS[key][0](text)
    except ValueError as exc:
        raise LoaderError(f"{where}: bad value for {key!r}: {exc}") from None


def _load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in TRAIN_OPTIONS:
                raise LoaderError(f"{path}:{lineno}: unknown config key {key!r}")
            if not value:
                raise LoaderError(f"{path}:{lineno}: missing value for {key!r}")
            values[key] = _parse_option(key, value, f"{path}:{lineno}")
    return values


def _resolve_options(args) -> dict:
    """Each train option from its flag, else the config file, else its default."""
    file_values = _load_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (_, default) in TRAIN_OPTIONS.items():
        flag_value = getattr(args, key)
        if isinstance(flag_value, str):
            resolved[key] = _parse_option(key, flag_value, _flag(key))
        elif flag_value is not None:  # a --[no-]switch
            resolved[key] = flag_value
        else:
            resolved[key] = file_values.get(key, default)
    return resolved


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_checked_lexicon(path, delimiter: str):
    """Load a lexicon; warn about skipped rows and fail when none is usable."""
    lexicon = load_lexicon(path, delimiter)
    if lexicon.rejected:
        _warn(f"lexicon: skipped {len(lexicon.rejected)} malformed rows")
    if not len(lexicon):
        raise LoaderError(f"{path}: no usable lexicon rows ({len(lexicon.rejected)} malformed)")
    return lexicon


def cmd_train(args) -> int:
    opt = _resolve_options(args)
    guidance = args.guidance
    delimiter = opt["morph_delimiter"]

    lexicon = _load_checked_lexicon(args.lexicon, delimiter) if args.lexicon else None
    mapping = load_pos_mapping(args.pos_mapping) if args.pos_mapping else None
    suffixes = load_suffixes(args.suffixes) if args.suffixes else None

    if guidance in artifacts.PRETOK_MODES and lexicon is None:
        raise ValueError(f"guidance {guidance!r} requires --lexicon")
    if guidance == "morphseed" and suffixes is None:
        raise ValueError("guidance 'morphseed' requires --suffixes")
    if suffixes is not None and guidance != "morphseed":
        _warn(f"--suffixes is ignored with guidance {guidance!r}")
        suffixes = None

    preseg_stats = None
    if guidance == "morphpretok-contextual":
        if not args.tagged_corpus:
            raise ValueError("guidance 'morphpretok-contextual' requires --tagged-corpus")
        corpus_path = args.tagged_corpus
        tagged = load_tagged_corpus(corpus_path, opt["lowercase"], delimiter)
        tagged = sample_sentences(tagged, opt["sample_fraction"], opt["seed"])
        n_input_sentences = len(tagged.sentences)
        training = presegment.presegment_contextual(tagged, lexicon, mapping, delimiter)
        preseg_stats = training.stats
    else:
        if not args.corpus:
            raise ValueError("--corpus is required")
        corpus_path = args.corpus
        corpus = load_corpus(corpus_path, opt["lowercase"], delimiter)
        corpus = sample_sentences(corpus, opt["sample_fraction"], opt["seed"])
        n_input_sentences = len(corpus.sentences)
        if guidance == "morphpretok-acontextual":
            training = presegment.presegment_acontextual(corpus, lexicon, delimiter)
            preseg_stats = training.stats
        else:
            training = corpus

    config_class = artifacts.CONFIG_CLASSES[args.algorithm]
    options = {name: opt[name] for name, _, _ in artifacts.config_fields(config_class)}
    # only presegmented training data carries delimiters
    options["morph_delimiter"] = delimiter if guidance in artifacts.PRETOK_MODES else None
    cfg = config_class(**options, seed_suffixes=tuple(suffixes) if suffixes else None)
    if args.algorithm == "wordpiece":
        vocab = wordpiece.wp_train(training, cfg)
        model = wordpiece.WordPieceTokenizer(vocab, cfg, guidance)
    else:
        vocab = ulm.ulm_train(training, cfg)
        model = ulm.UlmTokenizer(vocab, cfg, guidance)

    artifacts.save_tokenizer(model, args.output)

    manifest_path = args.manifest or f"{args.output}.manifest"
    lines = [
        f"artifact {args.output}",
        f"kind {args.algorithm}",
        f"guidance {guidance}",
        f"config_digest {artifacts.config_digest(model)}",
        f"corpus {corpus_path}",
        f"corpus_sha256 {_sha256(corpus_path)}",
        f"sentences {n_input_sentences}",
        f"words {training.n_words}",
        f"vocab_entries {len(vocab)}",
    ]
    for key in sorted(TRAIN_OPTIONS):
        lines.append(f"option_{key} {opt[key]}")
    if args.lexicon:
        lines.append(f"lexicon {args.lexicon}")
        lines.append(f"lexicon_sha256 {_sha256(args.lexicon)}")
    if args.suffixes:
        lines.append(f"suffixes {args.suffixes}")
        lines.append(f"suffixes_sha256 {_sha256(args.suffixes)}")
    if preseg_stats is not None:
        lines.extend(preseg_stats.to_kv().rstrip("\n").splitlines())
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"trained {args.algorithm} ({guidance}): {len(vocab)} entries -> {args.output}")
    return 0


def cmd_presegment(args) -> int:
    delimiter = args.morph_delimiter or DEFAULT_DELIMITER
    delimiter = _parse_option("morph_delimiter", delimiter, "--morph-delimiter")
    lexicon = _load_checked_lexicon(args.lexicon, delimiter)
    mapping = load_pos_mapping(args.pos_mapping) if args.pos_mapping else None
    if args.mode == "contextual":
        if not args.tagged_corpus:
            raise ValueError("contextual presegmentation requires --tagged-corpus")
        tagged = load_tagged_corpus(args.tagged_corpus, args.lowercase, delimiter)
        result = presegment.presegment_contextual(tagged, lexicon, mapping, delimiter)
    else:
        if not args.corpus:
            raise ValueError("acontextual presegmentation requires --corpus")
        corpus = load_corpus(args.corpus, args.lowercase, delimiter)
        result = presegment.presegment_acontextual(corpus, lexicon, delimiter)

    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8", newline="\n")
    try:
        for sentence in result.sentences:
            out.write(" ".join(sentence) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.stats_output:
        with open(args.stats_output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(result.stats.to_kv())
    else:
        print(result.stats.format_text(), file=sys.stderr, end="")
    return 0


def cmd_encode(args) -> int:
    model = artifacts.load_tokenizer(args.artifact)
    lexicon = None
    if args.lexicon:
        lexicon = load_lexicon(args.lexicon, model.config.morph_delimiter or DEFAULT_DELIMITER)
    mapping = load_pos_mapping(args.pos_mapping) if args.pos_mapping else None
    encoder = artifacts.word_encoder(model, lexicon, mapping, on_warning=_warn)

    delimiter = model.config.morph_delimiter or DEFAULT_DELIMITER
    if args.tagged:
        tagged = load_tagged_corpus(args.input, args.lowercase, delimiter)
        sentences = tagged.sentences
    elif args.input == "-":
        sentences = []
        for line in sys.stdin:
            words = line.split()
            if words:
                if args.lowercase:
                    words = [w.lower() for w in words]
                sentences.append([(escape_delimiter(w, delimiter), None) for w in words])
    else:
        corpus = load_corpus(args.input, args.lowercase, delimiter)
        sentences = [[(w, None) for w in s] for s in corpus.sentences]

    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8", newline="\n")
    try:
        for sentence in sentences:
            per_word = []
            for word, pos in sentence:
                pieces = encoder(word, pos)
                if args.strip_markers:
                    text = unescape_delimiter("".join(normalize_pieces(pieces)), delimiter)
                    per_word.append([text])
                else:
                    per_word.append([unescape_delimiter(p, delimiter) for p in pieces])
            if args.granularity == "word":
                for pieces in per_word:
                    out.write(" ".join(pieces) + "\n")
            else:
                out.write(" ".join(p for pieces in per_word for p in pieces) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_evaluate(args) -> int:
    gold = load_gold_set(args.gold)
    if gold.rejected:
        _warn(f"gold set: skipped {len(gold.rejected)} malformed rows")
    mapping = load_pos_mapping(args.pos_mapping) if args.pos_mapping else None

    reports = []
    names = set()
    for path in args.artifact:
        model = artifacts.load_tokenizer(path)
        lexicon = None
        if args.lexicon:
            lexicon = load_lexicon(args.lexicon, model.config.morph_delimiter or DEFAULT_DELIMITER)
        encoder = artifacts.word_encoder(model, lexicon, mapping, on_warning=_warn)
        name = f"{artifacts.model_kind(model)}-{model.guidance}"
        if name in names:
            name = f"{name}:{path}"
        names.add(name)
        reports.append(
            evaluation.evaluate(
                encoder,
                gold,
                mode=args.mode,
                name=name,
                piece_overlap=args.piece_overlap,
            )
        )

    if args.format == "kv":
        text = "\n".join(r.to_kv() for r in reports)
    else:
        text = evaluation.format_comparison(reports, extended=args.extended)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphtok",
        description="Morphologically guided subword tokenization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a tokenizer and write an artifact")
    p_train.add_argument("--algorithm", required=True, choices=["wordpiece", "ulm"])
    p_train.add_argument(
        "--guidance",
        default="baseline",
        choices=list(artifacts.GUIDANCE_MODES),
    )
    p_train.add_argument("--corpus", help="raw training corpus, one sentence per line")
    p_train.add_argument("--tagged-corpus", help="word<TAB>UD_POS corpus (contextual guidance)")
    p_train.add_argument("--lexicon", help="morphological lexicon TSV")
    p_train.add_argument("--suffixes", help="suffix list for morphseed guidance")
    p_train.add_argument("--pos-mapping", help="override UD-to-analyzer POS mapping TSV")
    p_train.add_argument("--config", help="flat key/value config file; flags override it")
    p_train.add_argument("--output", required=True, help="artifact path to write")
    p_train.add_argument("--manifest", help="run manifest path (default: <output>.manifest)")
    for key, (parse, default) in TRAIN_OPTIONS.items():
        # values are parsed with the config file's, so errors read alike
        action = argparse.BooleanOptionalAction if parse is _parse_bool else "store"
        p_train.add_argument(_flag(key), action=action, default=None, help=f"default: {default}")
    p_train.set_defaults(func=cmd_train)

    p_preseg = sub.add_parser("presegment", help="write a morpheme-delimited corpus")
    p_preseg.add_argument("--mode", required=True, choices=["acontextual", "contextual"])
    p_preseg.add_argument("--corpus")
    p_preseg.add_argument("--tagged-corpus")
    p_preseg.add_argument("--lexicon", required=True)
    p_preseg.add_argument("--pos-mapping")
    p_preseg.add_argument("--morph-delimiter", default=None)
    p_preseg.add_argument("--lowercase", action="store_true")
    p_preseg.add_argument("--output", default="-")
    p_preseg.add_argument("--stats-output", help="write machine-readable stats here")
    p_preseg.set_defaults(func=cmd_presegment)

    p_enc = sub.add_parser("encode", help="encode text with a trained artifact")
    p_enc.add_argument("--artifact", required=True)
    p_enc.add_argument("--input", default="-", help="corpus file or - for stdin")
    p_enc.add_argument("--tagged", action="store_true", help="input is word<TAB>UD_POS")
    p_enc.add_argument("--lexicon", help="lexicon for encode-time presegmentation")
    p_enc.add_argument("--pos-mapping")
    p_enc.add_argument("--granularity", choices=["sentence", "word"], default="sentence")
    p_enc.add_argument("--strip-markers", action="store_true", help="reconstruct words instead")
    p_enc.add_argument("--lowercase", action="store_true")
    p_enc.add_argument("--output", default="-")
    p_enc.set_defaults(func=cmd_encode)

    p_eval = sub.add_parser("evaluate", help="score artifacts against a gold set")
    p_eval.add_argument("--artifact", action="append", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--mode", choices=["acontextual", "contextual"], default="acontextual")
    p_eval.add_argument("--lexicon")
    p_eval.add_argument("--pos-mapping")
    p_eval.add_argument("--format", choices=["table", "kv"], default="table")
    p_eval.add_argument("--extended", action="store_true", help="include boundary metrics")
    p_eval.add_argument("--piece-overlap", action="store_true", help="piece multiset overlap instead of boundaries")
    p_eval.add_argument("--output", default="-")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LoaderError, FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
