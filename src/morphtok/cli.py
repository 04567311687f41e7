"""Command line interface: presegment, train, encode, evaluate.

Exit codes: 0 on success, 2 for input or configuration errors, 3 for
internal failures.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from . import artifacts, evaluation, presegment, ulm, wordpiece
from .corpus import (
    DEFAULT_DELIMITER,
    ENCODE_MEMO_CAP,
    ENCODE_MEMO_CHARS,
    check_sample_fraction,
    corpus_sentences,
    decode_lines,
    iter_lines,
    load_corpus,
    load_gold_set,
    load_lexicon,
    load_pos_mapping,
    load_suffixes,
    load_tagged_corpus,
    sample_sentences,
    tagged_sentences,
    unescape_delimiter,
)
from .errors import LoaderError
from .evaluation import normalize_pieces
from .presegment import ACONTEXTUAL, CONTEXTUAL


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


# the train options a trainer config cannot declare: name -> (parser, default).
# The corpus pass reads all four; `seed` seeds the sentence sampling, and the
# delimiter reaches the trainer config only with presegmented training data.
CORPUS_OPTIONS = {
    "morph_delimiter": (str, DEFAULT_DELIMITER),
    "sample_fraction": (lambda text: check_sample_fraction(float(text)), 1.0),
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


# the input files read for each presegmentation of artifacts.GUIDANCE_MODES,
# its corpus first; training with morphseed guidance also reads the suffixes,
# and encode and evaluate read only the lexicon and mapping an artifact's mode names
MODE_INPUTS = {None: ("corpus",), ACONTEXTUAL: ("corpus", "lexicon"),
               CONTEXTUAL: ("tagged_corpus", "lexicon", "pos_mapping")}


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
        value = TRAIN_OPTIONS[key][0](text)
        for config_class in artifacts.CONFIG_CLASSES.values():
            if key in config_class.__dataclass_fields__:  # its __post_init__ judges the value
                config_class(**{key: value})
    except ValueError as exc:
        raise LoaderError(f"{where}: bad value for {key!r}: {exc}") from None
    return value


def _load_config_file(path) -> dict:
    values = {}
    for lineno, line in iter_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in TRAIN_OPTIONS:
            raise LoaderError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:  # vocab_size and vocab-size alike
            raise LoaderError(f"{path}:{lineno}: repeated config key {key!r}")
        values[key] = _parse_option(key, value, f"{path}:{lineno}")
    return values


def _resolve_options(args) -> tuple[dict, set]:
    """Each train option from its flag, else the config file, else its
    default; and the names of the options a flag or the file gave."""
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
    given = file_values.keys() | {key for key in TRAIN_OPTIONS if getattr(args, key) is not None}
    return resolved, given


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_checked_lexicon(path, delimiter: str, source: str = "--morph-delimiter"):
    """Load a lexicon; fail when no row is usable or the malformed rows
    outnumber the usable ones (as with a wrong delimiter), else warn about
    any skipped rows. `source` names where the delimiter came from."""
    lexicon = load_lexicon(path, delimiter)
    rejected = lexicon.rejected
    if not len(lexicon):
        raise LoaderError(f"{path}: no usable lexicon rows ({len(rejected)} malformed)")
    usable = sum(len(analyses) for analyses in lexicon.entries.values())
    if len(rejected) > usable:
        raise LoaderError(
            f"{path}: {len(rejected)} of {len(rejected) + usable} lexicon rows are malformed, "
            f"the first at {rejected[0]}; does {source} {delimiter!r} "
            "match the lexicon's segmentations?"
        )
    if rejected:
        _warn(f"lexicon: skipped {len(rejected)} malformed rows")
    return lexicon


def _warn_unread(args, reads, setting: str) -> None:
    """Warn about each input file given that `setting` does not read."""
    for name in ("corpus", "tagged_corpus", "lexicon", "pos_mapping", "suffixes"):
        if getattr(args, name, None) and name not in reads:
            _warn(f"{_flag(name)} is ignored with {setting}")


def _presegmented_input(args, mode, lexicon, mapping, delimiter, lowercase, fraction=1.0, seed=0):
    """Load the corpus `mode` reads (``--tagged-corpus`` for contextual
    presegmentation, else ``--corpus``), sample it and presegment it; mode
    None leaves it as it is. Returns ``(path, sentences sampled, corpus)``."""
    name = MODE_INPUTS[mode][0]
    path = getattr(args, name)
    if not path:
        raise ValueError(f"{_flag(name)} is required" + (f" for {mode} presegmentation" if mode else ""))
    load = load_tagged_corpus if mode == CONTEXTUAL else load_corpus
    corpus = sample_sentences(load(path, lowercase, delimiter), fraction, seed)
    if mode == CONTEXTUAL:
        result = presegment.presegment_contextual(corpus, lexicon, mapping, delimiter)
    elif mode == ACONTEXTUAL:
        result = presegment.presegment_acontextual(corpus, lexicon, delimiter)
    else:
        result = corpus
    return path, len(corpus.sentences), result


def cmd_train(args) -> int:
    opt, given = _resolve_options(args)
    config_class = artifacts.CONFIG_CLASSES[args.algorithm]
    own = {name for name, _, _ in artifacts.config_fields(config_class)} | CORPUS_OPTIONS.keys()
    for key in sorted(given - own):  # the other trainer's options; the manifest still records them
        _warn(f"{_flag(key)} is ignored with --algorithm {args.algorithm}")
    guidance = args.guidance
    mode = artifacts.GUIDANCE_MODES[guidance]
    reads = MODE_INPUTS[mode] + ("suffixes",) * (guidance == "morphseed")
    for name in ("lexicon", "suffixes"):
        if name in reads and not getattr(args, name):
            raise ValueError(f"guidance {guidance!r} requires {_flag(name)}")
    _warn_unread(args, reads, f"guidance {guidance!r}")
    # an artifact without presegmentation records no delimiter: "@" escapes text (artifacts.text_delimiter)
    delimiter = opt["morph_delimiter"] if mode else DEFAULT_DELIMITER
    if delimiter != opt["morph_delimiter"]:
        _warn(f"--morph-delimiter is ignored with guidance {guidance!r}")

    lexicon = _load_checked_lexicon(args.lexicon, delimiter) if "lexicon" in reads else None
    mapping = load_pos_mapping(args.pos_mapping) if args.pos_mapping and "pos_mapping" in reads else None
    suffixes = load_suffixes(args.suffixes, opt["lowercase"], delimiter) if "suffixes" in reads else ()
    if "suffixes" in reads and not suffixes:  # else morphseed trains the baseline under its name
        raise LoaderError(f"{args.suffixes}: no suffix, only blank or comment lines")

    corpus_path, n_input_sentences, training = _presegmented_input(
        args, mode, lexicon, mapping, delimiter, opt["lowercase"], opt["sample_fraction"], opt["seed"]
    )

    options = {name: opt[name] for name, _, _ in artifacts.config_fields(config_class)}
    # only presegmented training data carries delimiters
    options["morph_delimiter"] = delimiter if mode else None
    cfg = config_class(**options)
    if args.algorithm == "wordpiece":
        vocab = wordpiece.wp_train(training, cfg, seed_suffixes=suffixes)
        model = wordpiece.WordPieceTokenizer(vocab, cfg, guidance)
    else:
        vocab = ulm.ulm_train(training, cfg, seed_suffixes=suffixes)
        model = ulm.UlmTokenizer(vocab, cfg, guidance)

    if len(vocab) < cfg.vocab_size:
        _warn(f"vocabulary has {len(vocab)} entries, fewer than the {cfg.vocab_size} asked for")
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
    if lexicon is not None:
        lines.append(f"lexicon {args.lexicon}")
        lines.append(f"lexicon_sha256 {_sha256(args.lexicon)}")
    if "suffixes" in reads:
        lines.append(f"suffixes {args.suffixes}")
        lines.append(f"suffixes_sha256 {_sha256(args.suffixes)}")
    if mode:
        lines.extend(training.stats.to_kv().rstrip("\n").splitlines())
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"trained {args.algorithm} ({guidance}): {len(vocab)} entries -> {args.output}")
    return 0


def cmd_presegment(args) -> int:
    delimiter = _parse_option("morph_delimiter", args.morph_delimiter, "--morph-delimiter")
    lexicon = _load_checked_lexicon(args.lexicon, delimiter)
    reads = MODE_INPUTS[args.mode]
    mapping = load_pos_mapping(args.pos_mapping) if args.pos_mapping and "pos_mapping" in reads else None
    _warn_unread(args, reads, f"mode {args.mode!r}")
    _, _, result = _presegmented_input(args, args.mode, lexicon, mapping, delimiter, args.lowercase)

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


def _artifact_lexicon(path, model, loaded: dict):
    """The lexicon at `path`, read with the delimiter `model` presegments
    with; `loaded` keeps one per delimiter."""
    delimiter = artifacts.text_delimiter(model)
    if delimiter not in loaded:
        source = "the artifact's" if model.config.morph_delimiter else "the default"
        loaded[delimiter] = _load_checked_lexicon(path, delimiter, f"{source} morph delimiter")
    return loaded[delimiter]


def cmd_encode(args) -> int:
    model = artifacts.load_tokenizer(args.artifact)
    reads = MODE_INPUTS[artifacts.GUIDANCE_MODES[model.guidance]]
    _warn_unread(args, reads, f"guidance {model.guidance!r}")
    lexicon = _artifact_lexicon(args.lexicon, model, {}) if args.lexicon and "lexicon" in reads else None
    mapping = load_pos_mapping(args.pos_mapping) if args.pos_mapping and "pos_mapping" in reads else None
    encoder = artifacts.word_encoder(model, lexicon, mapping, on_warning=_warn)

    delimiter = artifacts.text_delimiter(model)
    streaming = args.input == "-"
    source = "<stdin>" if streaming else args.input
    if streaming:  # one line at a time, decoded as strictly as a file
        lines = decode_lines((raw.rstrip(b"\n") for raw in sys.stdin.buffer), source)
    else:
        lines = iter_lines(source)
    # a token is a (word, tag) pair of tagged input, else the word itself
    if args.tagged:  # a blank line ends each sentence
        sentences = tagged_sentences(lines, source, args.lowercase, delimiter)
    else:
        sentences = corpus_sentences(lines, args.lowercase, delimiter)

    # a token's output text depends only on the token; every word yields at
    # least one piece, so a line is its words' texts joined with spaces
    memo: dict[str | tuple[str, str], str] = {}
    held = 0  # characters in the memo's words and texts

    def render(token) -> str:
        nonlocal held
        text = memo.get(token)
        if text is None:
            pieces = encoder(*token) if args.tagged else encoder(token)
            if args.strip_markers:
                pieces = ["".join(normalize_pieces(pieces))]
            # the joining spaces neither form nor split an escaped delimiter
            text = unescape_delimiter(" ".join(pieces), delimiter)
            size = len(token[0] if args.tagged else token) + len(text)
            if len(memo) < ENCODE_MEMO_CAP and held + size <= ENCODE_MEMO_CHARS:
                memo[token] = text
                held += size
        return text

    separator = "\n" if args.granularity == "word" else " "
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8", newline="\n")
    try:
        for sentence in sentences:
            out.write(separator.join([render(token) for token in sentence]) + "\n")
            if streaming:
                out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_evaluate(args) -> int:
    gold = load_gold_set(args.gold)
    if gold.rejected:
        _warn(f"gold set: skipped {len(gold.rejected)} malformed rows")

    reports = []
    names = set()
    lexicons: dict = {}  # delimiter -> lexicon
    mapping = None
    for path in args.artifact:
        model = artifacts.load_tokenizer(path)
        reads = MODE_INPUTS[artifacts.GUIDANCE_MODES[model.guidance]]
        lexicon = _artifact_lexicon(args.lexicon, model, lexicons) if args.lexicon and "lexicon" in reads else None
        if mapping is None and args.pos_mapping and "pos_mapping" in reads:
            mapping = load_pos_mapping(args.pos_mapping)
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
    p_train.add_argument("--algorithm", required=True, choices=list(artifacts.CONFIG_CLASSES))
    p_train.add_argument("--guidance", default="baseline", choices=list(artifacts.GUIDANCE_MODES))
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
    p_preseg.add_argument("--mode", required=True, choices=(ACONTEXTUAL, CONTEXTUAL))
    p_preseg.add_argument("--corpus")
    p_preseg.add_argument("--tagged-corpus")
    p_preseg.add_argument("--lexicon", required=True)
    p_preseg.add_argument("--pos-mapping")
    p_preseg.add_argument("--morph-delimiter", default=DEFAULT_DELIMITER)
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
    p_eval.add_argument("--mode", choices=(ACONTEXTUAL, CONTEXTUAL), default=ACONTEXTUAL)
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
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`encode | head -1`): stop quietly, with
        # stdout on devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
