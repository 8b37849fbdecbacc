###############################################################################
#
#  Command-line front door.
#
#  Subcommands:
#    count    exact avoider counts, by oracle / formula / gf / all
#    avoid    containment verdict with a witness subset
#    verify   corpus property checks for each executable map
#    table    avoider-count table over all patterns of [k]   (csv or json)
#    classes  empirical Wilf classes and conjecture evidence (json or csv)
#
#  Exit codes: 0 ok, 2 parse error or bad range, 3 method unavailable,
#  4 cross-method disagreement, 5 verification failure.
#  Machine output goes to stdout, diagnostics to stderr.
#
###############################################################################

import json
import os
import random
import sys
from itertools import islice
from types import SimpleNamespace

from .avoidance import (
    _beta_in_block,
    avoids,
    contains,
    containment_witness,
    count_avoiders,
    iter_avoiders,
)
from .bijections import (
    BijectionError,
    decode_14_2_3,
    decode_1_24_3,
    encode_14_2_3,
    encode_1_24_3,
    generate_14_23_core,
    has_forbidden_pair,
    iter_abc_words,
    iter_r_words,
    phi_134_2,
    phi_134_2_inverse,
    phi_a,
    phi_a_inverse,
    psi_sigma_beta,
    R_to_rgf,
    rgf_to_R,
    slide,
    two_block_gamma,
    two_block_varphi,
    two_block_varphi_inverse,
    _unslide,
)
from .core import (
    SetPartition,
    iter_partitions,
    iter_rgf_words,
    punctured_block_pattern,
    single_block_pattern,
    singletons_pattern,
)
from .enumeration import closed_count
from .wilf import build_table, default_horizon, wilf_classes


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _parse_pattern(text):
    try:
        return SetPartition.parse(text)
    except ValueError as exc:  # PartitionError is one
        _fail(2, f"cannot parse pattern {text!r}: {exc}")


# =========================================================================
# count
# =========================================================================

def cmd_count(args):
    if args.shards < 1:
        _fail(2, f"need --shards >= 1, got {args.shards}")
    tau = _parse_pattern(args.pattern)
    if args.n < 1:
        _fail(2, "need --n >= 1")
    values = []
    if args.method in ("oracle", "all"):
        values.append(count_avoiders(args.n, tau))
    for method, what in (("formula", "formula"), ("gf", "generating function")):
        if args.method not in (method, "all"):
            continue
        value = closed_count(tau, args.n, method)
        if value is not None:
            values.append(value)
        elif args.method == method:
            _fail(3, f"no {what} for pattern {args.pattern!r}")
    if args.method == "all":
        verdict = "AGREE" if len(set(values)) == 1 else "DISAGREE"
        print(" ".join(str(v) for v in values), verdict)
        if verdict == "DISAGREE":
            raise SystemExit(4)
    else:
        print(values[0])
    return 0


# =========================================================================
# avoid
# =========================================================================

def cmd_avoid(args):
    sigma = _parse_pattern(args.sigma)
    tau = _parse_pattern(args.tau)
    witness = containment_witness(sigma, tau)
    if witness is None:
        print("AVOIDS")
    else:
        print("CONTAINS")
        print("S =", " ".join(str(x) for x in witness))
    return 0


# =========================================================================
# verify
# =========================================================================

# [kept, held]: the items verify's corpora kept and the items they held,
# summed since cmd_verify last reset it
_coverage = [0, 0]


def _sample(items, seed, cap=20000):
    """The items as a list, in their order when there are at most cap of
    them; otherwise a uniform sample of cap of them, drawn by a reservoir
    (Algorithm R) that never holds more than cap; and the number of items
    seen, which exceeds the list's length when sampled.  Both sizes are
    added to _coverage."""
    items = iter(items)
    pool = list(islice(items, cap))
    rng = random.Random(seed)
    seen = len(pool)
    for seen, item in enumerate(items, start=cap + 1):
        j = rng.randrange(seen)
        if j < cap:
            pool[j] = item
    if seen > len(pool):
        print(f"note: sampled {cap} of the corpus", file=sys.stderr)
    _coverage[0] += len(pool)
    _coverage[1] += seen
    return pool, seen


def _replay(src, forward, back=None, image_ok=None):
    """Replay forward over the list src; the first failure as text, or None.
    Each image must pass image_ok(input, image), lead back to its input
    through back, and differ from the image of every other input; a map
    that raises BijectionError fails too."""
    images = set()
    for x in src:
        try:
            y = forward(x)
            if image_ok is not None and not image_ok(x, y):
                return f"image check failed: {x} -> {y}"
            if back is not None and (z := back(y)) != x:
                return f"round trip broke: {x} -> {y} -> {z}"
        except BijectionError as exc:
            return f"{type(exc).__name__} at {x}: {exc}"
        images.add(y)
    if len(images) != len(src):
        return f"not injective: {len(images)} images of {len(src)} inputs"
    return None


def _verify_slide(k, n, seed):
    if k < 3:  # a runs over 2..k-1
        _fail(2, f"need --k >= 3 for slide, got k={k}")
    for a in range(2, k):
        pool, _ = _sample(iter_avoiders(n, punctured_block_pattern(k, a + 1)), seed)
        by_block = {}  # block index i -> the pi whose i-th block slides
        for pi in pool:
            for i, block in enumerate(pi.blocks, start=1):
                if len(block) >= k - 1 and _beta_in_block(block, k, a, n):
                    by_block.setdefault(i, []).append(pi)
        for i, src in by_block.items():
            problem = _replay(
                src, lambda pi: slide(pi, i, k, a), lambda out: _unslide(out, i, k, a),
                lambda pi, out: len(out.blocks[i - 1]) == len(pi.blocks[i - 1]))
            if problem:
                return f"a={a} i={i}: {problem}"
    return None


def _verify_phi_a(k, n, seed):
    if k < 3:  # a runs over 2..k-1
        _fail(2, f"need --k >= 3 for phi_a, got k={k}")
    for a in range(2, k):
        lo = punctured_block_pattern(k, a)
        src, seen = _sample(iter_avoiders(n, punctured_block_pattern(k, a + 1)), seed)
        problem = _replay(src, lambda pi: phi_a(pi, k, a),
                          lambda out: phi_a_inverse(out, k, a),
                          lambda pi, out: avoids(out, lo))
        if problem:
            return f"a={a}: {problem}"
        if a < k - 1 and seen == len(src) and len(src) != count_avoiders(n, lo):
            return f"not surjective at a={a} n={n}"
    return None


def _verify_two_block(k, n, seed):
    if n <= k:  # the gamma witness has the element k + 1
        _fail(2, f"need --n > --k for two_block, got n={n}, k={k}")
    beta = single_block_pattern(k)
    src, _ = _sample((p for p in iter_partitions(n) if contains(p, beta)), seed)
    for sigma in iter_partitions(k):
        if len(sigma.blocks) != 2:
            continue
        # gamma lies outside the image; the inverse checks that each image
        # contains sigma
        gamma = two_block_gamma(sigma, n) if len(sigma.blocks[1]) + 1 < k else None
        problem = _replay(src, lambda pi: two_block_varphi(pi, sigma),
                          lambda out: two_block_varphi_inverse(out, sigma),
                          lambda pi, out: out != gamma)
        if problem:
            return f"sigma={sigma}: {problem}"
    return None


def _verify_psi(k, n, seed):
    beta = single_block_pattern(k)
    src, _ = _sample(iter_avoiders(n, singletons_pattern(k)), seed)
    return _replay(src, lambda pi: psi_sigma_beta(pi, k), image_ok=lambda pi, out: (
        avoids(out, beta) and not has_forbidden_pair(out, k)))


def _verify_words(n, seed, words, enc, dec, pattern):
    words, seen = _sample(words, seed)
    pat = SetPartition.parse(pattern)
    problem = _replay(words, enc, dec, lambda w, p: avoids(p, pat))
    if problem:
        return problem
    expected = count_avoiders(n, pat)
    if seen != expected:
        return f"count mismatch: {seen} words vs {expected} avoiders"
    return None


def _verify_rgf_R(k, n, seed):
    rgfs = list(iter_rgf_words(n, max_letter=k - 1))
    rws = {tuple(v) for v in iter_r_words(n, k)}
    if len(rgfs) != len(rws):
        return f"set sizes differ: {len(rgfs)} vs {len(rws)}"
    return _replay(rgfs, lambda w: rgf_to_R(w, k), R_to_rgf,
                   lambda w, v: tuple(v) in rws)


def _verify_core(k, n, seed):
    if n < 2:  # the core starts at the doubleton 12
        _fail(2, f"need --n >= 2 for core_14_23, got n={n}")
    core = {c.partition for c in generate_14_23_core(n)}
    oracle = {p for p in iter_avoiders(n, SetPartition.parse("14/23"))
              if not p.singletons()}
    if core != oracle:
        extra = core - oracle
        missing = oracle - core
        return f"set mismatch: extra={extra} missing={missing}"
    return None


def _verify_phi_134_2(k, n, seed):
    pool, _ = _sample(iter_avoiders(n, SetPartition.parse("134/2")), seed)
    src = [pi for pi in pool if len(pi.blocks) < pi.n]  # phi_134_2 needs a block of two
    return _replay(src, phi_134_2, lambda image: phi_134_2_inverse(*image))


VERIFY = {
    # map -> (check(k, n, seed), default k, default n); k None: the map has none.
    # The checks name their maps inside functions and lambdas, so a map is
    # looked up in this module when its check runs, and a wrapper rebound over
    # a module global later is called.
    "slide": (_verify_slide, 5, 7),
    "phi_a": (_verify_phi_a, 5, 7),
    "two_block": (_verify_two_block, 4, 7),
    "psi": (_verify_psi, 4, 8),
    "words_14_2_3": (lambda k, n, seed: _verify_words(
        n, seed, iter_abc_words(n, star=True), encode_14_2_3, decode_14_2_3, "14/2/3"),
        None, 8),
    "words_1_24_3": (lambda k, n, seed: _verify_words(
        n, seed, iter_abc_words(n, doublestar=True), encode_1_24_3, decode_1_24_3, "1/24/3"),
        None, 8),
    "rgf_R": (_verify_rgf_R, 4, 8),
    "core_14_23": (_verify_core, None, 8),
    "phi_134_2": (_verify_phi_134_2, None, 7),
}


def cmd_verify(args):
    name = args.map
    check, dflt_k, dflt_n = VERIFY[name]
    if dflt_k is None and args.k is not None:
        _fail(2, f"--map {name} takes no --k")
    k = dflt_k if args.k is None else args.k
    n = dflt_n if args.n is None else args.n
    if n < 1 or (k is not None and k < 2):
        _fail(2, f"need --n >= 1 and --k >= 2, got n={n}, k={k}")
    _coverage[:] = [0, 0]
    problem = check(k, n, args.seed)
    if problem:
        print(f"fail: {name}: {problem}")
        raise SystemExit(5)
    where = f"n={n}" if k is None else f"k={k}, n={n}"
    kept, held = _coverage
    cover = "exhaustive" if kept == held else f"sampled {kept} of {held}"
    print(f"pass: {name} ({where}, {cover})")
    return 0


# =========================================================================
# table / classes: all four renderings of a CountTable and a WilfReport
# =========================================================================

def _table(args):
    """The CountTable of --k up to --n-max, or up to k's default horizon
    when --n-max is not given."""
    n_max = default_horizon(args.k) if args.n_max is None else args.n_max
    if args.k < 2 or n_max <= args.k:
        _fail(2, "need --k >= 2 and --n-max > --k")
    return build_table(args.k, n_max)


def cmd_table(args):
    table = _table(args)
    rows = sorted(table.rows.items())
    if args.fmt == "json":
        print(json.dumps({"k": table.k, "n_max": table.n_max,
                          "rows": {t: list(r) for t, r in rows}},
                         indent=2))
    else:
        lines = ["pattern,n,count"]
        for text, row in rows:
            for n, c in zip(table.ns(), row):
                lines.append(f"{text},{n},{c}")
        print("\n".join(lines))
    return 0


def cmd_classes(args):
    report = wilf_classes(_table(args))
    if args.fmt == "csv":
        lines = ["class,pattern,status"]
        for idx, cls in enumerate(report.classes):
            for m in cls["members"]:
                lines.append(f"{idx},{m},{cls['status']}")
        print("\n".join(lines))
    else:
        print(json.dumps(report._asdict(), indent=2))
    return 0


# =========================================================================
# argument wiring
# =========================================================================

def _table_flags(fmt):
    """The flags of table and classes, whose --format defaults to fmt."""
    return [
        (("--k",), {"type": int, "required": True}),
        (("--n-max",), {"type": int, "dest": "n_max", "default": None}),
        (("--format",), {"choices": ["csv", "json"], "default": fmt, "dest": "fmt"}),
    ]


# name -> (help, arguments, handler); each argument is (flags, keywords) for
# add_argument.  Each handler looks its cmd_ function up by name at call
# time, so a wrapper rebound over a module global later is called.
COMMANDS = {
    "count": ("count avoiders of a pattern", [
        (("--pattern",), {"required": True,
                          "help": "partition text, e.g. '1 3/2' or '13/2'"}),
        (("--n",), {"type": int, "required": True}),
        (("--method",), {"choices": ["oracle", "formula", "gf", "all"],
                         "default": "oracle"}),
        # no effect; kept only because perfbench/run.py's traced pass sends it
        (("--shards",), {"type": int, "default": 1}),
    ], lambda args: cmd_count(args)),
    "avoid": ("containment verdict", [
        (("--sigma",), {"required": True, "help": "host partition text"}),
        (("--tau",), {"required": True, "help": "pattern text"}),
    ], lambda args: cmd_avoid(args)),
    "verify": ("run a map's property suite", [
        (("--map",), {"required": True, "choices": sorted(VERIFY)}),
        (("--k",), {"type": int, "default": None}),
        (("--n",), {"type": int, "default": None}),
        (("--seed",), {"type": int, "default": 0}),
    ], lambda args: cmd_verify(args)),
    "table": ("avoider table over all patterns of [k]", _table_flags("csv"),
              lambda args: cmd_table(args)),
    "classes": ("empirical Wilf classes", _table_flags("json"),
                lambda args: cmd_classes(args)),
}


def _parse_plain(argv):
    """The namespace argparse would build from argv, read off COMMANDS, when
    argv is plain: a subcommand name, then known --flag value pairs, each
    flag at most once and every required flag among them, and each value
    passing its flag's type and choices without starting with '-'.  Any
    other argv gives None."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, arguments, run = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv):  # a flag given twice
        return None
    args = SimpleNamespace(subcommand=argv[0], run=run)
    for (flag,), keywords in arguments:
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        value = given.pop(flag, None)
        if value is None:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        elif value.startswith("-"):
            return None
        else:
            try:
                value = keywords.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            if value not in keywords.get("choices", (value,)):
                return None
        setattr(args, dest, value)
    return None if given else args  # anything left is no flag of the subcommand


def _build_parser():
    """The parser of every subcommand."""
    import argparse  # only here, so a plain argv never loads it

    top = argparse.ArgumentParser(
        prog="partavoid",
        description="Exact pattern-avoidance counting for set partitions.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, arguments, run) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(run=run)
    return top


def _silence_stdout():
    # what is still buffered goes to devnull, so the interpreter's final
    # flush cannot raise BrokenPipeError a second time
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):    # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a plain argv (see _parse_plain) is parsed off COMMANDS and never loads
    # argparse; argparse parses any other argv, so it alone prints usage,
    # help and every parse error.
    args = _parse_plain(argv)
    try:
        try:
            if args is None:
                args = _build_parser().parse_args(argv)
            return args.run(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        _fail(2, "output closed by the reader (broken pipe)")


if __name__ == "__main__":
    raise SystemExit(main())
