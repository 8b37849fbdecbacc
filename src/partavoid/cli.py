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

import argparse
import json
import os
import random
import sys
from functools import partial

from .avoidance import (
    avoids,
    block_contains_beta_ambient,
    contains,
    containment_witness,
    count_avoiders,
    iter_avoiders,
)
from .bijections import (
    decode_14_2_3,
    decode_1_24_3,
    encode_14_2_3,
    encode_1_24_3,
    generate_14_23_core,
    has_forbidden_pair,
    iter_abc_words,
    iter_r_words,
    KZero,
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
    PartitionError,
    SetPartition,
    iter_partitions,
    iter_rgf_words,
    punctured_block_pattern,
    single_block_pattern,
    singletons_pattern,
)
from .enumeration import closed_count
from .wilf import build_table, default_horizon, wilf_classes

ENV_SHARDS = "PARTAVOID_SHARDS"


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _parse_pattern(text):
    try:
        return SetPartition.parse(text)
    except (PartitionError, ValueError) as exc:
        _fail(2, f"cannot parse pattern {text!r}: {exc}")


def _default_shards():
    raw = os.environ.get(ENV_SHARDS) or "1"
    try:
        shards = int(raw)
    except ValueError:
        shards = 0
    if shards < 1:
        _fail(2, f"{ENV_SHARDS} must be a positive integer, got {raw!r}")
    return shards


# =========================================================================
# count
# =========================================================================

def cmd_count(args):
    tau = _parse_pattern(args.pattern)
    if args.n < 1:
        _fail(2, "need --n >= 1")
    values = []
    if args.method in ("oracle", "all"):
        values.append(count_avoiders(args.n, tau, shards=args.shards))
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

def _sample(pool, seed, cap=20000):
    """The pool, subsampled when huge, in which case the second return value
    flags the loss of exhaustiveness."""
    if len(pool) > cap:
        rng = random.Random(seed)
        pool = rng.sample(pool, cap)
        print(f"note: sampled {cap} of the corpus", file=sys.stderr)
        return pool, True
    return pool, False


def _corpus(n, tau, seed):
    """The partitions of [n] that avoid tau, from the pruned walk."""
    return _sample(list(iter_avoiders(n, tau)), seed)


def _verify_slide(k, n, seed):
    for a in range(2, k):
        pool, _ = _corpus(n, punctured_block_pattern(k, a + 1), seed)
        for pi in pool:
            for i in range(1, len(pi.blocks) + 1):
                if not block_contains_beta_ambient(pi.blocks[i - 1], k, a, n):
                    continue
                out = slide(pi, i, k, a)
                if _unslide(out, i, k, a) != pi:
                    return f"slide round trip broke at a={a} pi={pi} i={i}"
                if len(out.blocks[i - 1]) != len(pi.blocks[i - 1]):
                    return f"slide changed block size at a={a} pi={pi} i={i}"
    return None


def _verify_phi_a(k, n, seed):
    for a in range(2, k):
        lo = punctured_block_pattern(k, a)
        src, sampled = _corpus(n, punctured_block_pattern(k, a + 1), seed)
        images = set()
        for pi in src:
            out = phi_a(pi, k, a)
            if not avoids(out, lo):
                return f"phi_a image contains target at a={a} pi={pi}"
            if phi_a_inverse(out, k, a) != pi:
                return f"phi_a inverse mismatch at a={a} pi={pi}"
            images.add(out)
        if len(images) != len(src):
            return f"phi_a not injective at a={a} n={n}"
        if a < k - 1 and not sampled and len(images) != count_avoiders(n, lo):
            return f"phi_a not surjective at a={a} n={n}"
    return None


def _verify_two_block(k, n, seed):
    if n <= k:  # the gamma witness has the element k + 1
        _fail(2, f"need --n > --k for two_block, got n={n}, k={k}")
    beta = single_block_pattern(k)
    src, _ = _sample([p for p in iter_partitions(n) if contains(p, beta)], seed)
    for sigma in iter_partitions(k):
        if len(sigma.blocks) != 2:
            continue
        images = set()
        for pi in src:
            out = two_block_varphi(pi, sigma)
            if not contains(out, sigma):
                return f"image avoids sigma={sigma} pi={pi}"
            if two_block_varphi_inverse(out, sigma) != pi:
                return f"inverse mismatch sigma={sigma} pi={pi}"
            images.add(out)
        if len(images) != len(src):
            return f"not injective for sigma={sigma} n={n}"
        if len(sigma.blocks[1]) + 1 < k and two_block_gamma(sigma, n) in images:
            return f"gamma witness inside image for sigma={sigma} n={n}"
    return None


def _verify_psi(k, n, seed):
    beta = single_block_pattern(k)
    src, _ = _corpus(n, singletons_pattern(k), seed)
    images = set()
    for pi in src:
        out = psi_sigma_beta(pi, k)
        if not avoids(out, beta):
            return f"psi image contains block pattern: pi={pi} out={out}"
        if has_forbidden_pair(out, k):
            return f"psi image has the forbidden pair: pi={pi} out={out}"
        images.add(out)
    if len(images) != len(src):
        return f"psi not injective at k={k} n={n}"
    return None


def _verify_words(variant, k, n, seed):
    if variant == "14_2_3":
        words = list(iter_abc_words(n, star=True))
        enc, dec = encode_14_2_3, decode_14_2_3
        pat = SetPartition.parse("14/2/3")
    else:
        words = list(iter_abc_words(n, doublestar=True))
        enc, dec = encode_1_24_3, decode_1_24_3
        pat = SetPartition.parse("1/24/3")
    seen = set()
    for w in words:
        p = enc(w)
        if not avoids(p, pat):
            return f"encoded partition contains the pattern: {w} -> {p}"
        if dec(p) != w:
            return f"decode mismatch: {w} -> {p} -> {dec(p)}"
        seen.add(p)
    expected = count_avoiders(n, pat)
    if len(seen) != len(words) or len(words) != expected:
        return f"count mismatch: {len(words)} words vs {expected} avoiders"
    return None


def _verify_rgf_R(k, n, seed):
    rgfs = list(iter_rgf_words(n, max_letter=k - 1))
    rws = {tuple(v) for v in iter_r_words(n, k)}
    if len(rgfs) != len(rws):
        return f"set sizes differ: {len(rgfs)} vs {len(rws)}"
    for w in rgfs:
        v = rgf_to_R(w, k)
        if tuple(v) not in rws:
            return f"image outside the word set: {w} -> {v}"
        if R_to_rgf(v) != w:
            return f"round trip broke: {w} -> {v} -> {R_to_rgf(v)}"
    return None


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
    pool, _ = _corpus(n, SetPartition.parse("134/2"), seed)
    for pi in pool:
        try:
            lam, skel = phi_134_2(pi)
        except KZero:
            continue
        if phi_134_2_inverse(lam, skel) != pi:
            return f"round trip broke: {pi}"
    return None


VERIFY = {
    # map -> (check(k, n, seed), default k, default n); k None: the map has none
    "slide": (_verify_slide, 5, 7),
    "phi_a": (_verify_phi_a, 5, 7),
    "two_block": (_verify_two_block, 4, 7),
    "psi": (_verify_psi, 4, 8),
    "words_14_2_3": (partial(_verify_words, "14_2_3"), None, 8),
    "words_1_24_3": (partial(_verify_words, "1_24_3"), None, 8),
    "rgf_R": (_verify_rgf_R, 4, 8),
    "core_14_23": (_verify_core, None, 8),
    "phi_134_2": (_verify_phi_134_2, None, 7),
}


def cmd_verify(args):
    name = args.map
    check, dflt_k, dflt_n = VERIFY[name]
    k = dflt_k if args.k is None else args.k
    n = dflt_n if args.n is None else args.n
    if n < 1 or (k is not None and k < 2):
        _fail(2, f"need --n >= 1 and --k >= 2, got n={n}, k={k}")
    problem = check(k, n, args.seed)
    if problem:
        print(f"fail: {name}: {problem}")
        raise SystemExit(5)
    where = f"n={n}" if k is None else f"k={k}, n={n}"
    print(f"pass: {name} ({where})")
    return 0


# =========================================================================
# table / classes
# =========================================================================

def cmd_table(args):
    if args.k < 2 or args.n_max <= args.k:
        _fail(2, "need --k >= 2 and --n-max > --k")
    table = build_table(args.k, args.n_max, shards=args.shards)
    if args.fmt == "json":
        print(json.dumps({"k": table.k, "n_max": table.n_max,
                          "rows": {t: list(r) for t, r in sorted(table.rows.items())}},
                         indent=2))
    else:
        sys.stdout.write(table.to_csv())
    return 0


def cmd_classes(args):
    if args.k < 2 or args.n_max <= args.k:
        _fail(2, "need --k >= 2 and --n-max > --k")
    table = build_table(args.k, args.n_max, shards=args.shards)
    report = wilf_classes(table)
    if args.fmt == "csv":
        lines = ["class,pattern,status"]
        for idx, cls in enumerate(report.classes):
            for m in cls["members"]:
                lines.append(f"{idx},{m},{cls['status']}")
        print("\n".join(lines))
    else:
        print(report.to_json())
    return 0


# =========================================================================
# argument wiring
# =========================================================================

def _build_parser():
    top = argparse.ArgumentParser(
        prog="partavoid",
        description="Exact pattern-avoidance counting for set partitions.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="count avoiders of a pattern")
    p.add_argument("--pattern", required=True,
                   help="partition text, e.g. '1 3/2' or '13/2'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["oracle", "formula", "gf", "all"],
                   default="oracle")
    p.add_argument("--shards", type=int, default=None)
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("avoid", help="containment verdict")
    p.add_argument("--sigma", required=True, help="host partition text")
    p.add_argument("--tau", required=True, help="pattern text")
    p.set_defaults(run=cmd_avoid)

    p = sub.add_parser("verify", help="run a map's property suite")
    p.add_argument("--map", required=True, choices=sorted(VERIFY))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("table", help="avoider table over all patterns of [k]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, dest="n_max", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   dest="fmt")
    p.add_argument("--shards", type=int, default=None)
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("classes", help="empirical Wilf classes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, dest="n_max", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json",
                   dest="fmt")
    p.add_argument("--shards", type=int, default=None)
    p.set_defaults(run=cmd_classes)
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
    try:
        try:
            return _dispatch(_build_parser().parse_args(argv))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
        _fail(2, "output closed by the reader (broken pipe)")


def _dispatch(args):
    shards = getattr(args, "shards", 1)  # avoid and verify take no shards
    if shards is None:
        args.shards = _default_shards()
    elif shards < 1:
        _fail(2, f"need --shards >= 1, got {shards}")
    if getattr(args, "n_max", 0) is None:  # table and classes
        args.n_max = default_horizon(args.k)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
