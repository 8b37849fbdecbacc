"""Spans for the traced benchmark run, recorded around partavoid's public calls.

The child process calls ``Tracer().install()`` after it has imported
``partavoid.cli``.  Each target below is replaced, in every ``partavoid``
module namespace that binds it (``cli.containment_witness`` as well as
``avoidance.containment_witness``, and both ``__mul__`` and ``__rmul__`` of
``PowerSeries``), by a wrapper that appends one span to an in-memory list:

    [name id, parent span index, start, end, busy, items, flag]

``busy`` is ``end - start`` for a call.  A generator gets one span for its
whole life: ``busy`` sums the time spent inside it, ``items`` counts what it
yielded.  For ``PowerSeries`` multiplication, ``items`` is the number of
coefficient multiply-adds a schoolbook product of the operands' orders takes,
computed here from the operands, not counted by the program.  ``flag`` is 1
when ``containment_witness`` finds a witness, -1 when a call raised a
``BijectionError`` and -2 for any other exception.

The parent process turns the spans of each command into totals with
``summarize``.  Thin wrappers over a target (``avoids`` and ``contains``
call ``containment_witness``) are measured through that target.
"""

import functools
import inspect
import sys
import threading
import time

# (module, attribute, span name); "Class.attr" patches a class attribute
TARGETS = [
    ("partavoid.cli", "main", "cli.main"),
    ("partavoid.cli", "cmd_count", "cli.cmd_count"),
    ("partavoid.cli", "cmd_avoid", "cli.cmd_avoid"),
    ("partavoid.cli", "cmd_verify", "cli.cmd_verify"),
    ("partavoid.cli", "cmd_table", "cli.cmd_table"),
    ("partavoid.cli", "cmd_classes", "cli.cmd_classes"),
    ("partavoid.avoidance", "avoider_counts", "avoidance.avoider_counts"),
    ("partavoid.avoidance", "count_avoiders", "avoidance.count_avoiders"),
    ("partavoid.avoidance", "containment_witness", "avoidance.containment_witness"),
    ("partavoid.core", "iter_partitions", "core.iter_partitions"),
    ("partavoid.core", "iter_rgf_words", "core.iter_rgf_words"),
    ("partavoid.wilf", "build_table", "wilf.build_table"),
    ("partavoid.wilf", "wilf_classes", "wilf.wilf_classes"),
    ("partavoid.enumeration", "PowerSeries.__mul__", "enumeration.series.mul"),
    ("partavoid.enumeration", "PowerSeries.__rmul__", "enumeration.series.mul"),
    ("partavoid.enumeration", "PowerSeries.__truediv__", "enumeration.series.truediv"),
    ("partavoid.enumeration", "PowerSeries.sqrt", "enumeration.series.sqrt"),
    ("partavoid.enumeration", "PowerSeries.compose", "enumeration.series.compose"),
] + [
    ("partavoid.enumeration", f, "enumeration.gf." + f) for f in (
        "gf_coeffs_rational", "gf_coeffs_14_2_3", "gf_coeffs_1_24_3",
        "core_gf_14_23", "gf_coeffs_14_23", "gf_coeffs_13_24",
        "egf_crosscheck_beta_k", "egf_crosscheck_sigma_k")
] + [
    ("partavoid.enumeration", f, "enumeration.formula." + f) for f in (
        "count_beta_k", "count_sigma_k", "count_12_34", "count_12_3_4",
        "count_1_234", "count_134_2")
] + [
    ("partavoid.bijections", f, "bijections." + f) for f in (
        "slide", "phi_a", "phi_a_inverse", "two_block_varphi",
        "two_block_varphi_inverse", "two_block_gamma", "psi_sigma_beta",
        "has_forbidden_pair", "iter_abc_words", "encode_14_2_3",
        "decode_14_2_3", "encode_1_24_3", "decode_1_24_3", "iter_r_words",
        "rgf_to_R", "R_to_rgf", "generate_14_23_core", "phi_134_2",
        "phi_134_2_inverse")
]

NAME, PARENT, START, END, BUSY, ITEMS, FLAG = range(7)


class _Stack(threading.local):
    def __init__(self):
        self.items = []


class Tracer:
    """Records spans in memory for one command."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = _Stack()

    def install(self):
        """Wrap every target in every partavoid namespace that binds it."""
        from partavoid.bijections import BijectionError
        self._bijection_error = BijectionError
        modules = [m for k, m in list(sys.modules.items())
                   if k == "partavoid" or k.startswith("partavoid.")]
        wrapped = {}
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)  # AttributeError: target is gone
            if id(original) not in wrapped:
                wrapped[id(original)] = (original, self._wrap(original, name))
            wrapper = wrapped[id(original)][1]
            if cls_name:
                setattr(owner, attr, wrapper)
        for original, wrapper in wrapped.values():
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _new_span(self, name_id):
        stack = self._stack.items
        span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0, 0]
        self.spans.append(span)
        return span, len(self.spans) - 1, stack

    def _wrap(self, fn, name):
        self.names.append(name)
        name_id = len(self.names) - 1
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._generator(fn(*args, **kwargs), name_id)
            return gen_wrapper
        hit = name == "avoidance.containment_witness"
        coeff_ops = name == "enumeration.series.mul"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, index, stack = self._new_span(name_id)
            if coeff_ops:
                span[ITEMS] = _mul_coeff_ops(*args)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[FLAG] = -1 if isinstance(exc, self._bijection_error) else -2
                raise
            finally:
                end = clock()
                stack.pop()
                span[START], span[END], span[BUSY] = start, end, end - start
            if hit and result is not None:
                span[FLAG] = 1
            return result
        return wrapper

    def _generator(self, gen, name_id):
        clock = time.perf_counter
        span = None
        while True:
            start = clock()
            if span is None:
                span, index, stack = self._new_span(name_id)
                span[START] = start
            stack.append(index)
            try:
                item = next(gen)
            except StopIteration:
                return
            except BaseException as exc:
                span[FLAG] = -1 if isinstance(exc, self._bijection_error) else -2
                raise
            else:
                span[ITEMS] += 1
            finally:
                end = clock()
                stack.pop()
                span[END] = end
                span[BUSY] += end - start
            yield item


def _mul_coeff_ops(left, right):
    # N = min of the operand orders; scalars take the series' own order
    n = min(left.N, getattr(right, "N", left.N))
    return (n + 1) * (n + 2) // 2


def summarize(names, spans):
    """Per-name totals for one command's spans.

    ``calls``, ``items``, ``hits`` and ``errors`` count every span.  ``busy``
    sums only spans with no ancestor of the same name, so recursion is not
    counted twice; ``self`` sums each span's busy time minus its direct
    children's.
    """
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_busy[span[PARENT]] += span[BUSY]
    out = {}
    for i, span in enumerate(spans):
        name = names[span[NAME]]
        entry = out.setdefault(name, {"calls": 0, "items": 0, "busy": 0.0,
                                      "self": 0.0, "hits": 0, "errors": 0})
        entry["calls"] += 1
        entry["items"] += span[ITEMS]
        entry["self"] += span[BUSY] - child_busy[i]
        entry["hits"] += span[FLAG] == 1
        entry["errors"] += span[FLAG] == -1
        if not _nested(names, spans, i, name.__eq__):
            entry["busy"] += span[BUSY]
    return out


def outer_busy(names, spans, prefix):
    """Busy time of the spans whose name starts with prefix, not counting a
    span nested inside another such span."""
    def match(name):
        return name.startswith(prefix)
    return sum(span[BUSY] for i, span in enumerate(spans)
               if match(names[span[NAME]]) and not _nested(names, spans, i, match))


def _nested(names, spans, i, match):
    """True when an ancestor of span i has a name that match accepts."""
    j = spans[i][PARENT]
    while j >= 0:
        if match(names[spans[j][NAME]]):
            return True
        j = spans[j][PARENT]
    return False
