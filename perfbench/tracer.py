"""Span recorder for the traced benchmark run.

`Tracer.install` wraps public functions of the marble modules at the
place their callers look them up: a module attribute, or `Tape.backward`
on its class. Each call then records one span (name, start, end, parent
span, optional attributes) in memory. `uninstall` puts the original
functions back. Nothing in the package itself is modified, so untraced
rounds in the same process run the unpatched code.

`layer_metrics` turns the spans into the per-layer metrics declared in
BENCHMARK.json. A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# Each target: (module, attribute path, span name, attribute recorder).
# The recorder gets (tracer, args, result) after the call and returns a
# tuple kept on the span; None records nothing.


def _grad_mode(tracer, args, result):
    from marble.numerics import active_tape
    return (active_tape() is not None,)


def _scan_shape(tracer, args, result):
    """Grad mode and (T, E, N); keeps the first grad-mode inputs seen per
    length T for `scan_backward_us_per_token`."""
    from marble.numerics import active_tape
    grad = active_tape() is not None
    t_len, e_dim = args[0].shape
    if grad and t_len not in tracer.scan_inputs:
        tracer.scan_inputs[t_len] = tuple(t.data.copy() for t in args)
    return (grad, t_len, e_dim, args[2].shape[1])


def _tape_nodes(tracer, args, result):
    return (len(args[0].nodes),)


def _tokens_kept(tracer, args, result):
    return (sum(args[0].token_counts()), sum(result.token_counts()))


def _cox_pairs(tracer, args, result):
    records = args[0].records
    return (sum(1 for r in records if r.event), len(records))


def _file_bytes(tracer, args, result):
    return (os.path.getsize(args[0]),)


TARGETS = (
    ("marble.trainer", "train", "trainer.train", None),
    ("marble.trainer", "evaluate", "trainer.evaluate", None),
    ("marble.trainer", "adamw_step", "trainer.adamw_step", None),
    ("marble.trainer", "clip_gradients", "trainer.clip_gradients", None),
    ("marble.trainer", "coarse_branch_drop", "pyramid.coarse_branch_drop",
     _tokens_kept),
    ("marble.trainer", "shuffle_within_levels",
     "pyramid.shuffle_within_levels", None),
    ("marble.trainer", "encode_slide", "network.encode_slide", _grad_mode),
    ("marble.trainer", "cross_entropy", "metrics.cross_entropy", None),
    ("marble.trainer", "cox_loss", "metrics.cox_loss", _cox_pairs),
    ("marble.trainer", "auc_binary", "metrics.auc_binary", None),
    ("marble.trainer", "c_index", "metrics.c_index", None),
    ("marble.network", "ssm_block_forward", "ssmcore.ssm_block_forward", None),
    ("marble.ssmcore", "selective_scan", "ssmcore.selective_scan", _scan_shape),
    ("marble.numerics", "Tape.backward", "numerics.backward", _tape_nodes),
    ("marble.bagdata", "read_bag", "bagdata.read_bag", _file_bytes),
    ("marble.bagdata", "load_manifest", "bagdata.load_manifest", None),
)

# span fields
NAME, START, END, PARENT, ATTRS = range(5)


class TraceTargetMissing(RuntimeError):
    """A wrapped function no longer exists where the tracer expects it."""


class Tracer:
    """In-memory span recorder that patches `targets` while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # first grad-mode selective_scan inputs per sequence length T
        self.scan_inputs: dict[int, tuple] = {}

    def install(self) -> None:
        resolved = []
        for module_name, attr_path, span_name, recorder in self.targets:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            try:
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                raise TraceTargetMissing(
                    f"trace target {module_name}.{attr_path} does not exist"
                ) from None
            resolved.append((owner, attr, original, span_name, recorder))
        for owner, attr, original, span_name, recorder in resolved:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, recorder))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span_name, recorder):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if recorder is not None:
                span[ATTRS] = recorder(self, args, result)
            return result

        return wrapper


def scan_backward_us_per_token(scan_inputs: dict[int, tuple],
                               repeats: int = 3) -> float:
    """Replay selective_scan on captured inputs under a Tape and time
    only `backward`; median over `repeats` per length, per token. Call it
    with the tracer uninstalled so the replay itself is not traced."""
    from marble import numerics as nm
    from marble.ssmcore import selective_scan

    total_s = 0.0
    tokens = 0
    for t_len, arrays in sorted(scan_inputs.items()):
        times = []
        for _ in range(repeats):
            tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
            with nm.Tape() as tape:
                loss = nm.tsum(selective_scan(*tensors))
                start = time.perf_counter()
                tape.backward(loss)
                times.append(time.perf_counter() - start)
            del tape, loss, tensors
        times.sort()
        total_s += times[len(times) // 2]
        tokens += t_len
    return 1e6 * total_s / tokens


class _Spans:
    """Index over a span list: self times and lookups by name."""

    def __init__(self, spans):
        self.spans = spans
        self.child_s = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            if span[PARENT] >= 0:
                self.child_s[span[PARENT]] += span[END] - span[START]
            self.by_name.setdefault(span[NAME], []).append(i)

    def ids(self, name):
        return self.by_name.get(name, [])

    def dur(self, i):
        return self.spans[i][END] - self.spans[i][START]

    def self_s(self, i):
        return self.dur(i) - self.child_s[i]

    def attrs(self, i):
        return self.spans[i][ATTRS]

    def per_call_ms(self, name):
        """Mean self time per call in ms; 0.0 when never called."""
        ids = self.ids(name)
        return 1e3 * sum(self.self_s(i) for i in ids) / len(ids) if ids else 0.0


def layer_metrics(spans: list[list], scan_bwd_us: float) -> tuple[dict, dict]:
    """Per-layer metrics and exact counts from a traced run's spans.

    Returns (metrics, counts): metrics maps the per_layer names of
    BENCHMARK.json (except the trace.overhead_* pair, which needs the
    untraced rounds) to values; counts holds the exact counts that repeat
    for a given seed and code.
    """
    ix = _Spans(spans)
    trains = ix.ids("trainer.train")
    if not trains:
        raise ValueError("no traced train() call to summarize")
    encodes = ix.ids("network.encode_slide")
    grad_encodes = [i for i in encodes if ix.attrs(i) and ix.attrs(i)[0]]
    scans = [i for i in ix.ids("ssmcore.selective_scan") if ix.attrs(i)]
    train_scans = [i for i in scans if ix.attrs(i)[0]]
    eval_scans = [i for i in scans if not ix.attrs(i)[0]]
    backwards = [i for i in ix.ids("numerics.backward") if ix.attrs(i)]
    drops = [i for i in ix.ids("pyramid.coarse_branch_drop") if ix.attrs(i)]
    reads = [i for i in ix.ids("bagdata.read_bag") if ix.attrs(i)]
    train_set = set(trains)
    validations = [i for i in ix.ids("trainer.evaluate")
                   if ix.spans[i][PARENT] in train_set]

    def us_per_token(ids):
        tokens = sum(ix.attrs(i)[1] for i in ids)
        return 1e6 * sum(ix.self_s(i) for i in ids) / tokens if tokens else 0.0

    def per_slide_ms(name):
        return 1e3 * sum(ix.self_s(i) for i in ix.ids(name)) / len(encodes)

    state_bytes = sum(8 * t * e * n for _, t, e, n in
                      (ix.attrs(i) for i in train_scans))
    tape_nodes = sum(ix.attrs(i)[0] for i in backwards)
    train_wall = sum(ix.dur(i) for i in trains)
    metrics = {
        "numerics.backward_ms": ix.per_call_ms("numerics.backward"),
        "numerics.tape_nodes_per_slide": tape_nodes / len(grad_encodes),
        "ssmcore.scan_fwd_eval_us_per_token": us_per_token(eval_scans),
        "ssmcore.scan_fwd_train_us_per_token": us_per_token(train_scans),
        "ssmcore.scan_bwd_us_per_token": scan_bwd_us,
        "ssmcore.block_self_ms": per_slide_ms("ssmcore.ssm_block_forward"),
        "ssmcore.state_bytes_per_slide": state_bytes / len(grad_encodes),
        "network.encode_self_ms": per_slide_ms("network.encode_slide"),
        "pyramid.drop_ms": ix.per_call_ms("pyramid.coarse_branch_drop"),
        "pyramid.shuffle_ms": ix.per_call_ms("pyramid.shuffle_within_levels"),
        "pyramid.tokens_kept_frac": (sum(ix.attrs(i)[1] for i in drops)
                                     / sum(ix.attrs(i)[0] for i in drops)
                                     if drops else 1.0),
        "metrics.cox_loss_ms": ix.per_call_ms("metrics.cox_loss"),
        "metrics.c_index_ms": ix.per_call_ms("metrics.c_index"),
        "metrics.cross_entropy_ms": ix.per_call_ms("metrics.cross_entropy"),
        "metrics.auc_ms": ix.per_call_ms("metrics.auc_binary"),
        "trainer.adamw_ms": ix.per_call_ms("trainer.adamw_step"),
        "trainer.clip_ms": ix.per_call_ms("trainer.clip_gradients"),
        "trainer.steps": len(ix.ids("trainer.adamw_step")) / len(trains),
        "trainer.validate_s": sum(ix.dur(i) for i in validations) / len(trains),
        "bagdata.read_bag_ms": ix.per_call_ms("bagdata.read_bag"),
        "bagdata.bytes_read": float(sum(ix.attrs(i)[0] for i in reads)),
        "bagdata.load_manifest_ms": ix.per_call_ms("bagdata.load_manifest"),
        "trace.train_coverage_frac": sum(ix.child_s[i] for i in trains) / train_wall,
    }

    def levels(ids):
        return sorted({ix.attrs(i)[1] for i in ids})

    counts = {
        "tape_nodes_per_backward": sorted({ix.attrs(i)[0] for i in backwards}),
        "slides_per_backward": len(grad_encodes) / max(len(backwards), 1),
        "scan_tokens_per_level_train": levels(train_scans),
        "scan_tokens_per_level_eval": levels(eval_scans),
        "state_bytes_per_slide": state_bytes / len(grad_encodes),
        "cox_events_x_cohort": sorted({a[0] * a[1] for a in
                                       (ix.attrs(i) for i in ix.ids("metrics.cox_loss"))
                                       if a}),
        "optimizer_steps_per_train": len(ix.ids("trainer.adamw_step")) / len(trains),
        "bag_bytes_read": sum(ix.attrs(i)[0] for i in reads),
    }
    return metrics, counts
