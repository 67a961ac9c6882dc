"""Function wrapping for the benchmark: patches, probes and the span tracer.

Every wrapper is installed on the attribute a caller looks the function up
by (``protocol.secagg_sum`` for the call inside ``embed_round``, for
example), so the program itself is not modified. Spans stay in memory and
are written out once, when the run ends.
"""

import functools
import time
from collections import Counter, defaultdict

from twmark import attacks, experiments, keysetup, protocol, verify
from twmark.field import FieldVector, FixedPointCodec


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        orig = getattr(owner, attr)
        wrapper = functools.wraps(orig)(make_wrapper(orig))
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def undo(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _count_secagg(counters, args, kwargs, result):
    session = args[1] if len(args) > 1 else kwargs["session"]
    n = len(session.participants)
    pairs = n * (n - 1) // 2
    counters["secagg.pair_masks"] += pairs
    counters["secagg.mask_bytes"] += pairs * session.d * 8


def _count_embed(counters, args, kwargs, result):
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    counters["protocol.rounds_skipped"] += 0 if plan.embed else 1


def _count_dkg(counters, args, kwargs, result):
    counters["keysetup.dkg_messages"] += result.overhead.messages
    counters["keysetup.dkg_payload_bytes"] += result.overhead.payload_bytes


def _count_checkpoints(counters, args, kwargs, result):
    counters["attacks.checkpoints"] += len(result)


def _attack_span(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return f"attacks.{kind}"


# (owner, attribute, span name or name function, counter hook)
TRACE_TARGETS = [
    (protocol, "secagg_sum", "secagg.secagg_sum", _count_secagg),
    (protocol, "secagg_scalar", "secagg.secagg_scalar", _count_secagg),
    (verify, "secagg_scalar", "secagg.secagg_scalar", _count_secagg),
    (experiments, "run_baseline", "protocol.run_baseline", None),
    (protocol, "embed_round", "protocol.embed_round", _count_embed),
    (experiments, "gen_dataset", "flsim.gen_dataset", None),
    (protocol, "local_train", "flsim.local_train", None),
    (experiments, "local_train", "flsim.local_train", None),
    (attacks, "forward_backward", "flsim.forward_backward", None),
    (experiments, "evaluate", "flsim.evaluate", None),
    (FixedPointCodec, "encode", "field.encode", None),
    (FixedPointCodec, "decode_centered", "field.decode", None),
    (FieldVector, "inner", "field.inner", None),
    (keysetup, "shamir_share", "sharing.shamir_share", None),
    (protocol, "lagrange_at_zero", "sharing.lagrange_at_zero", None),
    (verify, "lagrange_at_zero", "sharing.lagrange_at_zero", None),
    (experiments, "setup_dkg", "keysetup.setup_dkg", _count_dkg),
    (experiments, "setup_trusted_dealer", "keysetup.setup_trusted_dealer", None),
    (experiments, "save_share", "keysetup.save_share", None),
    (experiments, "load_share", "keysetup.load_share", None),
    (experiments, "partial_inner", "verify.partial_inner", None),
    (experiments, "coalition_statistic", "verify.coalition_statistic", None),
    (experiments, "calibrate", "verify.calibrate", None),
    (experiments, "run_attack_job", _attack_span, _count_checkpoints),
    (experiments, "run_plain_fedavg", "experiments.run_plain_fedavg", None),
    (experiments, "save_trajectory", "experiments.save_trajectory", None),
    (experiments, "write_csv", "experiments.write_csv", None),
    (experiments, "load_run", "experiments.load_run", None),
]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, phase.

    ``phase`` labels the setup repetition or timed job the span belongs
    to, so per-layer totals and counters can be compared across them.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase]
        self.counters = defaultdict(Counter)   # phase -> counter name -> n
        self.missing = sorted({f"{getattr(owner, '__name__', owner)}.{attr}"
                               for owner, attr, _, _ in TRACE_TARGETS
                               if not hasattr(owner, attr)})
        self.phase = None
        self._stack = []
        self._patches = Patches()

    def install(self, phase: str):
        self.phase = phase
        for owner, attr, name, hook in TRACE_TARGETS:
            # a target the program no longer has is listed in the run record
            if hasattr(owner, attr):
                self._patches.wrap(owner, attr, self._wrapper(name, hook))

    def uninstall(self):
        self._patches.undo()
        self.phase = None

    def _wrapper(self, name, hook):
        def make(orig):
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                parent = self._stack[-1] if self._stack else -1
                rec = [label, time.perf_counter(), None, parent, self.phase]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    self._stack.pop()
                counters = self.counters[self.phase]
                counters[f"{label}.calls"] += 1
                if hook is not None:
                    hook(counters, args, kwargs, result)
                return result
            return traced
        return make

    def self_times(self) -> dict:
        """phase -> span name -> self time in seconds.

        A span's self time is its duration minus the durations of its
        direct children, which never overlap in this single-threaded run.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(Counter)
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            out[phase][name] += (end - start) - child[i]
        return out
