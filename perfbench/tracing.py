"""Outside-in tracing of `useg`: spans recorded around its public functions.

`Tracer.install` replaces each function at the name its caller looks up
(for instance `useg.segnet.conv2d`, which `SegModel.forward` calls) with a
wrapper that records a span: name, start, end, parent span, the phase of
the benchmark it ran in, and an optional payload. The conv backward of
each layer is timed by wrapping the backward closure on the tensor that
`conv2d` returns. A target that no longer exists is recorded as absent.
Nothing in `useg` is edited; `uninstall` puts every original back.

Run as a script, it traces one `useg` CLI command in this process and
writes the spans to a JSON file when the command ends:

    python3 perfbench/tracing.py SPANS.json <useg command and options>
"""

from __future__ import annotations

import functools
import importlib
import json
import runpy
import sys
import time

TRAINING = ("trainer.train_teacher", "trainer.distill_incremental")
HEAD = "losses.head"
PERTURB = "uncertainty.perturb"
ENTROPY = "uncertainty.entropy"
NOGRAD = "segnet.nograd"
MODULES = ("useg.autodiff", "useg.phantom", "useg.segnet", "useg.losses",
           "useg.uncertainty", "useg.trainer", "useg.config")

# span index fields
NAME, T0, T1, PARENT, PHASE, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.absent = []
        self.tensors = 0
        self.conv_index = 0
        self._stack = []
        self._restore = []

    # -- recording -----------------------------------------------------------

    def open(self, name, extra=None) -> int:
        i = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self.phase, extra])
        self._stack.append(i)
        self.spans[i][T0] = time.perf_counter()
        return i

    def close(self, i):
        self.spans[i][T1] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, path, label, extra=None, after=None):
        """Trace `module.path` under `label` (a name, or a function of the
        call's arguments that returns one)."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        target = getattr(owner, attr, None)
        if target is None:
            self.absent.append(f"{module}.{path}")
            return
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            i = tracer.open(name, extra(args) if extra else None)
            try:
                out = target(*args, **kwargs)
            finally:
                tracer.close(i)
            if after:
                after(i, args, out)
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, target))

    def install(self):
        # import every module first: one that imports a name from another
        # after that name is wrapped would hold the wrapper and trace twice
        for module in MODULES:
            importlib.import_module(module)
        w = self.wrap
        w("useg.phantom", "generate_dataset", "phantom.generate")
        w("useg.phantom", "write_dataset", "phantom.write_dataset")
        w("useg.phantom", "load_dataset", "phantom.load_dataset")
        w("useg.segnet", "SegModel.forward", "segnet.forward", extra=self._reset_conv_index)
        w("useg.segnet", "conv2d", self._conv_name, after=self._conv_done)
        for module in ("useg.segnet", "useg.uncertainty"):
            w(module, "forward_batch_nograd", NOGRAD, extra=lambda a: len(a[1]))
        w("useg.segnet", "save", "segnet.save")
        w("useg.segnet", "load", "segnet.load")
        w("useg.trainer", "backward", "autodiff.backward")
        w("useg.losses", "softmax_channels", "losses.softmax")
        for fn in ("remap_old", "remap_new", "loss_old", "loss_new", "cross_entropy_hard"):
            w("useg.losses", fn, HEAD)
        w("useg.uncertainty", "uncertainty_map", "uncertainty.map")
        w("useg.uncertainty", "sample_perturbation", PERTURB)
        w("useg.uncertainty", "apply_perturbation", PERTURB)
        w("useg.uncertainty", "entropy_map", ENTROPY)
        w("useg.trainer", "Adam.step", "trainer.adam")
        w("useg.trainer", "predict_labels", "trainer.predict_labels")
        w("useg.trainer", "evaluate", "trainer.evaluate")
        for fn in ("train_teacher", "distill_incremental"):
            w("useg.trainer", fn, f"trainer.{fn}",
              extra=lambda a: self.tensors, after=self._tensors_made)
        self._count_tensors()

    def uninstall(self):
        for owner, attr, target in reversed(self._restore):
            setattr(owner, attr, target)
        self._restore.clear()

    # -- hooks ---------------------------------------------------------------

    def _reset_conv_index(self, args):
        self.conv_index = 0

    def _conv_name(self, args):
        self.conv_index += 1
        return f"autodiff.conv.l{self.conv_index - 1}.fwd"

    def _conv_done(self, i, args, out):
        """Record computed FLOPs and im2col bytes; time the backward closure."""
        x, kern = args[0], args[1]
        *lead, cin, h, w = x.shape
        cout, _, k, _ = kern.shape
        n = 1
        for d in lead:
            n *= d
        macs = n * cout * cin * k * k * h * w
        cols = n * cin * k * k * h * w * 8
        grads = int(bool(kern.requires_grad)) + int(bool(x.requires_grad))
        self.spans[i][EXTRA] = [2 * macs * (1 + grads), cols * (1 + int(bool(x.requires_grad)))]
        bwd = getattr(out, "_backward", None)
        if bwd is None:
            return
        name = self.spans[i][NAME][:-3] + "bwd"
        tracer = self

        def traced_bwd(t):
            j = tracer.open(name)
            try:
                bwd(t)
            finally:
                tracer.close(j)

        out._backward = traced_bwd

    def _tensors_made(self, i, args, out):
        self.spans[i][EXTRA] = self.tensors - self.spans[i][EXTRA]

    def _count_tensors(self):
        autodiff = importlib.import_module("useg.autodiff")
        init = autodiff.Tensor.__init__
        tracer = self

        @functools.wraps(init)
        def counted(*args, **kwargs):
            tracer.tensors += 1
            init(*args, **kwargs)

        autodiff.Tensor.__init__ = counted
        self._restore.append((autodiff.Tensor, "__init__", init))

    # -- output --------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"absent": self.absent, "spans": self.spans}, f)


def merge(tracer: Tracer, path, phase: str):
    """Append the spans a traced child process wrote, tagged with `phase`."""
    with open(path) as f:
        doc = json.load(f)
    base = len(tracer.spans)
    for s in doc["spans"]:
        s[PARENT] = s[PARENT] + base if s[PARENT] >= 0 else -1
        s[PHASE] = phase
        tracer.spans.append(s)
    tracer.absent = sorted(set(tracer.absent) | set(doc["absent"]))


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    own = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[T1] - s[T0]
    return own


def layer_metrics(tracer: Tracer, rounds: int, epochs_per_round: int,
                  cli_ms: dict) -> dict:
    """Per-layer metrics from the spans of `rounds` measured rounds.

    Times are in ms per optimizer step, per image or per call as named;
    counts are per round, so they repeat exactly between runs.
    """
    spans = tracer.spans
    own = self_times(spans)
    in_training = [False] * len(spans)
    perturb_entropy = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        in_training[i] = p >= 0 and (in_training[p] or spans[p][NAME] in TRAINING)
        if p >= 0 and s[NAME] in (PERTURB, ENTROPY):
            perturb_entropy[p] += s[T1] - s[T0]
    total: dict = {}
    calls: dict = {}
    extra: dict = {}
    for i, s in enumerate(spans):
        if not (s[PHASE] == "round" or (s[PHASE] == "setup" and s[NAME] == "phantom.generate")):
            continue
        key = s[NAME]
        if key in ("trainer.evaluate", "trainer.predict_labels", NOGRAD):
            key += ".training" if in_training[i] else ".heldout"
        total[key] = total.get(key, 0.0) + (s[T1] - s[T0])
        calls[key] = calls.get(key, 0) + 1
        if isinstance(s[EXTRA], (int, float)):
            extra[key] = extra.get(key, 0) + s[EXTRA]
        elif isinstance(s[EXTRA], list):
            acc = extra.setdefault(key, [0, 0])
            acc[0] += s[EXTRA][0]
            acc[1] += s[EXTRA][1]
        if key == "autodiff.backward":
            total["autodiff.backward.self"] = total.get("autodiff.backward.self", 0.0) + own[i]
        if key == "uncertainty.map":
            total["uncertainty.ensemble"] = (total.get("uncertainty.ensemble", 0.0)
                                             + (s[T1] - s[T0]) - perturb_entropy[i])

    def ms(key):
        return 1e3 * total.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_ms(key):
        return ratio(ms(key), calls.get(key, 0))

    steps = calls.get("trainer.adam", 0)
    maps = calls.get("uncertainty.map", 0)
    nograd_images = extra.get(NOGRAD + ".training", 0)
    conv = [0, 0]
    for layer in range(3):
        c = extra.get(f"autodiff.conv.l{layer}.fwd", [0, 0])
        conv[0] += c[0]
        conv[1] += c[1]
    tensors = sum(extra.get(name, 0) for name in TRAINING)
    m = {
        "phantom.generate_ms": mean_ms("phantom.generate"),
        "phantom.dataset_io_ms": mean_ms("phantom.write_dataset") + mean_ms("phantom.load_dataset"),
        "segnet.forward_ms_per_step": ratio(ms("segnet.forward"), steps),
        "segnet.nograd_calls": calls.get(NOGRAD + ".training", 0) / rounds,
        "segnet.nograd_images": nograd_images / rounds,
        "segnet.nograd_ms_per_image": ratio(ms(NOGRAD + ".training"), nograd_images),
        "segnet.weights_io_ms": mean_ms("segnet.save") + mean_ms("segnet.load"),
    }
    for layer in range(3):
        for way in ("fwd", "bwd"):
            name = f"autodiff.conv.l{layer}.{way}"
            m[f"{name}_ms_per_step"] = ratio(ms(name), steps)
    m.update({
        "autodiff.conv.gflop_per_step": ratio(conv[0], steps) / 1e9,
        "autodiff.conv.im2col_mb_per_step": ratio(conv[1], steps) / 1e6,
        "autodiff.backward_ms_per_step": ratio(ms("autodiff.backward"), steps),
        "autodiff.backward_other_ms_per_step": ratio(ms("autodiff.backward.self"), steps),
        "autodiff.nodes_per_step": ratio(tensors, steps),
        "losses.softmax_ms_per_step": ratio(ms("losses.softmax"), steps),
        "losses.head_ms_per_step": ratio(ms(HEAD), steps),
        "uncertainty.maps": maps / rounds,
        "uncertainty.map_ms_per_image": ratio(ms("uncertainty.map"), maps),
        "uncertainty.perturb_ms_per_image": ratio(ms(PERTURB), maps),
        "uncertainty.entropy_ms_per_image": ratio(ms(ENTROPY), maps),
        "uncertainty.ensemble_fwd_ms_per_image": ratio(ms("uncertainty.ensemble"), maps),
        "trainer.steps": steps / rounds,
        "trainer.adam_ms_per_step": ratio(ms("trainer.adam"), steps),
        "trainer.log_eval_ms_per_epoch": ratio(ms("trainer.predict_labels.training"),
                                               epochs_per_round * rounds),
        "trainer.evaluate_ms": mean_ms("trainer.evaluate.heldout"),
    })
    for cmd in ("generate", "train_teacher", "distill", "evaluate"):
        m[f"cli.{cmd}_ms"] = cli_ms.get(cmd, 0.0)
    return m


def attributed_share(tracer: Tracer, wall_s: float) -> float:
    """Share of the measured rounds' wall time that layer spans cover by
    self time, leaving out the self time of the top-level training and
    evaluation calls, which belongs to no layer."""
    own = self_times(tracer.spans)
    entry = TRAINING + ("trainer.evaluate",)
    covered = sum(t for s, t in zip(tracer.spans, own)
                  if s[PHASE] == "round" and not (s[NAME] in entry and s[PARENT] < 0))
    return covered / wall_s if wall_s else 0.0


def _trace_cli(spans_path, argv):
    tracer = Tracer()
    tracer.phase = "child"
    tracer.install()
    sys.argv = ["useg"] + argv
    try:
        runpy.run_module("useg.cli", run_name="__main__", alter_sys=True)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    _trace_cli(sys.argv[1], sys.argv[2:])
