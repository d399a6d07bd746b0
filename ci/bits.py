"""Every output of a fixed set of featprior commands, as one listing.

Run from the root of a checkout; the featprior in that checkout's src/
runs every command, through its own ``featprior.cli.main``:

    python ci/bits.py > listing.txt

The commands write their configs and outputs to a temporary directory,
WORK.  The listing goes to stdout and the commands' own prints to
stderr.  Two checkouts that list the same lines wrote the same bytes.  To
check a change against its base, run this one script in both checkouts
and diff the two listings; this script may use only names that both
trees have.  Two runs in one checkout must list the same lines: CI diffs
two runs at the head on every push and pull request, then, on a pull
request, the base's listing against the head's.

The commands:

- ``reference``: compare on the checkout's configs/reference.json, and
  ``reference-naive``, the same config with the plan's mode set to naive
  (the table's rows come from compare, not from that mode).
- ``experts-narrow`` and ``experts-wide``: teachers a and b, their
  feature caches, a two-expert distill and evaluate on the student.
  "narrow" runs at batch 16, where every factor is a lone 16 x 16 leaf:
  teacher a puts two terms on student layer 1, which then share that
  layer's half of the KL; layer 0 (20 wide) takes the n x n student
  branch, layer 1 the p x p one.  "wide" runs at batch 40: it factors
  lone 40 x 40 and stacked 2 x 40 x 40 Grams through the block recursion,
  runs the stacked dense teachers, takes a stacked 2 x 40 x 24 and a lone
  25 x 24 basis QR, and a 12 x 12 p x p student matrix.
- ``modes``: one teacher with two hidden layers, so its cache holds groups
  0 and 1 and the logits as group 2, and a distill from it in each mode.
  two_phase and joint map student layer 0 to group 1, the logit baselines
  read group 2, and no mode reads group 0.  45 training rows make two
  batches of 16, built as one stack, and a lone tail batch of 13.
  "frozen1" maps layer 1 instead, so phase 2 carries the gradient through
  a layer whose weights it leaves alone.  "sgd" and "sgd0" step through
  sgd_step at momentum 0.9 and 0.0; SGD takes the KL gradient unscaled,
  and at this KL (thousands of nats) phase 1 needs a step of 1e-5.
  "naive" reads no cache.  "stale" is a two_phase distill from the
  teacher's features over the dataset drawn with another seed, which must
  be refused: its lines are the exit code and whether the message says
  "different dataset".
- ``bench``: every workload of the head checkout's perfbench/workloads.py
  (the checkout holding this script; imported, not written to) at seed 1,
  full size: the batch-256 QR and expert shapes the cases above are too
  small to reach.

The lines:

- ``<case> kl <phase> <epoch> <repr>`` and ``<case> final_kl <repr>``
  for every distill, read from the ``RunResult`` that
  ``cli.run_distillation`` returns (a logit baseline's KL is its
  soft-target or logit L2 term);
- ``<case> model <i> <sha256>`` for every model compare scores, in scoring
  order, taken from ``train.evaluate``, and ``<case> phase1_kl <row>
  <repr>`` for each two_phase row, from ``ComparisonResult.phase1_kl``;
- ``<case> exit <code>`` and ``<case> different dataset <bool>`` for the
  refused distill;
- ``<path> <sha256>`` for every file written under WORK/out.

Model files are float32 and the CSVs print 6 decimals, so a change in the
last bits of a fit can leave every file as it was; the KL reprs and the
model digests show it.

A case is its output directory under WORK/out.  Each checkout trains its
own teachers, so where their sha256 lines match, the distill lines compare
distill code on identical inputs.  A distill or compare whose result was
not captured (an entry point renamed, say) fails the run, naming the case.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TREE = Path.cwd()
HEAD = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave both checkouts as they are
sys.path.insert(0, str(TREE / "src"))

import featprior  # noqa: E402
from featprior import cli, network, train  # noqa: E402

# Small blob datasets: the expert and mode cases share this dataset and
# plan, and differ in rows, batch and architectures.
BLOBS = {"kind": "synth_blobs", "classes": 3, "dim": 8, "separation": 4.0, "seed": 3}
PLAN = {"seed": 2, "batch_size": 16, "phase1_epochs": 3, "phase2_epochs": 2,
        "lr_phase1": 0.01, "lr_phase2": 0.01}
TEACHER_PLAN = {"phase1_epochs": 0, "phase2_epochs": 5}

# case -> rows per class, batch, student hidden, teacher a hidden, teacher b
# hidden (tanh), a's mapping, b's mapping (alpha 0.5)
EXPERTS = {
    "narrow": (30, 16, [20, 6], [16, 16], [8], [[1, 0], [1, 1]], [[0, 0]]),
    "wide": (70, 40, [48, 12], [64, 64], [24], [[0, 0], [1, 1]], [[1, 0]]),
}

KINDS = {"distill": "RunResult", "compare": "ComparisonResult"}


class Listing:
    """Runs commands in ``work`` and prints their lines.  It wraps
    ``cli.run_distillation`` and ``cli.compare_methods`` to keep what they
    return, and ``train.evaluate`` to hash each model it scores."""

    def __init__(self, work: Path):
        self.configs, self.out = work / "configs", work / "out"
        self.returned, self.scored = [], []
        cli.run_distillation = self._capturing(cli.run_distillation)
        cli.compare_methods = self._capturing(cli.compare_methods)
        evaluate = train.evaluate

        def hashing(model, *args, **kwargs):
            self.scored.append(hashlib.sha256(network.serialize_model(model)).hexdigest())
            return evaluate(model, *args, **kwargs)
        train.evaluate = hashing

    def _capturing(self, entry):
        def wrapped(*args, **kwargs):
            self.returned.append(entry(*args, **kwargs))
            return self.returned[-1]
        return wrapped

    def config(self, name: str, body: dict) -> Path:
        path = self.configs / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body, indent=1) + "\n")
        return path

    def _main(self, argv) -> tuple[str, int]:
        argv = [str(a) for a in argv]
        case = Path(argv[argv.index("--out") + 1]).relative_to(self.out).as_posix()
        self.returned.clear()
        self.scored.clear()
        with contextlib.redirect_stdout(sys.stderr):
            return case, cli.main(argv)

    def run(self, *argv) -> None:
        """``featprior *argv``, which must succeed; lists the KLs of the
        RunResult or ComparisonResult it returned."""
        case, status = self._main(argv)
        command = argv[0]
        if status != 0:
            sys.exit(f"{case}: featprior {command} exited {status}")
        returned = self.returned
        if command in KINDS and len(returned) != 1:
            sys.exit(f"{case}: captured {len(returned)} {KINDS[command]}s from "
                     f"featprior {command}, not one")
        if command == "distill":
            for row in returned[0].log:
                print(case, "kl", row.phase, row.epoch, repr(row.kl_loss))
            print(case, "final_kl", repr(returned[0].final_kl))
        elif command == "compare":
            for i, digest in enumerate(self.scored):
                print(case, "model", i, digest)
            for label, kl in returned[0].phase1_kl.items():
                print(case, "phase1_kl", label, repr(kl))

    def refused(self, *argv) -> None:
        """``featprior *argv``, which the base refuses: lists its exit code
        and whether its message names a different dataset."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            case, status = self._main(argv)
        sys.stderr.write(err.getvalue())
        print(case, "exit", status)
        print(case, "different dataset", "different dataset" in err.getvalue())

    def files(self) -> None:
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(path.relative_to(self.out).as_posix(), digest)


def reference(ls: Listing) -> None:
    ls.run("compare", "--config", TREE / "configs" / "reference.json",
           "--out", ls.out / "reference")
    body = json.loads((TREE / "configs" / "reference.json").read_text())
    body["plan"]["mode"] = "naive"
    ls.run("compare", "--config", ls.config("reference-naive", body),
           "--out", ls.out / "reference-naive")


def experts(ls: Listing) -> None:
    for case, (rows, batch, student, a, b, map_a, map_b) in EXPERTS.items():
        x = ls.out / f"experts-{case}"
        common = {"dataset": dict(BLOBS, n_per_class=rows), "test_fraction": 0.5,
                  "student": {"hidden": student},
                  "plan": dict(PLAN, batch_size=batch), "teacher_plan": TEACHER_PLAN}
        teachers = {"a": {"hidden": a}, "b": {"hidden": b, "activation": "tanh"}}
        for t, arch in teachers.items():
            cfg = ls.config(f"experts-{case}/{t}", dict(common, teacher=arch))
            ls.run("train-teacher", "--config", cfg, "--out", x / t)
            ls.run("extract-features", "--config", cfg, "--out", x / t)
        cfg = ls.config(f"experts-{case}/student", dict(
            common, teacher=teachers["a"], experts=[
                {"cache": str(x / "a" / "features.fpfc"), "mapping": map_a},
                {"cache": str(x / "b" / "features.fpfc"), "mapping": map_b,
                 "alpha": 0.5}]))
        ls.run("distill", "--config", cfg, "--out", x / "student")
        ls.run("evaluate", "--config", cfg, "--model", x / "student" / "student.fpnn",
               "--out", x / "eval")


def modes(ls: Listing) -> None:
    x = ls.out / "modes"
    common = {"dataset": dict(BLOBS, n_per_class=30), "test_fraction": 0.5,
              "teacher": {"hidden": [16, 12]}, "student": {"hidden": [10, 6]},
              "teacher_plan": TEACHER_PLAN, "mapping": [[0, 1]]}
    teacher = ls.config("modes/teacher", dict(common, plan=PLAN))
    ls.run("train-teacher", "--config", teacher, "--out", x / "teacher")
    ls.run("extract-features", "--config", teacher, "--out", x / "teacher")
    sgd = dict(PLAN, lr_phase1=1e-05, mode="two_phase", optimizer="sgd")
    runs = {mode: dict(common, plan=dict(PLAN, mode=mode))
            for mode in ("two_phase", "joint", "hinton_baseline", "l2_baseline")}
    runs["frozen1"] = dict(runs["two_phase"], mapping=[[1, 1]])
    runs["sgd"] = dict(common, plan=dict(sgd, momentum=0.9))
    runs["sgd0"] = dict(common, plan=dict(sgd, momentum=0.0))
    features = x / "teacher" / "features.fpfc"
    for run, body in runs.items():
        ls.run("distill", "--config", ls.config(f"modes/{run}", body),
               "--features", features, "--out", x / run)
    naive = ls.config("modes/naive", dict(common, plan=dict(PLAN, mode="naive")))
    ls.run("distill", "--config", naive, "--out", x / "naive")
    other = ls.config("modes/other", dict(common, plan=PLAN,
                                          dataset=dict(BLOBS, n_per_class=30, seed=4)))
    ls.run("extract-features", "--config", other, "--teacher",
           x / "teacher" / "teacher.fpnn", "--out", x / "other")
    ls.refused("distill", "--config", ls.configs / "modes" / "two_phase.json",
               "--features", x / "other" / "features.fpfc", "--out", x / "stale")


def bench(ls: Listing) -> None:
    sys.path.insert(0, str(HEAD / "perfbench"))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        cfg_dir, out = ls.configs / "bench" / name, ls.out / "bench" / name
        for cfg, body in workload.make_configs(1, False, HEAD, out).items():
            ls.config(f"bench/{name}/{cfg}", body)
        for argv in workload.commands(cfg_dir, out):
            ls.run(*argv)


def main(argv) -> int:
    if argv:
        sys.exit(__doc__)
    src = (TREE / "src" / "featprior").resolve()
    if Path(featprior.__file__).resolve().parent != src:
        sys.exit(f"featprior imported from {featprior.__file__}, not {src}: "
                 "run this from the root of a checkout")
    with tempfile.TemporaryDirectory() as tmp:
        ls = Listing(Path(tmp))
        for cases in (reference, experts, modes, bench):
            cases(ls)
        ls.files()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
