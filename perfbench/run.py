"""featprior benchmark: runs the user-facing ``featprior`` commands
in-process through ``featprior.cli.main`` and prints one JSON result.

    python3 perfbench/run.py --workload batch256-prior --seed 1 --seconds 20 --trace 0

Run it from a checkout root.  ``--trace 0`` times the workload body
untraced and reports the end-to-end metrics; ``--trace 1`` also runs it
with every public layer function wrapped and reports the per-layer
metrics.  ``--size tiny`` is the smoke size.  The last stdout line is the
result; the lines before it are the environment header and run details.
See perfbench/README.md.
"""

import os

# BLAS threads are pinned before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from corespeed import CoreSpeed  # noqa: E402
from checks import (  # noqa: E402
    Ledger,
    check_evaluate,
    check_identical,
    check_kls,
    check_oracle,
    distill_accuracy,
    hash_tree,
    run_log_kls,
)
from tracer import (  # noqa: E402
    OVERHEAD,
    Patches,
    Tracer,
    coverage_failures,
    metric_units,
    resolve,
)
from workloads import WORKLOADS, compare_accuracies, last_phase1_kl, metric_value  # noqa: E402

SETUP_REPEATS = 7
# a timed run repeats the body until the budget is spent, at least this often
MIN_REPEATS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MiB",
    "student_acc": "fraction",
    "final_kl": "nats",
    "ok_frac": "fraction",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", metavar="WORKDIR", default=None,
                   help="run the set-up once in WORKDIR and print its seconds")
    return p.parse_args(argv)


def require_checkout() -> None:
    for needed in ("src/featprior/__init__.py", "configs/reference.json"):
        if not (ROOT / needed).is_file():
            sys.exit(f"perfbench: {ROOT / needed} is missing; run from a featprior checkout")


# -- set-up -------------------------------------------------------------------

def setup(workload, seed: int, tiny: bool, work: Path) -> float:
    """Import featprior, write and load the generated configs, generate
    each config's dataset and validate its cross references.  Returns
    the seconds taken."""
    start = time.perf_counter()
    from featprior.config import load_config

    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs = workload.make_configs(seed, tiny, ROOT, work / "out")
    for name, cfg in configs.items():
        (cfg_dir / f"{name}.json").write_text(json.dumps(cfg, indent=1) + "\n")
    for name in configs:
        cfg = load_config(cfg_dir / f"{name}.json")
        cfg.validate_cross_refs(cfg.load_dataset())
    return time.perf_counter() - start


def timed_setups(args, work: Path) -> list[float]:
    """Set-up seconds, at the reference core speed, of ``SETUP_REPEATS``
    fresh interpreters, so each pays the featprior import.  numpy is
    already imported there: featprior cannot change its cost."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-only", str(work)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- environment header -------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


# -- the workload body --------------------------------------------------------

class Runner:
    """Runs one workload's body and its checks in a work directory."""

    def __init__(self, workload, args, work: Path, ledger):
        self.workload = workload
        self.work = work
        self.cfg_dir = work / "configs"
        self.out = work / "out"
        self.seed = args.seed
        self.configs = workload.make_configs(args.seed, args.size == "tiny", ROOT, self.out)
        self.commands = workload.commands(self.cfg_dir, self.out)
        self.ledger = ledger
        self.bodies = 0
        self.raw_times = []  # uncorrected seconds of every untraced body
        self.phase1_kls = []  # what phase1_feature_fit returned, per body
        self.speed = CoreSpeed()

    def call(self, argv) -> str:
        """One CLI command through featprior.cli.main; returns its stdout."""
        from featprior import cli

        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except Exception:  # a crash is a failed op; the run goes on
            traceback.print_exc()
            code = "exception"
        self.ledger.record(code == 0, f"featprior {' '.join(argv)} exited {code}")
        return buf.getvalue()

    def body(self, tracer=None) -> tuple[float, list[str]]:
        """Seconds of one body, at the reference core speed
        (corespeed.py), and each command's stdout."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.phase1_kls.clear()
        if tracer is not None:
            tracer.install()
        self.speed.listener = tracer.exclude if tracer is not None else None
        try:
            with self.speed.sampling():
                start = time.perf_counter()
                stdouts = [self.call(argv) for argv in self.commands]
                elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            self.raw_times.append(elapsed)
        else:
            tracer.speed = self.speed.factor()
        return self.speed.corrected(elapsed), stdouts

    def repeat(self, seconds: float, min_repeats: int, first, tracers=None) -> list[float]:
        """Bodies until ``seconds`` are spent (at least ``min_repeats``).
        Every output file must match the first body's byte for byte."""
        times = []
        start = time.perf_counter()
        while True:
            tracer = None
            if tracers is not None:
                tracer = Tracer()
                tracers.append(tracer)
            elapsed, stdouts = self.body(tracer)
            times.append(elapsed)
            tree = hash_tree(self.out)
            if not first:
                # peak memory of one body, before checks or later repeats
                first["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                first.update(tree=tree, quality=self.check_outputs(stdouts))
            else:
                check_identical(self.ledger, first["tree"], tree, self.bodies)
            self.bodies += 1
            spent = time.perf_counter() - start
            if len(times) >= min_repeats and spent + statistics.median(times) > seconds:
                return times

    def check_outputs(self, stdouts) -> dict:
        """Checks on the first body's outputs; returns student_acc and
        final_kl."""
        ledger = self.ledger
        if self.workload.students:
            rng = np.random.default_rng(self.seed)
            accs = [self.check_student(name, terms, stdouts, rng)
                    for name, terms in self.workload.students]
        else:
            accs = self._quiet(compare_accuracies, self.out / "comparison.csv",
                               what="comparison.csv accuracies") or []
        for log in self.workload.run_logs:
            kls = self._quiet(run_log_kls, self.out / log, what=log)
            if kls is not None:
                check_kls(ledger, kls, log)
        if self.workload.run_logs:
            final_kl = self._quiet(last_phase1_kl, self.out / self.workload.run_logs[0],
                                   what="final KL")
        else:
            check_kls(ledger, self.phase1_kls, "phase1_feature_fit results")
            final_kl = statistics.fmean(self.phase1_kls) if self.phase1_kls else None
        accs = [a for a in accs if a is not None]
        return {"student_acc": statistics.fmean(accs) if accs else 0.0,
                "final_kl": final_kl if final_kl is not None else 0.0}

    def _quiet(self, fn, *args, what):
        """fn(*args), or None with a failed op when it raises."""
        try:
            return fn(*args)
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
            self.ledger.record(False, f"reading {what}")
            return None

    def check_student(self, name: str, terms, stdouts, rng) -> float | None:
        """Evaluate a saved student, compare with what distill printed,
        and check gp_kl on it against the oracle on batches drawn from
        ``rng``; returns its accuracy."""
        from featprior.config import load_config
        from featprior.data import read_cache
        from featprior.network import load_model

        model_path = self.out / name / "student.fpnn"
        cfg_path = self.cfg_dir / f"{name}.json"
        scored = self.work / "check" / name
        self.call(["evaluate", "--config", str(cfg_path), "--out", str(scored),
                   "--model", str(model_path)])
        accuracy = self._quiet(metric_value, scored / "metrics.csv", "accuracy",
                               what=f"{name} metrics.csv")
        if accuracy is None:
            return None
        out_flag = str(self.out / name)
        reported = next((distill_accuracy(text)
                         for argv, text in zip(self.commands, stdouts)
                         if argv[0] == "distill" and out_flag in argv), None)
        check_evaluate(self.ledger, reported, accuracy, name)
        try:
            cfg = load_config(cfg_path)
            caches = {cache: read_cache(self.out / cache / "features.fpfc")
                      for cache in sorted({c for _, c, _ in terms})}
            check_oracle(self.ledger, cfg, load_model(model_path), caches, terms, rng)
        except Exception:  # a crash in the oracle check is a failed check
            traceback.print_exc()
            self.ledger.record(False, f"oracle check of {name}")
        return accuracy

    @contextlib.contextmanager
    def phase1_probe(self):
        """Records what phase1_feature_fit returns; ``compare`` writes no
        KL, so this is where ref-compare's final_kl comes from."""
        found = resolve("train", "phase1_feature_fit")
        if found is None:
            yield
            return
        owner, attr, fn = found
        kls = self.phase1_kls

        def probe(*args, **kwargs):
            model, final_kl = fn(*args, **kwargs)
            kls.append(final_kl)
            return model, final_kl

        patches = Patches()
        patches.replace(owner, attr, fn, probe)
        try:
            yield
        finally:
            patches.undo()


def run(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    setup_times = timed_setups(args, work)
    print(json.dumps({"env": environment(args)}), flush=True)

    ledger = Ledger()
    runner = Runner(workload, args, work, ledger)
    first: dict = {}
    probe = runner.phase1_probe() if not workload.run_logs else contextlib.nullcontext()
    with probe:
        if not args.trace:
            times = runner.repeat(args.seconds, MIN_REPEATS, first)
            traced, tracers = [], []
        else:
            times = runner.repeat(args.seconds / 2, 1, first)
            tracers = []
            traced = runner.repeat(args.seconds / 2, 1, first, tracers)
    print(json.dumps({"detail": {"setup_s": setup_times, "body_s": times,
                                 "raw_body_s": runner.raw_times,
                                 "traced_body_s": traced,
                                 "steps": workload.steps(runner.configs)}}), flush=True)

    wall = statistics.median(times)
    if args.trace:
        metrics = per_layer_metrics(workload.name, tracers, traced, wall, ledger)
    else:
        quality = first["quality"]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "steps_per_s": workload.steps(runner.configs) / wall,
            "peak_rss_mb": first["peak_rss_mb"],
            "student_acc": quality["student_acc"],
            "final_kl": quality["final_kl"],
            "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def per_layer_metrics(workload: str, tracers, traced, wall: float, ledger) -> dict:
    failures = coverage_failures(workload, tracers[0])
    ledger.record(not failures, "layer coverage: " + "; ".join(failures))
    counts = tracers[0].exact_counts()
    for i, tracer in enumerate(tracers[1:], 1):
        ledger.record(tracer.exact_counts() == counts,
                      f"traced counts of repeat {i} differ from repeat 0")
    values = dict(counts)
    self_times = [t.self_times() for t in tracers]
    for key in self_times[0]:
        values[key] = statistics.median(times[key] for times in self_times)
    values[OVERHEAD] = statistics.median(traced) - wall
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units().items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        speed = CoreSpeed()
        with speed.sampling():
            elapsed = setup(workload, args.seed, args.size == "tiny", Path(args.setup_only))
        print(speed.corrected(elapsed))
        return 0
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
