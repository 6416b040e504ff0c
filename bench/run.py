"""qgrass benchmark: one CLI command per workload, every sample a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: it starts `python -m qgrass <command> --input
<document>` only after the previous one has exited, and keeps starting them
until S seconds have passed.  Each sample is a fresh interpreter because the
Schubert-cell cache (`linalg._subspaces_cached`) is process-global and every
real invocation fills it from cold.  Every sample's exit code and stdout are
checked against bench/golden.json.

--trace 0 prints the end-to-end metrics: the median ratio of the program's
wall time to that of a frozen baseline copy of it (bench/baseline, run next
to each sample), the median set-up time and the median peak RSS.  --trace 1
alternates untraced samples with samples run under bench/traced.py and
prints the per-layer metrics.  The last line of stdout is one JSON object;
progress goes to stderr.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_build"

# the program as of the commit golden.json was recorded at; every timed
# sample is paired with this baseline running the same command
BASELINE = BENCH / "baseline"

TIMEOUT_S = 60  # one invocation; the slowest workload takes about 3.5 s
PROBES_PER_PAIR = 3  # set-up probes, about 0.17 s each
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
BASELINE_ENV = {**os.environ, "PYTHONPATH": str(BASELINE)}


@dataclass(frozen=True)
class Workload:
    command: str
    document: str  # seed-0 input under bench/inputs: a built-in, unchanged
    primes: str

    def cli_args(self, document_path) -> list[str]:
        return [self.command, "--input", str(document_path), "--q", self.primes]


WORKLOADS = {
    # the paper's headline command; the only one with work in every layer
    "check-a21": Workload("check", "a21-ray-7.json", "2,3"),
    # enumeration only, up to q = 11: no tangent data, no tube work
    "chi-a21": Workload("chi", "a21-ex1.json", "2,3,5,7"),
    # one big sink vertex, low yield, and a report that lists every point
    "census-kronecker": Workload("census", "kronecker-reg-4.json", "5"),
}


# ---------------------------------------------------------------- inputs


def seeded_document(workload: Workload, seed: int) -> bytes:
    """The input document for a seed; seed 0 is the built-in unchanged.

    Any other seed applies a per-vertex change of basis P_v = L_v U_v, with
    L_v lower and U_v upper unitriangular and off-diagonal entries drawn from
    {-1, 0, 1}: M_a becomes P_j M_a P_i^-1 for a: i -> j.  det P_v = 1, so
    P_v stays invertible mod every prime and M mod p keeps its isomorphism
    class, while its matrices become dense.
    """
    raw = (BENCH / "inputs" / workload.document).read_bytes()
    if seed == 0:
        return raw
    doc = json.loads(raw)
    rng = random.Random(seed)
    dims = doc["representation"]["dims"]
    change = {v: _unimodular(dims[v], rng) for v in doc["quiver"]["vertices"]}
    matrices = doc["representation"]["matrices"]
    for arrow in doc["quiver"]["arrows"]:
        m = [[Fraction(x) for x in row] for row in matrices[arrow["id"]]]
        p_target = change[arrow["to"]][0]
        p_source_inv = change[arrow["from"]][1]
        moved = _matmul(_matmul(p_target, m, dims[arrow["from"]]), p_source_inv, dims[arrow["from"]])
        matrices[arrow["id"]] = [[str(x) for x in row] for row in moved]
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _unimodular(n: int, rng: random.Random) -> tuple[list, list]:
    """(P, P^-1) for P = L U with unitriangular L, U over {-1, 0, 1}."""
    lower = [[Fraction(int(i == j) if j >= i else rng.choice((-1, 0, 1))) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j) if j <= i else rng.choice((-1, 0, 1))) for j in range(n)] for i in range(n)]
    p = _matmul(lower, upper, n)
    return p, _inverse(p)


def _matmul(a: list, b: list, cols: int) -> list:
    # cols is given so that matrices with no rows keep their shape
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)] for i in range(len(a))]


def _inverse(m: list) -> list:
    n = len(m)
    rows = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


# ------------------------------------------------------------ processes


@dataclass
class Sample:
    wall_s: float
    exit_code: int
    timed_out: bool
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], workdir: Path, env: dict = CHILD_ENV) -> Sample:
    """Run argv to completion; time it from spawn to exit and read its own
    peak RSS from wait4 (RUSAGE_CHILDREN would be a max over every child)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    timed_out = []

    def kill(pid):
        timed_out.append(True)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(TIMEOUT_S, kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        exit_code=proc.returncode,
        timed_out=bool(timed_out),
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def cli_argv(workload: Workload, document_path: Path) -> list[str]:
    return [sys.executable, "-m", "qgrass", *workload.cli_args(document_path)]


def traced_argv(workload: Workload, document_path: Path, spans_path: Path, run_id: str) -> list[str]:
    return [sys.executable, str(BENCH / "traced.py"), str(spans_path), run_id, "--",
            *workload.cli_args(document_path)]


def probe_argv(workload: Workload, document_path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(document_path), workload.primes]


# ----------------------------------------------------------- correctness


def invariant_summary(report: dict) -> dict:
    """The part of a report that a change of basis of M cannot move: every
    count, verdict, tube coordinate and polynomial, but no point coordinates
    and no input digest."""
    summary = dict(report)
    summary["input"] = {"name": report["input"]["name"]}
    if report["command"] == "census":
        for result in summary["results"]:
            for row in result["per_e"]:
                tally = Counter((x["hom_dim"], x["ext_dim"], x["transverse"]) for x in row["entries"])
                row["entries"] = [[*key, n] for key, n in sorted(tally.items())]
    if report["command"] == "check":
        for ce in summary["results"]["counterexamples"]:
            del ce["point"]
    return summary


class OutputCheck:
    """Checks each sample's exit code and stdout.

    At seed 0 the stdout must hash to the golden digest.  At any seed the
    first sample's invariant summary must equal the golden one, and every
    later sample must repeat the first sample's bytes.
    """

    def __init__(self, golden: dict, seed: int):
        self.golden = golden
        self.seed = seed
        self.digest = None
        self.failures: list[str] = []

    def __call__(self, sample: Sample) -> bool:
        reason = self._failure(sample)
        if reason:
            self.failures.append(reason)
            tail = sample.stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED: {reason}", *tail, sep="\n  ", file=sys.stderr)
        return reason is None

    def _failure(self, sample: Sample) -> str | None:
        if sample.timed_out:
            return f"timed out after {TIMEOUT_S} s"
        if sample.exit_code != self.golden["exit_code"]:
            return f"exit code {sample.exit_code}, expected {self.golden['exit_code']}"
        digest = hashlib.sha256(sample.stdout).hexdigest()
        if self.seed == 0 and digest != self.golden["stdout_sha256"]:
            return "stdout differs from the golden report"
        if self.digest is None:
            try:
                summary = invariant_summary(json.loads(sample.stdout))
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable report: {type(exc).__name__}: {exc}"
            if summary != self.golden["summary"]:
                return "invariant summary differs from the golden one"
            self.digest = digest
        elif digest != self.digest:
            return "stdout differs from the first sample of this seed"
        return None


# ------------------------------------------------------------- the runs


def run_timed(workload: Workload, doc: Path, workdir: Path, seconds: float, check: OutputCheck) -> dict:
    """Time pairs of the program and the baseline, with set-up probes spread
    over the run between them.

    wall_ratio is the median over pairs of the program's wall time divided by
    the baseline's; the order within a pair alternates.
    """
    for env in (CHILD_ENV, BASELINE_ENV):  # warm-up: writes bytecode caches, unless disabled
        spawn([sys.executable, "-c", "import qgrass.cli"], workdir, env)
    argv = cli_argv(workload, doc)
    baseline_check = OutputCheck(check.golden, check.seed)
    samples, baselines, probes, ok = [], [], [], 0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        probes += [spawn(probe_argv(workload, doc), workdir) for _ in range(PROBES_PER_PAIR)]
        for is_baseline in ((False, True) if len(samples) % 2 == 0 else (True, False)):
            if is_baseline:
                baselines.append(spawn(argv, workdir, BASELINE_ENV))
                ok += baseline_check(baselines[-1])
            else:
                samples.append(spawn(argv, workdir))
                ok += check(samples[-1])
        print(f"pair {len(samples)}: {samples[-1].wall_s:.3f} s, baseline {baselines[-1].wall_s:.3f} s, "
              f"{samples[-1].peak_rss_mb:.1f} MB", file=sys.stderr)
    check.failures += baseline_check.failures
    bad_probes = [p for p in probes if p.exit_code != 0]
    for p in bad_probes:
        print("FAILED: setup probe", p.stderr.decode(errors="replace").strip(), file=sys.stderr)
    metrics = {
        "wall_ratio": (median(s.wall_s / b.wall_s for s, b in zip(samples, baselines)), "ratio"),
        "setup_s": (median(p.wall_s for p in probes), "s"),
        "peak_rss_mb": (median(s.peak_rss_mb for s in samples), "MB"),
    }
    print(f"medians of {len(samples)} pairs: {median(s.wall_s for s in samples):.3f} s, "
          f"baseline {median(b.wall_s for b in baselines):.3f} s; setup_s median of {len(probes)} probes",
          file=sys.stderr)
    attempted = 2 * len(samples) + len(probes)
    return _result(attempted, attempted - len(probes) - ok + len(bad_probes), metrics, check)


# per-layer counters: these must repeat exactly from run to run
COUNTERS = (
    "census.enumerate_calls",
    "census.points",
    "census.yield",
    "linalg.cells_scanned",
    "linalg.span_rref_calls",
    "linalg.span_rref_entries",
    "linalg.delta_rank_calls",
    "linalg.delta_rank_entries",
    "reps.sub_quotient_calls",
    "reps.hom_ext_calls",
    "cli.stdout_bytes",
)
UNITS = {"census.yield": "ratio", "cli.stdout_bytes": "bytes"}


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced invocation.

    Span times are integer nanoseconds.  Self time is a span's duration minus
    the time its direct child spans cover; spans of one thread nest, so
    children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, size in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, size_sum, total, own = Counter(), Counter(), Counter(), Counter()
    for (name, start, end, parent, size), children in zip(spans, child_ns):
        calls[name] += 1
        size_sum[name] += size
        total[name] += (end - start) / 1e9
        own[name] += (end - start - children) / 1e9
    cells = size_sum["census._subspaces_cached"]
    points = size_sum["census.enumerate_subreps"]
    return {
        "census.enumerate_s": own["census.enumerate_subreps"],
        "census.enumerate_calls": calls["census.enumerate_subreps"],
        "census.points": points,
        "census.yield": points / cells if cells else 0.0,
        "census.census_s": own["tubes.census"] + own["cli.census"],
        "census.counting_polynomial_s": own["cli.counting_polynomial"],
        "linalg.cells_scanned": cells,
        "linalg.subspaces_s": total["census._subspaces_cached"],
        "linalg.span_rref_calls": calls["census.rref"],
        "linalg.span_rref_entries": size_sum["census.rref"],
        "linalg.span_rref_s": total["census.rref"],
        "linalg.delta_rank_calls": calls["reps.rref"],
        "linalg.delta_rank_entries": size_sum["reps.rref"],
        "linalg.delta_rank_s": total["reps.rref"],
        "reps.sub_quotient_s": own["census.sub_quotient"],
        "reps.sub_quotient_calls": calls["census.sub_quotient"],
        "reps.hom_ext_s": own["census.hom_ext"],
        "reps.hom_ext_calls": calls["census.hom_ext"],
        "reps.reduce_mod_p_s": total["census.reduce_mod_p"] + total["tubes.reduce_mod_p"] + total["cli.reduce_mod_p"],
        "tubes.compare_s": own["cli.compare_transverse_loci"],
        "tubes.transverse_combinatorial_s": own["tubes.transverse_combinatorial"],
        "tubes.quasi_socle_s": own["tubes.quasi_socle"],
        "cli.report_s": own["cli._census_result"] + own["cli._comparison_obj"],
        "cli.emit_s": total["cli._emit"],
        "documents.parse_s": total["cli.parse_document"],
    }


def run_traced(workload: Workload, doc: Path, workdir: Path, seconds: float, check: OutputCheck) -> dict:
    """Alternate untraced and traced samples; per-layer times are medians over
    the traced samples, and trace.overhead_s is the difference of the two
    median wall times."""
    spans_path = workdir / "spans.json"
    plain, traced, layers = [], [], []
    ok = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_trace:
                run_id = f"{os.getpid()}-{len(traced)}"
                sample = spawn(traced_argv(workload, doc, spans_path, run_id), workdir)
                traced.append(sample)
                passed = check(sample)
                if passed:
                    recorded = json.loads(spans_path.read_text())
                    if recorded["run_id"] != run_id:
                        check.failures.append(f"spans of run {recorded['run_id']}, expected {run_id}")
                        passed = False
                    else:
                        layer = layer_metrics(recorded["spans"])
                        layer["cli.stdout_bytes"] = len(sample.stdout)
                        layers.append(layer)
            else:
                sample = spawn(cli_argv(workload, doc), workdir)
                plain.append(sample)
                passed = check(sample)
            ok += passed
            print(f"{'traced' if with_trace else 'plain'} sample: {sample.wall_s:.3f} s", file=sys.stderr)

    metrics = {}
    if layers:
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in COUNTERS:
                if len(set(values)) != 1:
                    check.failures.append(f"{name} did not repeat: {values}")
                metrics[name] = (values[0], UNITS.get(name, "count"))
            else:
                metrics[name] = (median(values), "s")
    metrics["trace.overhead_s"] = (median(s.wall_s for s in traced) - median(s.wall_s for s in plain), "s")
    attempted = len(plain) + len(traced)
    return _result(attempted, attempted - ok, metrics, check)


def _result(attempted: int, failed: int, metrics: dict, check: OutputCheck) -> dict:
    return {
        "correct": failed == 0 and not check.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_record(workload_name: str, seed: int) -> dict:
    """Where a run was made: kept beside every result and golden record."""
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload_name,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qgrass" / "cli.py").is_file():
        print(f"bench: no qgrass sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text())[args.workload]
    print(json.dumps(run_record(args.workload, args.seed)), file=sys.stderr)

    # on SIGTERM, unwind: the running child is killed and reaped, workdir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        doc = workdir / "input.json"
        doc.write_bytes(seeded_document(workload, args.seed))
        check = OutputCheck(golden, args.seed)
        run = run_traced if args.trace else run_timed
        result = run(workload, doc, workdir, args.seconds, check)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
