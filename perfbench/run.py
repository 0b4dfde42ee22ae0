"""Campaign benchmark: world build to rendered tables, one workload per call.

    python3 perfbench/run.py --workload legacy-campaign --seed 3 --seconds 30 --trace 0

Runs full serial campaigns of the workload, each in a fresh process
(``child.py``), until ``--seconds`` are used, and checks every campaign's
outputs against the digests recorded for its workload and seed.  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced campaigns and
reports the per-layer metrics, writing the spans to ``.perfbench/``.
The last line of standard output is the JSON result.

``--record`` adopts each campaign's digests as the reference for its
campaign seed and writes them to the digests file; see ``README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, campaign_seed, get_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0
#: Host-probe seconds of the reference speed that ``wall_s`` and ``cpu_s``
#: are rescaled to (about the probe's median on a 2-vCPU Xeon VM).
REFERENCE_PROBE_S = 0.4
#: Which layer produced each per-app digest (pipeline order).
DIGEST_LAYERS = (("transfers", "streaming"), ("flows", "trace"), ("analysis", "core"))


class ChildFailed(Exception):
    pass


def child_env(workload) -> dict[str, str]:
    """The campaign process environment: no ambient ``REPRO_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # Every campaign process gets the same dict and set layouts; outputs
    # never depend on the string-hash seed.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if workload.engine:
        env["REPRO_ENGINE"] = workload.engine
    return env


def run_child(args, workload, seed: int, out: Path, deadline: float, *, traced: bool,
              checkpoint_dir: Path | None, prepare: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(out)]
    if checkpoint_dir is not None:
        cmd += ["--checkpoint-dir", str(checkpoint_dir)]
    cmd += ["--trace"] * traced + ["--prepare"] * prepare + ["--smoke"] * args.smoke
    timeout = max(1.0, deadline - time.perf_counter())
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=child_env(workload), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"campaign exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"campaign exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def check_outputs(record: dict, reference: dict) -> dict[str, str]:
    """Failed apps of one campaign, each with the first layer that differs.

    An app fails when it lands in the error ledger, produced no run, or
    one of its digests differs from the reference.  The rendered tables
    combine every app, so a differing report alone fails them all.
    """
    failed: dict[str, str] = {}
    for app in record["apps"]:
        if app in record["failed_apps"] or record["ledger"][app]:
            failed[app] = f"{app}: campaign ledger {record['ledger'][app]}"
            continue
        for part, layer in DIGEST_LAYERS:
            key = f"{app}/{part}"
            if key not in reference:
                failed[app] = f"{app}: no recorded {part} digest for this seed"
                break
            if record["digests"][key] != reference[key]:
                if part == "transfers" and record["from_checkpoint"]:
                    layer = "trace"  # the log came back through the bundle store
                failed[app] = f"{app}: {layer} output differs from the recorded {part} digest"
                break
    if not failed and "report" in record["digests"]:
        if record["digests"]["report"] != reference.get("report"):
            failed = {app: f"{app}: report output differs from the recorded tables digest"
                      for app in record["apps"]}
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json")
    parser.add_argument("--record", action="store_true",
                        help="adopt this run's digests as the reference for its seed")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to seconds (smoke tests)")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    workload = get_workload(args.workload, smoke=args.smoke)
    recorded = json.loads(args.digests.read_text(encoding="utf-8")) if (
        args.digests.exists()) else {}
    references = recorded.setdefault(workload.name, {})
    adopted: set[str] = set()
    attempted = 0
    failures: dict[str, str] = {}

    def check(record: dict, seed: int, label: str) -> None:
        key = str(campaign_seed(seed))
        if args.record:
            if key not in adopted:  # re-recording replaces the old entry
                references[key] = {}
                adopted.add(key)
            for name, value in record["digests"].items():
                references[key].setdefault(name, value)
        for app, why in check_outputs(record, references.get(key, {})).items():
            failures[f"{label}/{app}"] = why

    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint_dir = workdir / "checkpoints" if workload.resume else None
    prepared = None
    timed: list[tuple[bool, dict]] = []
    try:
        if workload.resume:
            attempted += len(workload.apps)
            prepared = run_child(args, workload, args.seed, workdir / "prepare.json", deadline,
                                 traced=bool(args.trace), checkpoint_dir=checkpoint_dir,
                                 prepare=True)
            check(prepared, args.seed, "prepare")
        for k in itertools.count():
            traced = bool(args.trace) and k % 2 == 1
            # Successive campaigns take successive seeds, so one run's median
            # spans several inputs.  A traced campaign repeats the seed of the
            # untraced one before it; resumed campaigns all read the
            # checkpoints written with the run's own seed.
            seed = args.seed + (0 if workload.resume else k // 2 if args.trace else k)
            began = time.perf_counter()
            attempted += len(workload.apps)
            record = run_child(args, workload, seed, workdir / f"campaign-{k}.json",
                               deadline, traced=traced, checkpoint_dir=checkpoint_dir)
            last = time.perf_counter() - began
            check(record, seed, str(k))
            timed.append((traced, record))
            step = 2 * last if args.trace else last  # traced runs add whole pairs
            if traced == bool(args.trace) and time.perf_counter() - start + step > args.seconds:
                break
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        failures.update({f"crash/{app}": f"{app}: {exc}" for app in workload.apps})
        if not timed:
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record:
        args.digests.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")

    plain = [r for traced, r in timed if not traced]
    traced_runs = [r for traced, r in timed if traced]
    if args.trace and not traced_runs:
        return 1
    first = timed[0][1]
    if args.trace:
        merged = [{**r["layers"], **r["counts"]} for r in traced_runs]
        values = {name: statistics.median(m[name] for m in merged) for name in merged[0]}
        if prepared is not None:
            values["trace.save_s"] = prepared["layers"]["trace.save_s"]
        values["tracing.wall_s"] = statistics.median(r["wall_s"] for r in traced_runs)
        values["tracing.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced_runs))
        notes = {name: f"median of {len(traced_runs)} traced campaigns" for name in values}
        WORK.mkdir(exist_ok=True)
        (WORK / f"{workload.name}-seed{args.seed}-spans.json").write_text(
            json.dumps([r["spans"] for r in traced_runs]), encoding="utf-8")
        chosen = spec["per_layer"]
    else:
        values = {name: statistics.median(r[name] * REFERENCE_PROBE_S / r["probe_s"]
                                          for r in plain)
                  for name in ("wall_s", "cpu_s")}
        values.update({name: statistics.median(r[name] for r in plain)
                       for name in ("setup_s", "peak_rss_mb")})
        notes = {name: f"median of {len(plain)} campaigns" for name in values}
        for name in ("wall_s", "cpu_s"):
            notes[name] += (f"; measured {statistics.median(r[name] for r in plain):.6g} s"
                            f" at host probe {statistics.median(r['probe_s'] for r in plain):.4g}"
                            f" s, rescaled to {REFERENCE_PROBE_S} s")
        if prepared is not None:
            # Set-up of a resume campaign includes writing its checkpoints.
            values["setup_s"] = prepared["setup_s"] + prepared["wall_s"]
            notes["setup_s"] = "1 checkpointing campaign"
        ratios = first["delivery_ratios"]
        values["delivery_ratio_p25"], values["delivery_ratio_p50"], _ = statistics.quantiles(
            ratios, n=4, method="inclusive")
        for name in ("delivery_ratio_p25", "delivery_ratio_p50"):
            notes[name] = f"over {len(ratios)} probe-runs"
        chosen = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    failed = len(failures)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']} ({notes[name]})")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} shards)")
    if workload.renders_tables:
        print(f"shape_checks_passed: {first['counts']['report.shape_checks_passed']} count")
    for why in failures.values():
        print(f"FAILED {why}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
