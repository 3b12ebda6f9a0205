"""gemmine benchmark: one workload, closed loop, fresh process per unit.

    python3 perfbench/run.py --workload gem_mine --seed 1 --seconds 20 --trace 0

Runs units of the workload one after another, each in its own process
with the BLAS thread count pinned to ``BLAS_THREADS``, until ``--seconds``
are used (at least ``MIN_UNITS``). Every unit's mask and summary hashes are
checked against the reference stored for this BLAS build and thread count
(``reference_hashes.json``), and its outputs against seed-independent
invariants. A unit that raises, breaks an invariant or mismatches a hash
counts as failed.

With ``--trace 0`` it prints the end-to-end metrics over the untraced
units, with times scaled to a reference host speed (see README.md).
With ``--trace 1`` it alternates untraced and traced units and prints the
per-layer metrics of the traced ones, the self-time accounting and the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--tiny`` shrinks every workload for tests; ``--update-reference`` stores
the run's hashes as the reference for its BLAS build and archive variant.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import ARCHIVE_VARIANTS, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
# unit.SpeedProbe's kernel time at the host speed that times are expressed in
# (about the speed of the shared 2-vCPU Xeon VM the references were recorded
# on, in its faster phases); fixed, so that runs on any day compare
PROBE_REF_S = 0.007
# The program slows more than the probe kernel when the host slows: in two
# sets of units (62 and 235, all four workloads), log wall time fell by 1.19
# and by 1.12 per unit of log kernel speed (README.md), so speed ratios are
# raised to about their mean
SLOWDOWN_EXPONENT = 1.15
MIN_UNITS = {0: 3, 1: 4}  # by --trace; traced runs need two of each kind
HARD_LIMIT_S = 165.0  # stop starting units so the process ends within 180 s
REFERENCE = HERE / "reference_hashes.json"
WORK_ROOT = ROOT / ".bench_work"

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# span -> the statistics reported for it (see README.md for what each moves)
LAYER_STATS = {
    "autodiff.backward": ("calls", "self_s"),
    "autodiff.ops": ("calls", "self_s"),
    "masking.mlp_forward": ("total_s",),
    "optim.step": ("calls", "self_s"),
    "miners.edge_popup.topk_mask": ("calls", "self_s", "elements", "unchanged_frac"),
    "miners.gem.freeze_step": ("calls", "self_s", "frozen"),
    "miners.gem.gem_mine": ("self_s",),
    "miners.imp.prune_by_magnitude": ("calls", "self_s"),
    "miners.imp.imp": ("self_s",),
    "miners.smart_ratio.tune_ratios": ("total_s",),
    "miners.smart_ratio.sample_ratio_mask": ("self_s",),
    "trainer.evaluate": ("calls", "self_s"),
    "trainer.run_masked_epoch": ("self_s",),
    "trainer.finetune": ("total_s",),
    "trainer.batch_indices": ("self_s",),
    "sanity.shuffle_mask": ("self_s",),
    "sanity.reinit_weights": ("self_s",),
    "sanity.invert_scores": ("self_s",),
    "checkpoint.save_checkpoint": ("calls", "self_s", "bytes"),
    "checkpoint.load_checkpoint": ("calls", "self_s"),
    "harness.mine_for_seed": ("total_s",),
    "harness.variant_network": ("total_s",),
    "harness.run_experiment": ("self_s",),
    "data.make_digit_archive": ("total_s",),
    "data.load_idx": ("total_s",),
}
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "elements": "count",
    "unchanged_frac": "fraction",
    "frozen": "count",
    "bytes": "bytes",
}
ACCOUNTING = {
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
    "trace.wrapper_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stats in LAYER_STATS.items() for stat in stats}
    units.update(ACCOUNTING)
    return units


# --- units --------------------------------------------------------------------


def run_one(workload: str, seed: int, traced: bool, tiny: bool, index: int, timeout: float) -> dict:
    work_dir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}-{index}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload, "--seed", str(seed), "--work-dir", str(work_dir)]
    cmd += ["--trace"] * traced + ["--tiny"] * tiny
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return {"failed": f"unit raised: {tail[0]}", "traced": traced}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        return {"failed": f"unit timed out after {timeout:.0f} s", "traced": traced}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["process_s"] = time.perf_counter() - start
    return result


def run_units(args) -> list[dict]:
    units: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        spent = [u["process_s"] for u in units if "process_s" in u]
        estimate = median(spent) if spent else 0.0
        if len(units) >= MIN_UNITS[args.trace] and elapsed + estimate > args.seconds:
            break
        if units and elapsed + estimate > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and len(units) % 2 == 1
        units.append(run_one(args.workload, args.seed, traced, args.tiny, len(units), HARD_LIMIT_S - elapsed + 5))
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    return units


# --- output checks ------------------------------------------------------------


def reference_key(units: list[dict]) -> str | None:
    for u in units:
        if "env" in u:
            blas = u["env"]["blas"]
            return f"{blas.get('runtime') or blas.get('build') or blas.get('name')}|threads={BLAS_THREADS}"
    return None


def check_units(units: list[dict], expected: dict | None) -> None:
    """Mark each unit failed or not; without a reference, units must agree."""
    for u in units:
        if "failed" in u:
            continue
        if u["errors"]:
            u["failed"] = "; ".join(u["errors"])
            continue
        want = expected if expected is not None else next(v["hashes"] for v in units if "failed" not in v)
        for kind in ("mask", "summary"):
            if u["hashes"][kind] != want[kind]:
                u["failed"] = f"{kind} hash {u['hashes'][kind][:12]} != reference {want[kind][:12]}"


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on this host
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# --- reporting ----------------------------------------------------------------


def span_value(unit: dict, span: str, stat: str) -> float:
    phases = [unit["setup_spans"].get(span, {}), unit["spans"].get(span, {})]
    if stat == "unchanged_frac":
        calls = sum(p.get("calls", 0) for p in phases)
        return sum(p.get("unchanged", 0) for p in phases) / calls if calls else 0.0
    return sum(p.get(stat, 0) for p in phases)


def accounting(unit: dict) -> dict[str, float]:
    """Traced wall time split into span self time, bookkeeping and the rest."""
    self_sum = sum(s["self_s"] for s in unit["spans"].values())
    return {
        "trace.wall_s": unit["wall_s"],
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": unit["wall_s"] - self_sum - unit["bookkeeping_s"],
    }


# Times are scaled to the reference host speed: the host's speed drifts by
# tens of percent in phases of seconds to minutes, and the probe samples
# taken through each unit track that drift (README.md).


def speed_scale(samples: list[float]) -> float:
    """Factor that turns time spent while ``samples`` were taken into time at the reference speed.

    A stretch of time does the work of its length over the host's slowness
    then, so evenly spaced samples give the mean of their inverses.
    """
    return (PROBE_REF_S * mean([1.0 / k for k in samples])) ** SLOWDOWN_EXPONENT


def scaled_wall(unit: dict) -> float:
    # a unit shorter than one probe interval has only its set-up samples
    return unit["wall_s"] * speed_scale(unit["speed_s"] or unit["setup_speed_s"])


def scaled_setups(unit: dict) -> list[float]:
    return [s * speed_scale(unit["setup_speed_s"]) for s in unit["setup_s"]]


def paired_overhead(units: list[dict]) -> list[float]:
    """Scaled traced minus untraced wall_s of each traced unit and the untraced unit before it."""
    return [
        scaled_wall(traced) - scaled_wall(plain)
        for plain, traced in zip(units[0::2], units[1::2])
        if "wall_s" in plain and "wall_s" in traced
    ]


def end_to_end_metrics(good: list[dict]) -> dict[str, float]:
    wall = mean([scaled_wall(u) for u in good])
    return {
        "wall_s": wall,
        "samples_per_s": mean([u["samples"] for u in good]) / wall,
        "setup_s": median([s for u in good for s in scaled_setups(u)]),
        "peak_rss_mb": median([u["peak_rss_kb"] / 1024.0 for u in good]),
    }


def per_layer_metrics(traced: list[dict], units: list[dict]) -> dict[str, float]:
    values = {}
    for span, stats in LAYER_STATS.items():
        for stat in stats:
            values[f"{span}.{stat}"] = median([span_value(u, span, stat) for u in traced])
    books = [accounting(u) for u in traced]
    for name in books[0]:
        values[name] = median([b[name] for b in books])
    values["trace.wrapper_s"] = median([u["wrapper_s"] for u in traced])
    values["trace.overhead_s"] = median(paired_overhead(units))
    return values


def print_span_table(traced: list[dict]) -> None:
    names = sorted({n for u in traced for n in u["spans"]} | {n for u in traced for n in u["setup_spans"]})
    rows = []
    for name in names:
        calls = median([span_value(u, name, "calls") for u in traced])
        if calls:
            rows.append((name, calls, median([span_value(u, name, "self_s") for u in traced]),
                         median([span_value(u, name, "total_s") for u in traced])))
    print(f"  {'span':<40} {'calls':>9} {'self_s':>10} {'total_s':>10}")
    for name, calls, self_s, total_s in sorted(rows, key=lambda r: -r[2]):
        print(f"  {name:<40} {calls:>9.0f} {self_s:>10.4f} {total_s:>10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (for tests)")
    parser.add_argument("--update-reference", action="store_true", help="store this run's hashes as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gemmine" / "__init__.py").is_file():
        print(f"error: gemmine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = run_units(args)
    key = reference_key(units)
    variant = str(args.seed % ARCHIVE_VARIANTS)
    ref_name = args.workload + ("@tiny" if args.tiny else "")
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    expected = references.get(key, {}).get(ref_name, {}).get(variant)
    if args.update_reference:
        expected = None
    check_units(units, expected)
    good = [u for u in units if "failed" not in u]
    failed = len(units) - len(good)

    print(f"workload {args.workload}  seed {args.seed} (archive variant {variant})  "
          f"units {len(units)}  blas threads {BLAS_THREADS}  trace {args.trace}")
    for i, u in enumerate(units):
        if "failed" in u:
            print(f"  unit {i} FAILED: {u['failed']}")
    if expected is None and not args.update_reference:
        warning = (f"warning: reference_unchecked: no reference hashes for {ref_name} variant {variant} "
                   f"under {key!r}; checked invariants and agreement between units only")
        print("  " + warning)
        print(warning, file=sys.stderr)
    if args.update_reference and good and failed == 0:
        references.setdefault(key, {}).setdefault(ref_name, {})[variant] = good[0]["hashes"]
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"  stored reference hashes for {ref_name} variant {variant} under {key!r}")

    measured = good or [u for u in units if "wall_s" in u]
    if not measured:
        print("error: no unit produced a measurement", file=sys.stderr)
        return 1
    untraced = [u for u in measured if not u["traced"]]
    traced = [u for u in measured if u["traced"]]
    if args.trace and not (traced and untraced and paired_overhead(units)):
        print("error: a traced run needs an untraced unit followed by a traced one", file=sys.stderr)
        return 1
    print(f"fail_frac = {failed}/{len(units)} = {failed / len(units):.4g}")
    print(f"pre_acc = {median([u['pre_acc'] for u in measured]):.6g}  (mean pre-finetune test accuracy of the mined masks)")
    if measured[0]["post_acc"] is not None:
        print(f"post_acc = {median([u['post_acc'] for u in measured]):.6g}  (mean post-finetune accuracy of the 'none' rows)")

    if args.trace:
        metrics = per_layer_metrics(traced, units)
        units_of = per_layer_units()
        print_span_table(traced)
        wall = metrics["trace.wall_s"]
        self_sum = metrics["trace.self_sum_s"]
        bookkeeping = median([u["bookkeeping_s"] for u in traced])
        print(f"self-time accounting: traced wall_s {wall:.4f} s, sum of span self times {self_sum:.4f} s "
              f"({100 * self_sum / wall:.1f}%), counter bookkeeping {bookkeeping:.4f} s, "
              f"unattributed {metrics['trace.unattributed_s']:.4f} s")
        print(f"tracing overhead: wrappers' own cost {metrics['trace.wrapper_s']:.4f} s "
              f"({100 * metrics['trace.wrapper_s'] / wall:.2f}% of traced wall_s; span calls x measured "
              f"per-call cost + counter bookkeeping); traced - untraced wall_s at the reference host speed, "
              f"median of {len(paired_overhead(units))} adjacent pairs, {metrics['trace.overhead_s']:.4f} s "
              f"({100 * metrics['trace.overhead_s'] / mean([scaled_wall(u) for u in untraced]):.1f}%, "
              "includes host drift)")
    else:
        metrics = end_to_end_metrics(untraced)
        units_of = END_TO_END
        kernel = median([k for u in untraced for k in u["speed_s"] + u["setup_speed_s"]])
        probe_share = sum(u["probe_s"] for u in untraced) / sum(u["wall_s"] + u["probe_s"] for u in untraced)
        print(f"unscaled: wall_s = {mean([u['wall_s'] for u in untraced]):.6g} s, "
              f"setup_s = {median([s for u in untraced for s in u['setup_s']]):.6g} s; "
              f"probe kernel median {kernel:.5f} s against the reference {PROBE_REF_S} s; "
              f"probe samples took {100 * probe_share:.1f}% of the timed part, excluded from wall_s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units_of[name]}")

    first = measured[0]
    record = {
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "archive_variant": int(variant),
        "numpy": first["env"]["numpy"],
        "blas": first["env"]["blas"],
        "cpu_count": first["env"]["cpu_count"],
        "nproc": first["env"]["nproc"],
        "blas_threads": BLAS_THREADS,
        "python": first["env"]["python"],
        "hashes": [json.loads(h) for h in sorted({json.dumps(u["hashes"], sort_keys=True) for u in measured})],
        "reference": expected,
        "reference_checked": expected is not None,
        "units": len(units),
        "failed": failed,
        "unit_wall_s": [u["wall_s"] for u in measured],
        "unit_traced": [u["traced"] for u in measured],
        "unit_speed_scale": [speed_scale(u["speed_s"] or u["setup_speed_s"]) for u in measured],
        "unit_setup_speed_scale": [speed_scale(u["setup_speed_s"]) for u in measured],
        "unit_probe_s": [u["probe_s"] for u in measured],
        "unit_setup_s": [u["setup_s"] for u in measured],
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
