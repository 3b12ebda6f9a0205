"""End-to-end image experiment: generate the digit archive, mine a sparse
subnetwork per seed, run the sanity-variant matrix, and print the summary.
The set-up is ``configs/digits_gem.cfg``, on a fresh archive written by
``gemmine.data.make_digit_archive`` to ``<out-dir>/digits_data``.
``--sparsity`` replaces the file's target and ``--noise`` the archive's;
a flag that is not given leaves the value as it is.

    python scripts/run_image_experiment.py --out-dir out [--sparsity 0.1] [--noise SIGMA]
"""

import argparse
from pathlib import Path

from gemmine.config import build_experiment_config, with_value
from gemmine.data import make_digit_archive
from gemmine.harness import read_summary, run_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "digits_gem.cfg"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--sparsity", type=float)
    parser.add_argument("--noise", type=float)
    args = parser.parse_args()

    data_dir = Path(args.out_dir).resolve() / "digits_data"
    make_digit_archive(data_dir, **({} if args.noise is None else {"noise": args.noise}))
    # a repeated key takes its last value: these replace the file's data path and, when given, its target;
    # the path is absolute, so the run's config.snapshot can be run again from any directory
    text = with_value(CONFIG.read_text(), "task.path", data_dir)
    if args.sparsity is not None:
        text = with_value(text, "schedule.sparsity", args.sparsity)
    cfg = build_experiment_config(text)
    run_dir = run_experiment(cfg, args.out_dir)

    print(f"artifacts in {run_dir}")
    for row in read_summary(run_dir / "summary.csv"):
        print(
            f"  {row['algorithm']:>4} {row['variant']:>8} seed={row['seed']} "
            f"sparsity={float(row['sparsity']):.4f} pre={float(row['pre_acc']):.3f} post={float(row['post_acc']):.3f}"
        )


if __name__ == "__main__":
    main()
