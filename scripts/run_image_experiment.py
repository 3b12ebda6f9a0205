"""End-to-end image experiment: generate the digit archive, mine a sparse
subnetwork per seed, run the sanity-variant matrix, and print the summary.
The set-up is ``configs/digits_gem.cfg`` at the ``--sparsity`` target.

    python scripts/run_image_experiment.py --out-dir out --sparsity 0.05
"""

import argparse
from pathlib import Path

from gemmine.config import build_experiment_config
from gemmine.data import make_digit_archive
from gemmine.harness import read_summary, run_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "digits_gem.cfg"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--sparsity", type=float, default=0.05)
    parser.add_argument("--noise", type=float, default=1.0)
    args = parser.parse_args()

    data_dir = Path(args.out_dir) / "digits_data"
    make_digit_archive(data_dir, n_train=1250, n_test=400, seed=5, noise=args.noise)
    # a repeated key takes its last value: these replace the file's data path and target
    text = CONFIG.read_text() + f"task.path = {data_dir}\nschedule.sparsity = {args.sparsity}\n"
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
