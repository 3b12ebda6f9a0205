"""Generate a synthetic 10-class digit-style IDX archive.

The archive uses the conventional MNIST file names, so any IDX-format
dataset dropped into the same layout works with `task.kind = idx` configs.
A flag that is not given takes `gemmine.data.make_digit_archive`'s default,
which is the archive `configs/*.cfg` read at `data/digits`.

    python scripts/make_digits.py --out data/digits [--train N] [--test N] [--seed S] [--noise SIGMA]
"""

import argparse

from gemmine.data import make_digit_archive


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--train", type=int, dest="n_train")
    parser.add_argument("--test", type=int, dest="n_test")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--noise", type=float)
    args = vars(parser.parse_args())
    directory = make_digit_archive(args.pop("out"), **args)
    print(f"wrote IDX archive to {directory}")


if __name__ == "__main__":
    main()
