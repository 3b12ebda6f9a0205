"""The bytes of every file a tiny run tree writes, against a stored manifest.

    python tests/golden.py [--update]

``build(root)`` writes the configs and a small digit archive under
``root/configs`` and every output under ``root/out``:

- ``gemmine run`` of four miners on 2-10-2 blobs, seeds 1 and 2, each with
  every sanity kind it allows: Gem-Miner (lambda 1e-4, ``shuffle:5``),
  edge-popup global + gradual, IMP ``warm:1`` (2 rounds of 2 epochs) and
  smart-ratio v1;
- ``mine``, ``finetune --checkpoint`` and ``sanity --checkpoint`` of the
  Gem-Miner config's seed-1 files into ``out/cli``, and ``report``, which
  rebuilds the Gem-Miner run's ``summary.csv`` after ``run``'s own copy is
  moved to ``summary.run.csv``;
- an ``idx`` run on 60 training digits (784-8-10), with
  ``task.val_fraction = 0`` and a ``task.path`` relative to its config;
- a run whose finetune diverges, so that it writes ``errors.log``.

Every command goes through ``cli.main``. ``manifest(root)`` maps each
output's path, relative to ``root/out``, to its sha256 and size. Rule:
``errors.log`` is hashed by its ``seed <K>: ...`` lines only, because its
tracebacks name source lines that every edit moves.

The bits depend on the BLAS kernel, so the manifest is
``golden/<kernel>.json``, named by the kernel in the OpenBLAS runtime
string that ``perfbench/unit.py``'s ``blas_info`` reads. Without
``--update`` the script names each changed, missing or extra file and
exits 1 if there is one; ``--update`` rewrites this kernel's manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gemmine.cli import main  # noqa: E402
from gemmine.data import make_digit_archive  # noqa: E402

BLOBS = """task.kind = blobs
task.n = 80
task.noise = 0.3
task.seed = 4
net.widths = 2,10,2
miner.lr = 0.1
miner.batch_size = 16
schedule.sparsity = 0.3
schedule.epochs = 4
schedule.freeze_period = 2
finetune.epochs = 3
finetune.lr = 0.1
finetune.batch_size = 16
seeds = 1,2
"""

CONFIGS = {
    "gem": BLOBS + "miner.algorithm = gem\nminer.lambda = 1e-4\nsanity = shuffle:5,reinit,invert\n",
    "ep": BLOBS + "miner.algorithm = ep\nep.scope = global\nep.gradual = true\nsanity = shuffle,reinit,invert\n",
    "imp": BLOBS + "miner.algorithm = imp\nimp.rounds = 2\nimp.epochs_per_round = 2\nimp.rewind = warm:1\nsanity = shuffle,reinit,invert\n",
    "sr": BLOBS + "miner.algorithm = sr\nsr.variant = v1\nsanity = shuffle,reinit\n",
    "digits": """task.kind = idx
task.path = digits
task.val_fraction = 0
net.widths = 784,8,10
miner.algorithm = gem
schedule.sparsity = 0.5
schedule.epochs = 2
schedule.freeze_period = 1
finetune.epochs = 1
sanity = shuffle,reinit,invert
seeds = 1
""",
    # a finetune step this large overflows to a NaN loss on every cell of the seed
    "diverge": BLOBS.replace("finetune.lr = 0.1", "finetune.lr = 1e300").replace("seeds = 1,2", "seeds = 1")
    + "miner.algorithm = gem\nsanity = shuffle\n",
}

MANIFESTS = HERE / "golden"


def _cli(*argv: str, status: int = 0) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        got = main(list(argv))
    if got != status:
        raise RuntimeError(f"gemmine {' '.join(argv)}: exit code {got}, expected {status}\n{err.getvalue()}")


def build(root: Path) -> Path:
    """Write the tree under ``root``; the directory of its outputs."""
    configs, out = root / "configs", root / "out"
    make_digit_archive(configs / "digits", n_train=60, n_test=20, seed=0, noise=0.25)
    for name, text in CONFIGS.items():
        (configs / f"{name}.cfg").write_text(f"run.id = {name}\n{text}")
    for name in ("gem", "ep", "imp", "sr", "digits"):
        _cli("run", "--config", str(configs / f"{name}.cfg"), "--out-dir", str(out / "run"))
    _cli("run", "--config", str(configs / "diverge.cfg"), "--out-dir", str(out / "run"), status=1)

    gem = ["--config", str(configs / "gem.cfg")]
    _cli("mine", *gem, "--seed", "1", "--out-dir", str(out / "cli"))
    checkpoint = str(out / "cli" / "gem" / "masks" / "seed1_none.tfmc")
    _cli("finetune", *gem, "--seed", "1", "--checkpoint", checkpoint, "--out-dir", str(out / "cli"))
    _cli("sanity", *gem, "--seed", "1", "--checkpoint", checkpoint, "--out-dir", str(out / "cli"))
    summary = out / "run" / "gem" / "summary.csv"
    summary.rename(summary.with_suffix(".run.csv"))
    _cli("report", *gem, "--out-dir", str(out / "run"))
    return out


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "errors.log":
        data = b"".join(line for line in data.splitlines(keepends=True) if re.match(rb"seed \d+: ", line))
    return data


def manifest(out: Path) -> dict[str, dict]:
    """Each file under ``out`` by its relative path: the sha256 and size of its content (``errors.log``: its seed lines)."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = _content(path)
        files[path.relative_to(out).as_posix()] = {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}
    return files


def differences(expected: dict[str, dict], actual: dict[str, dict]) -> list[str]:
    """One line per changed, missing or extra file."""
    lines = [f"changed: {p}" for p in sorted(expected.keys() & actual.keys()) if expected[p] != actual[p]]
    lines += [f"missing: {p}" for p in sorted(expected.keys() - actual.keys())]
    lines += [f"extra: {p}" for p in sorted(actual.keys() - expected.keys())]
    return lines


def blas_kernel() -> str | None:
    """The kernel OpenBLAS picked on this CPU, from its runtime string; ``None`` for another BLAS."""
    spec = importlib.util.spec_from_file_location("perfbench_unit_for_golden", HERE.parent / "perfbench" / "unit.py")
    module = importlib.util.module_from_spec(spec)
    path = [*sys.path]
    try:
        spec.loader.exec_module(module)  # it puts perfbench/ on sys.path
    finally:
        sys.path[:] = path
    match = re.search(r"(\S+) MAX_THREADS=", module.blas_info().get("runtime") or "")
    return match and match.group(1)


def manifest_path(kernel: str) -> Path:
    return MANIFESTS / f"{kernel}.json"


def built_manifest() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return manifest(build(Path(tmp)))


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite this kernel's manifest")
    args = parser.parse_args(argv)
    kernel = blas_kernel()
    if kernel is None:
        print("no OpenBLAS runtime string, so no kernel to name a manifest by", file=sys.stderr)
        return 1
    path = manifest_path(kernel)
    actual = built_manifest()
    if args.update:
        MANIFESTS.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(actual)} files)")
        return 0
    if not path.exists():
        print(f"no manifest for kernel {kernel}: {path}", file=sys.stderr)
        return 1
    lines = differences(json.loads(path.read_text()), actual)
    print("\n".join(lines) or f"{len(actual)} files match {path}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(_main())
