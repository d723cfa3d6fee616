"""Record or check ``identity.json``: the sha256 of every output of every
benchmark pool op, so that a change which should leave the CLI's bytes alone
can show it did.

Each op of ``bench/workloads.pool`` runs through ``gravreduce.cli.main`` in
this process, in a fresh directory that its ``{out}`` placeholder points
into, and so do ``verify``, ``verify --quick`` and ``verify --quick --perturb
1e-6``.  An op's digest covers its exit code, stdout, stderr and every file
it wrote, by name.  The digests are keyed by op id, so that a failure names
the op.

The file holds one digest set, with the commit and the Python minor it was
recorded at, and every supported Python checks against it: each float sum
whose bits reach an output adds left to right (``gravreduce.core.ZERO``),
also on 3.12 and later, where ``sum()`` of floats is otherwise compensated.
The corpus detects changes; it is not an oracle (that is ``cli.json``, see
``record.py``).

    python tests/golden/identity.py record    # the digest set, from a clean tree
    python tests/golden/identity.py check     # every op, against the digest set

Run from the repository root; ``check`` exits 1 and names each op whose
digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PATH = Path(__file__).with_name("identity.json")
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "bench"))

import workloads  # noqa: E402
from gravreduce import cli  # noqa: E402

VERIFY = (["verify"], ["verify", "--quick"], ["verify", "--quick", "--perturb", "1e-6"])
# The paths a recording depends on: the package, and the pools it runs.
SOURCES = ("src", "bench/workloads.py")


def minor() -> str:
    return "%d.%d" % sys.version_info[:2]


def ops() -> dict[str, list[str]]:
    """Every op's argv, by id: the pool ops, then the three verify runs."""
    argvs = {spec["id"]: spec["argv"]
             for workload in workloads.CLI_WORKLOADS
             for variants in workloads.pool(workload) for spec in variants}
    argvs.update((" ".join(argv), argv) for argv in VERIFY)
    return argvs


def digest(argv: list[str]) -> str:
    """The sha256 of the exit code, stdout, stderr and written files of
    ``cli.main(argv)``, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as workdir:
        out, err = io.StringIO(), io.StringIO()
        argv = [arg.replace("{out}", str(Path(workdir, "out"))) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
        for path in sorted(Path(workdir).iterdir()):
            parts += [path.name.encode(), path.read_bytes()]
    h = hashlib.sha256()
    for part in parts:
        h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


def recorded() -> dict:
    """The digest set: its commit, Python minor and digests by op id."""
    return json.loads(PATH.read_text())


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def record() -> int:
    dirty = _git("status", "--porcelain", "--", *SOURCES)
    if dirty:
        print(f"refusing to record from a dirty tree:\n{dirty}", file=sys.stderr)
        return 2
    digests = {op: digest(argv) for op, argv in ops().items()}
    PATH.write_text(json.dumps({"commit": _git("rev-parse", "HEAD").strip(), "python": minor(),
                                "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for Python {minor()} to {PATH}", file=sys.stderr)
    return 0


def check() -> int:
    expected = recorded()
    argvs = ops()
    changed = [op for op in argvs if digest(argvs[op]) != expected["digests"].get(op)]
    changed += sorted(set(expected["digests"]) - set(argvs))
    for op in changed:
        print(f"{op}: output differs from {expected['commit'][:7]}'s", file=sys.stderr)
    print(f"{len(argvs) - len(changed)} of {len(argvs)} ops byte-identical "
          f"(Python {minor()})")
    return 1 if changed else 0


if __name__ == "__main__":
    if sys.argv[1:] not in (["record"], ["check"]):
        sys.exit(__doc__)
    sys.exit(record() if sys.argv[1] == "record" else check())
