"""One digest of the CLI's answers to every benchmark request.

Runs every request of the three benchmark workloads at seeds 1 and 2
through `hypermult.cli.run` in-process, then prints the request count and
one SHA-256 over the exit codes, stdouts and stderrs, in request order.
Two checkouts that print the same line answered every request byte for
byte alike.  Run it from the repository root:

    python tests/workload_digest.py

`tests/test_workload_digest.py` pins the line in the test suite, so an
intended change of any answer must update that pin.

It imports hypermult from this checkout's `src/` and loads
`benchmarks/workloads.py` by path, without editing it.  The input files
are written to a temporary directory, whose path is replaced by a fixed
placeholder before hashing, and an exception is recorded by its type and
message only, so the digest does not depend on where the checkout lives.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PATH = ROOT / "benchmarks" / "workloads.py"
SEEDS = (1, 2)


def load_workloads():
    spec = importlib.util.spec_from_file_location("hypermult_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def digest_line() -> str:
    """'<count> requests, sha256 <hex>' over every request's answer."""
    sys.path.insert(0, str(ROOT / "src"))
    from hypermult import cli

    workloads = load_workloads()
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                for i, req in enumerate(workloads.WORKLOADS[name](seed)):
                    path = Path(tmp) / f"{name}-{seed}-{i:04d}.form"
                    path.write_text(req.form_text, encoding="utf-8")
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        try:
                            code = str(cli.run([req.command, "--input", str(path), *req.extra]))
                        except Exception as exc:  # recorded, so a crash changes the digest
                            code = f"{type(exc).__name__}: {exc}"
                    for part in (code, out.getvalue(), err.getvalue()):
                        digest.update(part.replace(tmp, "<tmp>").encode("utf-8") + b"\0")
                    count += 1
    return f"{count} requests, sha256 {digest.hexdigest()}"


if __name__ == "__main__":
    print(digest_line())
