"""Record the study_bundle reference: manifest rows and table values.

    python3 perfbench/record_reference.py

Writes ``perfbench/study_bundle_reference.json`` for every size in
``bench.BUNDLE_CONFIGS``.  The benchmark compares each bundle it produces
against this file within ``bench.TABLE_RTOL``/``TABLE_ATOL``.  Re-record only
in a change that means to move the bundle, and say by how much.
"""

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from run import THREAD_VARS


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import bench
    from apeuler import cli

    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=here.parent))
    try:
        for size, text in bench.BUNDLE_CONFIGS.items():
            path = workdir / f"{size}.cfg"
            path.write_text(text, encoding="utf-8")
            outdir = workdir / size
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main(["run", "--config", str(path),
                                 "--out", str(outdir)])
            if code != 0:
                print(f"{size}: apeuler run exited with {code}", file=sys.stderr)
                return 1
            reference[size] = bench.bundle_snapshot(outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
