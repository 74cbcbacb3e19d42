"""Record the pareto-dense reference boundary at the reference seed.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/pareto_seed1.csv.gz`` (columns N, o_mu, o_un)
from the package under ``src/``; the pareto-dense check compares every
output at that seed with it.
"""

import gzip
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mmjoint import cli  # noqa: E402
from workloads import REFERENCE, REFERENCE_SEED, ParetoDense  # noqa: E402


def main():
    workdir = ROOT / ".perfbench" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = ParetoDense(workdir, REFERENCE_SEED)
    if cli.main(workload.argv(workdir / "out")) != 0:
        sys.exit("pareto failed")
    rows = [line.split(",") for line in
            (workdir / "out" / "pareto.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    REFERENCE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(("N,o_mu,o_un\n" + "".join(
            f"{n},{o_mu},{o_un}\n" for n, _, _, o_mu, o_un in rows)).encode())
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
