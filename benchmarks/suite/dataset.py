"""The benchmark's build step: dataset snapshot, data-dir template, golden.

The "program" is Python, so what a checkout has to build before its
first run is the input the servers start from: a TPC-H snapshot made by
``repro gen`` and an initialised data directory made by ``repro
restore``.  Both are produced by the checkout's own source and cached
under ``.cache/`` keyed by a hash of ``src/repro``, so a changed source
tree never reuses another tree's bytes.  Building takes ~15 s once per
checkout; no run pays it again.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict

from loadgen import digest
from serverproc import ROOT, SRC, SUITE, child_env
from workloads import DATAGEN_SEED, GRIDS, SCALE_FACTOR, query_of

CACHE = SUITE / ".cache"
GOLDEN = SUITE / "golden.json"


def source_fingerprint() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:12]


class Dataset:
    def __init__(self, home: Path, sf: float) -> None:
        self.home = home
        self.sf = sf
        self.snapshot = home / "tpch.smcsnap"
        self.template = home / "datadir"
        self.golden_path = (
            GOLDEN if sf == SCALE_FACTOR else home / "golden.json"
        )
        self.info: Dict[str, Any] = {}

    def golden(self) -> Dict[str, str]:
        return json.loads(self.golden_path.read_text())["digests"]


def _cli(args, scratch: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=child_env(scratch),
        check=True,
        stdout=subprocess.DEVNULL,
    )


def ensure(sf: float = SCALE_FACTOR) -> Dataset:
    """Return the cached dataset for this source tree, building it once."""
    tag = f"sf{sf}-seed{DATAGEN_SEED}"
    home = CACHE / f"{tag}-{source_fingerprint()}"
    data = Dataset(home, sf)
    info_path = home / "build.json"
    if not info_path.exists():
        for stale in CACHE.glob(f"{tag}-*"):
            shutil.rmtree(stale, ignore_errors=True)
        tmp = CACHE / f"building-{tag}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        print(f"building dataset SF {sf} seed {DATAGEN_SEED} ...", file=sys.stderr)
        start = time.perf_counter()
        _cli(["gen", "--sf", str(sf), "--seed", str(DATAGEN_SEED),
              "--out", str(tmp / "tpch.smcsnap")], tmp)
        gen_s = time.perf_counter() - start
        _cli(["restore", str(tmp / "datadir"), str(tmp / "tpch.smcsnap")], tmp)
        info = {
            "scale_factor": sf,
            "datagen_seed": DATAGEN_SEED,
            "gen_s": gen_s,
            "build_s": time.perf_counter() - start,
            "snapshot_bytes": (tmp / "tpch.smcsnap").stat().st_size,
        }
        if sf != SCALE_FACTOR:
            # Another scale has no committed golden file: compute the
            # reference in-process, once per build.
            write_golden(tmp / "tpch.smcsnap", tmp / "golden.json", sf)
        (tmp / "build.json").write_text(json.dumps(info))
        tmp.rename(home)
    data.info = json.loads(info_path.read_text())
    return data


def write_golden(snapshot: Path, out: Path, sf: float) -> None:
    """Digest every (grid, point) with the independent interpreted engine."""
    sys.path.insert(0, str(SRC))
    from repro.io.snapshot import load_collections
    from repro.service import protocol
    from repro.tpch.queries import DEFAULT_PARAMS, EXTRA_QUERIES, QUERIES

    collections = load_collections(str(snapshot))
    digests = {}
    for grid, points in GRIDS.items():
        name = query_of(grid)
        query = (QUERIES.get(name) or EXTRA_QUERIES[name])(collections)
        for i, point in enumerate(points):
            params = dict(DEFAULT_PARAMS)
            params.update(protocol.decode_value(point))
            result = query.run(engine="interpreted", params=params)
            digests[f"{grid}#{i}"] = digest(
                {
                    "columns": list(result.columns),
                    "rows": protocol.encode_rows(result.rows),
                }
            )
    collections["_manager"].close()
    out.write_text(
        json.dumps(
            {
                "scale_factor": sf,
                "datagen_seed": DATAGEN_SEED,
                "engine": "interpreted",
                "digests": digests,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


def regen_golden() -> None:
    write_golden(ensure().snapshot, GOLDEN, SCALE_FACTOR)
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
