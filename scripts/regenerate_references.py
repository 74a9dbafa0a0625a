"""Rewrite the reference outputs in ``tests/reference/`` and their manifest.

    PYTHONPATH=src python scripts/regenerate_references.py           # rewrite
    PYTHONPATH=src python scripts/regenerate_references.py --check   # report only

It runs README's example generate, fit and sweep commands and the three
benchmark workloads at seed 0 in a temporary directory
(``tests/reference_outputs.py`` says which). It prints each file's old and
new sha256 and any value that misses the committed one by more than
``reference_outputs.RTOL``. With ``--check`` it then writes nothing, and exits
1 if any value missed. Otherwise it copies the new files over the old and
writes ``manifest.json``: each file's sha256, ``SCHEMA_VERSION`` and this
environment (numpy's version, its OpenBLAS file name and config string). A
change that moves output values bumps ``SCHEMA_VERSION`` first, and lists
the old -> new sha256s it prints.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import reference_outputs as ref  # noqa: E402
from qlimits.errors import write_json  # noqa: E402
from qlimits.scaling import SCHEMA_VERSION  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare only; write nothing")
    args = parser.parse_args(argv)
    old_digests = ref.read_manifest()["files"] if ref.MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        ref.run_workloads(out)
        ref.run_readme_commands(out)
        environment = ref.environment()
        digests, misses = {}, 0
        for name in ref.FILES:
            new = (out / name).read_bytes()
            digests[name] = ref.sha256(new)
            old_path = ref.REFERENCE_DIR / name
            old_digest = old_digests.get(name)
            status = "new" if old_digest is None else "unchanged" if old_digest == digests[name] else "changed"
            print(f"{name}: {old_digest} -> {digests[name]} ({status})")
            if old_path.exists():
                for line in ref.value_mismatches(name, new, old_path.read_bytes()):
                    print(f"  value miss: {line}")
                    misses += 1
        if args.check:
            return 1 if misses else 0
        ref.REFERENCE_DIR.mkdir(exist_ok=True)
        for name in ref.FILES:
            shutil.copyfile(out / name, ref.REFERENCE_DIR / name)
    manifest = {"schema_version": SCHEMA_VERSION, "environment": environment, "files": digests}
    write_json(ref.MANIFEST, manifest)
    print(f"wrote {len(digests)} files and {ref.MANIFEST.name} to {ref.REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
