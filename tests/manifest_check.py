"""Test helper: check a manifest written by storage.write_manifest."""

from pathlib import Path

from menkf.storage import read_json, sha256_file


def verify_manifest(path) -> list[str]:
    """Names of manifest entries whose checksum no longer matches."""
    manifest = read_json(path)
    base = Path(path).parent
    bad = []
    for name, digest in manifest.get("files", {}).items():
        target = base / name
        if not target.exists() or sha256_file(target) != digest:
            bad.append(name)
    return bad
