"""``repro-store`` command line: cache-dir operations for operators.

Examples::

    repro-store stats
    repro-store gc --max-bytes 2G
    repro-store gc --cache-dir /var/cache/repro --max-bytes 512M --dry-run

The cache directory resolves like everywhere else: ``--cache-dir`` >
``$REPRO_CACHE_DIR`` > the package default.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.store.filestore import resolve_cache_dir
from repro.store.gc import collect_garbage, scan_entries

_SIZE_SUFFIXES = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_size(text: str) -> int:
    """Parse ``"512M"``/``"2g"``/``"1048576"`` into bytes."""
    raw = text.strip().lower().removesuffix("b")
    suffix = raw[-1:] if raw[-1:] in _SIZE_SUFFIXES and raw[-1:].isalpha() else ""
    number = raw[: len(raw) - len(suffix)]
    try:
        value = float(number)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unreadable size: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0: {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


def format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Operate on a repro result-store cache directory.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or the package default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="entry count, bytes, access ages")
    stats.add_argument(
        "-v", "--verbose", action="store_true", help="list every entry"
    )

    gc = sub.add_parser(
        "gc", help="LRU-collect entries down to a total-bytes budget"
    )
    gc.add_argument(
        "--max-bytes",
        type=parse_size,
        required=True,
        help="keep at most this many entry bytes (suffixes k/M/G/T)",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without touching disk",
    )
    gc.add_argument(
        "-v", "--verbose", action="store_true", help="list removed keys"
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = resolve_cache_dir(args.cache_dir)

    if args.command == "stats":
        entries = scan_entries(root)
        total = sum(info.nbytes for info in entries)
        print(f"cache dir: {root}")
        print(f"entries:   {len(entries)}")
        print(f"bytes:     {total} ({format_bytes(total)})")
        if entries:
            now = time.time()
            oldest = min(info.atime for info in entries)
            newest = max(info.atime for info in entries)
            print(f"oldest access: {now - oldest:.0f}s ago")
            print(f"newest access: {now - newest:.0f}s ago")
        if args.verbose:
            for info in entries:
                print(f"{info.key}  {info.nbytes}  atime={info.atime:.0f}")
        return 0

    report = collect_garbage(
        root, max_bytes=args.max_bytes, dry_run=args.dry_run
    )
    verb = "would remove" if report.dry_run else "removed"
    print(
        f"{verb} {report.removed_entries}/{report.scanned_entries} entries "
        f"({format_bytes(report.removed_bytes)} of "
        f"{format_bytes(report.scanned_bytes)}), "
        f"kept {report.kept_entries} ({format_bytes(report.kept_bytes)}) "
        f"within budget {format_bytes(report.budget_bytes)}"
    )
    if report.stale_tmp_dirs:
        print(f"{verb} {report.stale_tmp_dirs} stale tmp scratch item(s)")
    if args.verbose:
        for key in report.removed_keys:
            print(f"{verb}: {key}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
