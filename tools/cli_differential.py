"""Differential of the command line between two source trees.

Usage:

    python3 tools/cli_differential.py PARENT_SRC CHANGE_SRC --seed S --docs N

Writes N instance documents, each a small valid document with one to three
random mutations (prices that fall or tie, a broken concave flag, sizes out
of order or missing, availability outside the capacity, repeated ids, bad
ids, bad or missing fields, lines moved or repeated, odd whitespace, huge or
malformed numbers, prefixes glued to a bidder line, comments that hold a
bidder line or a line break other than "\\n", fields reordered, blank
lines, a line of more than 1000 sizes, a bidder line whose schedule cannot
be built before a repeated id, an availability above the capacity or a
missing field, CRLF line endings, no final newline, and so on), into a
temporary directory; some documents carry a comment as
``gen`` writes one.  Each source tree (the directory that holds the
``avauction`` package) then runs in its own process, which calls
``avauction.cli.main`` in-process for every document through ``charge``
and ``solve``, each with and without ``--service``, and records the exit
code, stdout and stderr of each call.
Every mismatch between the two trees is printed with the kinds of its
document's mutations; the last line counts the documents, the runs, the
exit codes seen, the mismatches, and the mismatches by mutation kind (a
run whose document had two kinds counts for both).  The exit status is 1
when there is a mismatch.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SERVICES = ("splittable", "nonsplittable", "private")
# The line breaks of ``str.splitlines`` besides "\n" ("\r" and "\r\n" reach
# the parser as "\n", since documents are read with universal newlines).
BREAKS = ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# Whole-part digit counts around the price bound (a price below 10**200
# micros has at most 194 whole digits), and around the 4300 digits ``int``
# reads from text by default.
WHOLE_DIGITS = (193, 194, 195, 4300, 4301)


def _price(micros: int) -> str:
    return f"{micros // 10**6}.{micros % 10**6:06d}"


def base_document(rng: random.Random) -> list[str]:
    """A valid document's lines, bidder lines as the serializer writes them."""
    capacity = rng.randint(1, 6)
    lines = [
        "avauction-instance v1",
        *(["# generated: comment"] if rng.random() < 0.3 else []),
        f"capacity {capacity}",
        f"requested_seats {rng.randint(1, capacity)}",
        f"service {rng.choice(SERVICES)}",
    ]
    for j in range(rng.randint(1, 6)):
        available = rng.randint(0, capacity)
        concave = rng.random() < 0.5
        level, step, items = rng.randint(0, 3) * 10**5, rng.randint(5, 9) * 10**5, []
        for m in range(1, available + 1):
            level += step
            items.append(f" {m}:{_price(level)}")
            step = max(1, step - rng.randint(0, 10**5)) if concave else rng.randint(1, 10**6)
        lines.append(f"bidder b{j} available {available}{' concave' if concave else ''} prices"
                     + "".join(items))
    return lines


def _bidder_rows(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if line.startswith("bidder ")]


def _edit_prices(rng: random.Random, line: str) -> tuple[str, str]:
    head, sep, items = line.partition(" prices")
    parts = items.split()
    if not parts:
        return line + rng.choice([" 1:0.1", " 0:0.1", " 1:-1"]), "prices-added"
    i = rng.randrange(len(parts))
    size, _, price = parts[i].partition(":")
    kind = rng.randrange(10)
    if kind == 0:  # a price that falls or ties
        j = rng.randrange(len(parts))
        parts[i] = f"{size}:{parts[j].partition(':')[2]}"
    elif kind == 1:  # sizes out of order
        j = rng.randrange(len(parts))
        parts[i], parts[j] = parts[j], parts[i]
    elif kind == 2:  # a size missing
        del parts[i]
    elif kind == 3:  # a size past the availability, or repeated
        parts.append(rng.choice([f"{len(parts) + 1}:9.9", f"{size}:9.9", f"{len(parts) + 2}:9.9"]))
    elif kind == 4:  # malformed money
        parts[i] = f"{size}:{rng.choice(['1.2345678', '-1', 'abc', '1e3', '.5', '5.', '', '1_0'])}"
    elif kind == 5:  # malformed size
        parts[i] = f"{rng.choice(['01', '+1', 'x', '0', '-1', '1.0', ''])}:{price}"
    elif kind == 6:  # a price with many digits
        whole = "9" * rng.choice(WHOLE_DIGITS)
        parts[i] = f"{size}:{whole}.{rng.choice(['', '000000', '5'])}"
    elif kind == 7:  # no colon
        parts[i] = parts[i].replace(":", "")
    elif kind == 8:  # a huge price in serializer form
        parts[i] = f"{size}:{rng.randint(1, 9)}{'0' * (rng.choice(WHOLE_DIGITS) - 1)}.000000"
    else:  # a price of zero
        parts[i] = f"{size}:0"
    return head + sep + "".join(f" {p}" for p in parts), f"prices-{kind}"


def _edit_header(rng: random.Random, line: str) -> tuple[str, str]:
    words = line.split(" ")
    kind = rng.randrange(6)
    if kind == 0 and len(words) > 3:  # availability outside the capacity
        words[3] = str(rng.choice([-1, 0, 7, 9, 10**700]))
    elif kind == 1:  # the concave flag flipped
        if "concave" in words:
            words.remove("concave")
        else:
            words.insert(4, "concave")
    elif kind == 2 and len(words) > 1:  # a repeated or bad id
        words[1] = rng.choice(["b0", "b1", "x/y", "é", "available", "-"])
    elif kind == 3 and len(words) > 3:  # malformed availability
        words[3] = rng.choice(["x", "1.5", "", "٣", "+2"])
    elif kind == 4:  # a keyword dropped
        for word in ("available", "prices"):
            if word in words and rng.random() < 0.5:
                words.remove(word)
    else:  # a keyword misspelt
        words[0] = rng.choice(["bidder", "Bidder", "bid"])
    return " ".join(words), f"header-{kind}"


def mutate(rng: random.Random, lines: list[str]) -> tuple[list[str], str]:
    """The lines with one random mutation, and its kind: ``prices-K`` or
    ``header-K`` for an edit of one bidder line (K as in ``_edit_prices``
    and ``_edit_header``), ``doc-K`` for the others (K as below; kind 18
    adds its later fault, ``doc-18-repeated-id`` and so on)."""
    lines = list(lines)
    rows = _bidder_rows(lines)
    fields = [i for i, line in enumerate(lines)
              if line.split(" ")[0] in ("capacity", "requested_seats", "service")]
    kind = rng.randrange(19)
    if kind <= 3 and rows:
        i = rng.choice(rows)
        lines[i], label = _edit_prices(rng, lines[i])
        return lines, label
    elif kind <= 5 and rows:
        i = rng.choice(rows)
        lines[i], label = _edit_header(rng, lines[i])
        return lines, label
    elif kind == 6 and rows:  # a repeated bidder line
        i = rng.choice(rows)
        lines.insert(rng.randint(1, len(lines)), lines[i])
    elif kind == 7 and fields:  # a field changed
        i = rng.choice(fields)
        name = lines[i].split(" ")[0]
        values = {"capacity": ["0", "-1", "1", "3", "7", "five", "10" * 400],
                  "requested_seats": ["0", "-1", "1", "2", "9", "x"],
                  "service": [*SERVICES, "bus", "PRIVATE", ""]}.get(name, ["1"])
        lines[i] = f"{name} {rng.choice(values)}"
    elif kind == 8 and fields:  # a field dropped or repeated
        i = rng.choice(fields)
        if rng.random() < 0.5:
            del lines[i]
        else:
            lines.insert(rng.randint(1, len(lines)), lines[i])
    elif kind == 9:  # a line moved
        line = lines.pop(rng.randrange(1, len(lines)))
        lines.insert(rng.randint(0, len(lines)), line)
    elif kind == 10:  # whitespace, comments and stray lines
        i = rng.randrange(len(lines))
        lines[i] = rng.choice([lines[i].replace(" ", "  "), lines[i] + " ", "\t" + lines[i],
                               lines[i] + " # note", "# " + lines[i], lines[i].replace(" ", "\t")])
        if rng.random() < 0.3:
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "#", "mystery 1", "  "]))
    elif kind == 11:  # the header
        lines[0] = rng.choice(["avauction-instance v1", "avauction-instance v2",
                               "avauction-instance", "# avauction-instance v1"])
    elif kind == 12 and rows:  # a prefix glued to a bidder line
        i = rng.choice(rows)
        lines[i] = rng.choice(["0", "x", "#", " ", "\t", "\x0c", "bidder ", "1 "]) + lines[i]
    elif kind == 13:  # a comment that holds a bidder line as written
        line = lines[rng.choice(rows)] if rows else "bidder zz available 1 prices 1:0.100000"
        lines.insert(rng.randint(0, len(lines)), rng.choice(["# ", "#", " # "]) + line)
    elif kind == 14:  # a comment that holds a line break other than "\n"
        tail = rng.choice(["", "x", "capacity 9", "bidder zz available 1 prices 1:0.100000"])
        lines.insert(rng.randint(0, len(lines)), f"# note{rng.choice(BREAKS)}{tail}")
    elif kind == 15 and fields:  # the fields reordered
        shuffled = [lines[i] for i in fields]
        rng.shuffle(shuffled)
        for i, line in zip(fields, shuffled):
            lines[i] = line
    elif kind == 16:  # blank lines
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", " ", "\t"]))
    elif kind == 17:  # a bidder line of about 1000 sizes, some past 1000
        available, sizes = rng.choice([(1000, 1000), (1001, 1001), (1001, 1000), (1000, 1001)])
        items = "".join(f" {m}:{_price(m * 10**6)}" for m in range(1, sizes + 1))
        lines = [f"capacity {rng.choice([1000, 2000])}" if line.startswith("capacity ") else line
                 for line in lines]
        lines.insert(rng.randint(1, len(lines)), f"bidder wide available {available} prices{items}")
    elif kind == 18:  # a schedule that cannot be built, then a later fault
        fault, later = rng.choice(["repeated-id", "above-capacity", "missing-field"]), None
        if fault == "repeated-id":
            later = rng.choice([lines[i] for i in rows] + ["bidder held available 1 prices 1:0.1"])
        elif fault == "above-capacity":
            later = "bidder high available 7 prices" + "".join(
                f" {m}:{_price(m * 10**6)}" for m in range(1, 8))
        elif fields:
            del lines[rng.choice(fields)]
        at = rng.randint(1, len(lines))
        lines.insert(at, rng.choice([
            "bidder held available 2 prices 1:0.500000 2:0.400000",  # falling
            "bidder held available 2 prices 1:0.500000 2:0.500000",  # tied
            "bidder held available 3 concave prices 1:0.100000 2:0.200000 3:0.400000",
        ]))
        if later is not None:
            lines.insert(rng.randint(at + 1, len(lines)), later)
        return lines, f"doc-18-{fault}"
    return lines, f"doc-{kind}"


def write_documents(seed: int, count: int, directory: Path) -> dict[Path, list[str]]:
    """Each written document's path and the kinds of its mutations."""
    rng = random.Random(seed)
    documents = {}
    for index in range(count):
        lines, kinds = base_document(rng), []
        for _ in range(rng.randint(1, 3)):
            lines, kind = mutate(rng, lines)
            kinds.append(kind)
        # The line endings: "\n", CRLF, or either with no final newline.
        ending = rng.choice(["\n", "\n", "\r\n"])
        text = ending.join(lines) + ending
        if rng.random() < 0.2:
            text = text[:-len(ending)]
            kinds.append("text-no-final-newline")
        if ending == "\r\n":
            kinds.append("text-crlf")
        path = directory / f"doc{index:05d}.txt"
        path.write_bytes(text.encode())
        documents[path] = kinds
    return documents


def argv_lists(paths: list[Path], seed: int) -> list[list[str]]:
    rng = random.Random(seed + 1)
    runs = []
    for path in paths:
        for command in ("charge", "solve"):
            runs.append([command, str(path)])
            runs.append([command, str(path), "--service", rng.choice(SERVICES)])
    return runs


def run_worker() -> None:
    """Read argv lists on stdin as JSON, run each through ``cli.main`` in
    this process, and write one JSON result per argv to stdout."""
    from avauction import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            except Exception as exc:  # a crash is an outcome to compare too
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def run_tree(src: str, runs: list[list[str]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker"],
                          input=json.dumps(runs), capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(done.stdout)


def main() -> int:
    if sys.argv[1:] == ["--worker"]:
        run_worker()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--docs", type=int, default=500)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        documents = write_documents(args.seed, args.docs, Path(tmp))
        runs = argv_lists(list(documents), args.seed)
        parent = run_tree(args.parent_src, runs)
        change = run_tree(args.change_src, runs)
        mismatches, by_kind = 0, Counter()
        for argv, old, new in zip(runs, parent, change):
            if old != new:
                mismatches += 1
                kinds = documents[Path(argv[1])]
                by_kind.update(set(kinds))
                print(f"MISMATCH {' '.join(argv)} ({', '.join(kinds)})\n"
                      f"  document: {Path(argv[1]).read_text()!r}\n"
                      f"  parent: {old!r}\n  change: {new!r}")
        codes = Counter(str(code) for code, _, _ in parent)
    print(json.dumps({"docs": args.docs, "runs": len(runs),
                      "exit_codes": dict(sorted(codes.items())), "mismatches": mismatches,
                      "mismatches_by_kind": dict(sorted(by_kind.items()))}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
