"""One damaged input file of one conference never escapes ``cli.main``.

Each example damages one of small_fixture's per-conference files: it
truncates it, flips a byte, deletes a JSON field or CSV cell, swaps a
value for one of another kind that schema.py reads, or replaces the file
with another conference's file of the same kind.  The run then ends
with exit 0, 1 or 2, and a failed run's last stderr line is its one error
line.
"""

import json
import logging
import os
import shutil
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from earstudy.cli import main

from conftest import write_run_config

# Each conference's input files: directory and suffix.
FILES = {"landmarks": "jsonl", "transcripts": "txt", "segments": "csv", "prices": "csv"}
# A value of each kind that schema.py reads: text, integer, float, boolean,
# null, number list, object, ISO date and ISO instant.
JSON_KINDS = ["text", 7, 0.5, True, None, [0.5, 1.5], {"key": 1}, "2011-04-27",
              "2011-04-27T14:30:00-04:00"]
# The same kinds as CSV cells.
CELL_KINDS = [b"text", b"7", b"0.5", b"true", b"", b"2011-04-27", b"2011-04-27T14:30:00-04:00"]
ERROR_PREFIXES = {1: "configuration error: ", 2: "data error: "}


def damaged(path: Path, draw) -> bytes:
    """The bytes of path with one damage drawn for a file of its suffix."""
    data, suffix = path.read_bytes(), path.suffix[1:]
    kinds = ["truncate", "flip", "misfile"]
    if suffix != "txt":
        kinds += ["delete", "swap"]
    damage = draw(st.sampled_from(kinds))
    if damage == "misfile":
        return draw(st.sampled_from(sorted(set(path.parent.iterdir()) - {path}))).read_bytes()
    if damage == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if damage == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    lines = data.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    if suffix == "jsonl":
        record = json.loads(lines[k])
        key = draw(st.sampled_from(sorted(record)))
        if damage == "delete":
            del record[key]
        else:
            record[key] = draw(st.sampled_from(
                [v for v in JSON_KINDS if type(v) is not type(record[key])]))
        lines[k] = json.dumps(record, separators=(",", ":")).encode()
    else:
        cells = lines[k].split(b",")
        i = draw(st.integers(0, len(cells) - 1))
        if damage == "delete":
            del cells[i]
        else:
            cells[i] = draw(st.sampled_from([v for v in CELL_KINDS if v != cells[i]]))
        lines[k] = b",".join(cells)
    return b"".join(line + b"\n" for line in lines)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_conference_file_ends_in_an_exit_code(small_fixture, tmp_path_factory, capsys,
                                                      data):
    work = tmp_path_factory.mktemp("damaged")
    # Hard links: the one damaged file is replaced, never written through.
    fixture = shutil.copytree(small_fixture, work / "fixture", copy_function=os.link)
    kind = data.draw(st.sampled_from(sorted(FILES)))
    path = fixture / kind / f"conf-{data.draw(st.integers(1, 8)):03d}.{FILES[kind]}"
    content = damaged(path, data.draw)
    path.unlink()
    path.write_bytes(content)
    config_path = write_run_config(work / "config.json", fixture)
    # The warnings go to the captured stderr too, in order with the error line.
    handler = logging.StreamHandler(sys.stderr)
    logging.getLogger().addHandler(handler)
    try:
        code = main(["run", "--config", str(config_path), "--out", str(work / "out")])
    finally:
        logging.getLogger().removeHandler(handler)
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2), err
    errors = [line for line in err if line.startswith(tuple(ERROR_PREFIXES.values()))]
    if code:
        assert errors == err[-1:] and err[-1].startswith(ERROR_PREFIXES[code]), err
    else:
        assert errors == [], err
