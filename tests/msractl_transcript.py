#!/usr/bin/env python3
"""Transcript test for the msractl command-line front end.

Runs every command of msractl_session.txt against the given msractl binary,
in a fresh temporary directory, and compares the transcript (stdout, stderr
and exit code of each command, plus every `--json FILE` document) byte for
byte with the committed msractl_session.expected. Every JSON document must
also parse: bare `--json` stdout, and each `--json FILE`.

  python3 tests/msractl_transcript.py build/tools/msractl            # check
  python3 tests/msractl_transcript.py build/tools/msractl --update   # rewrite

Session syntax: one `msractl ...` command per line, split like a POSIX
shell; `$TMP` stands for the temporary directory, which is also the working
directory; `#` starts a comment.
"""
import difflib
import json
import os
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SESSION = os.path.join(HERE, "msractl_session.txt")
EXPECTED = os.path.join(HERE, "msractl_session.expected")


def json_target(argv):
    """None without --json, "" for bare --json, else the FILE argument."""
    for i, token in enumerate(argv):
        if token.startswith("--json="):
            return token[len("--json="):]
        if token == "--json":
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                return argv[i + 1]
            return ""
    return None


def run_session(msractl, tmp):
    out = []
    errors = []
    with open(SESSION) as session:
        lines = [line.strip() for line in session]
    for line in lines:
        if not line or line.startswith("#"):
            continue
        argv = [token.replace("$TMP", tmp) for token in shlex.split(line)]
        if argv[0] != "msractl":
            sys.exit(f"session line does not start with msractl: {line}")
        argv = argv[1:]
        target = json_target(argv)
        if target:
            target = os.path.join(tmp, target)
            if os.path.exists(target):
                os.remove(target)
        proc = subprocess.run([msractl] + argv, cwd=tmp, capture_output=True,
                              text=True)
        code = proc.returncode if proc.returncode >= 0 else 128 - proc.returncode
        out.append("$ " + line)
        out.extend(proc.stdout.replace(tmp, "$TMP").splitlines())
        out.extend("2> " + text
                   for text in proc.stderr.replace(tmp, "$TMP").splitlines())
        if target == "" and proc.stdout:
            try:
                json.loads(proc.stdout)
            except ValueError as err:
                errors.append(f"{line}: stdout is not one JSON document: {err}")
        if target:
            if not os.path.exists(target):
                errors.append(f"{line}: --json FILE was not written")
            else:
                with open(target) as f:
                    document = f.read()
                out.append(f"--- {os.path.relpath(target, tmp)}")
                out.extend(document.splitlines())
                try:
                    json.loads(document)
                except ValueError as err:
                    errors.append(f"{line}: FILE is not one JSON document: {err}")
        out.append(f"[exit {code}]")
    return "\n".join(out) + "\n", errors


def main():
    if len(sys.argv) not in (2, 3) or sys.argv[2:] not in ([], ["--update"]):
        sys.exit("usage: msractl_transcript.py MSRACTL [--update]")
    msractl = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory(prefix="msractl-") as tmp:
        transcript, errors = run_session(msractl, tmp)
    for error in errors:
        print("error:", error)
    if sys.argv[2:] == ["--update"]:
        with open(EXPECTED, "w") as f:
            f.write(transcript)
        print(f"wrote {EXPECTED}")
        return 1 if errors else 0
    with open(EXPECTED) as f:
        expected = f.read()
    if transcript != expected:
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(True), transcript.splitlines(True),
            "msractl_session.expected", "actual"))
        return 1
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
