#!/usr/bin/env python3
"""Scripted xicd client: speaks the xic/1 wire protocol for CI smoke tests.

Starts (or connects to) an xicd daemon and exercises the serving paths
end-to-end:

  * ping / schema.put / validate (cold compile, then cache hit)
  * imply (memoized second round-trip)
  * session.open / session.apply / session.close
  * trace-id echo: client tokens come back verbatim, server-derived ids
    are deterministic per request id
  * stats.prom validated with a strict text-format parser (HELP/TYPE
    lines, sorted families, cumulative histogram buckets, +Inf == _count)
    and counter monotonicity across two scrapes
  * debugz flight-recorder dump (and, with --faults, shed/fault flags in
    the dump)
  * explicit error frames for malformed input
  * with --faults: a fault-injected run asserting transparent retry and
    explicit unavailable + retry-after-ms shedding
  * graceful SIGTERM drain: in-flight requests are answered, exit code 0

Usage:
  tools/xicd_client.py --xicd build/examples/xicd [--faults]
  tools/xicd_client.py --port 7677        # against an already-running daemon

Exit code 0 when every check passed, 1 otherwise.
"""

import argparse
import re
import signal
import socket
import subprocess
import sys
import threading
import time

SCHEMA = """<?xml version="1.0"?>
<!DOCTYPE bib [
<!ELEMENT bib (entry*)>
<!ELEMENT entry EMPTY>
<!ATTLIST entry isbn CDATA #REQUIRED>
<!-- xic:constraints
key entry.isbn
-->
]>
<bib/>
"""

# An NMTOKENS source of a set-valued foreign key: a session's "set" of
# two space-separated values must arrive as two members.
SET_SCHEMA = """<?xml version="1.0"?>
<!DOCTYPE list [
<!ELEMENT list (item*)>
<!ELEMENT item EMPTY>
<!ATTLIST item id CDATA #REQUIRED refs NMTOKENS #IMPLIED>
<!-- xic:constraints language=L_u
key item.id
sfk item.refs -> item.id
-->
]>
<list/>
"""

GOOD_DOC = SCHEMA.replace("<bib/>", '<bib><entry isbn="1"/><entry isbn="2"/></bib>')
DUP_DOC = SCHEMA.replace("<bib/>", '<bib><entry isbn="1"/><entry isbn="1"/></bib>')

CHECKS = {"passed": 0, "failed": 0}


def check(condition, label):
    if condition:
        CHECKS["passed"] += 1
    else:
        CHECKS["failed"] += 1
        print(f"FAIL: {label}", file=sys.stderr)
    return condition


PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r'(?:\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*)\})?'  # labels
    r" (\S+)$")                              # value


def parse_prometheus(text):
    """Strict parser for the exposition subset xic emits.

    Enforces: every sample is preceded by its family's # HELP then # TYPE
    line, family names are sorted, names match the Prometheus charset,
    histogram buckets are cumulative with a final le="+Inf" bucket whose
    value equals _count. Returns {family: {"type": t, "samples":
    [(name, labels, value)]}}; raises ValueError on any violation.
    """
    families = {}
    order = []
    current = None

    def family_of(name):
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                return name[: -len(suffix)]
        return name

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            raise ValueError(f"line {lineno}: blank line in exposition")
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, _help = rest.partition(" ")
            if not PROM_NAME.match(name):
                raise ValueError(f"line {lineno}: bad HELP name {name!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate HELP for {name}")
            families[name] = {"type": None, "samples": []}
            order.append(name)
            current = name
        elif line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            if name != current:
                raise ValueError(
                    f"line {lineno}: TYPE {name} does not follow its HELP")
            if kind not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: bad type {kind!r}")
            families[name]["type"] = kind
        elif line.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected comment {line!r}")
        else:
            match = PROM_SAMPLE.match(line)
            if not match:
                raise ValueError(f"line {lineno}: unparseable sample {line!r}")
            name, labels_text, value_text = match.groups()
            family = family_of(name)
            if family != current:
                raise ValueError(
                    f"line {lineno}: sample {name} outside its family block")
            if families[family]["type"] is None:
                raise ValueError(f"line {lineno}: sample before TYPE")
            labels = {}
            if labels_text:
                for part in re.findall(
                        r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                        labels_text):
                    labels[part[0]] = (part[1].replace(r"\n", "\n")
                                       .replace(r"\"", '"')
                                       .replace(r"\\", "\\"))
            value = float(value_text)  # accepts +Inf/NaN renderings too
            families[family]["samples"].append((name, labels, value))
    if order != sorted(order):
        raise ValueError("family names are not sorted")
    for name, family in families.items():
        if not family["samples"]:
            raise ValueError(f"family {name} has HELP/TYPE but no samples")
        if family["type"] != "histogram":
            continue
        buckets = [s for s in family["samples"] if s[0] == name + "_bucket"]
        counts = [s for s in family["samples"] if s[0] == name + "_count"]
        if not buckets or len(counts) != 1:
            raise ValueError(f"histogram {name} missing buckets or _count")
        last = -1.0
        prev_le = None
        for _, labels, value in buckets:
            if "le" not in labels:
                raise ValueError(f"histogram {name} bucket without le")
            le = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
            if prev_le is not None and le <= prev_le:
                raise ValueError(f"histogram {name} le values not increasing")
            if value < last:
                raise ValueError(f"histogram {name} buckets not cumulative")
            prev_le, last = le, value
        if prev_le != float("inf"):
            raise ValueError(f"histogram {name} lacks the +Inf bucket")
        if buckets[-1][2] != counts[0][2]:
            raise ValueError(f"histogram {name}: +Inf bucket != _count")
    return families


def counter_values(families):
    return {name: family["samples"][0][2]
            for name, family in families.items()
            if family["type"] == "counter"}


class Client:
    """One connection; requests are sequential (the protocol is 1:1)."""

    def __init__(self, port, timeout=10.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def send(self, verb, body=b"", **headers):
        if isinstance(body, str):
            body = body.encode()
        line = f"xic/1 {verb} {len(body)}"
        for key, value in headers.items():
            line += f" {key.replace('_', '-')}={value}"
        self.sock.sendall(line.encode() + b"\n" + body)

    def recv(self):
        """Returns (code, headers-dict, body-str) or None on EOF."""
        line = self.reader.readline()
        if not line:
            return None
        parts = line.decode().strip().split(" ")
        if len(parts) < 3 or parts[0] != "xic/1":
            raise ValueError(f"bad response line: {line!r}")
        code, length = parts[1], int(parts[2])
        headers = dict(p.split("=", 1) for p in parts[3:])
        body = self.reader.read(length)
        if len(body) != length:
            raise ValueError("truncated response body")
        return code, headers, body.decode(errors="replace")

    def rpc(self, verb, body=b"", **headers):
        self.send(verb, body, **headers)
        response = self.recv()
        if response is None:
            raise ValueError(f"EOF instead of a response to {verb}")
        return response


def start_daemon(xicd, extra_flags):
    proc = subprocess.Popen(
        [xicd, "--port", "0", *extra_flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 10
    port = None
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        raise SystemExit("xicd never printed its listen line")
    # Drain the daemon's remaining output in the background so it cannot
    # block on a full pipe.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    return proc, port


def run_functional_flow(port):
    client = Client(port)

    code, _, body = client.rpc("ping")
    check(code == "ok" and body == "pong\n", "ping answers pong")

    code, headers, _ = client.rpc("schema.put", SCHEMA)
    check(code == "ok" and len(headers.get("schema", "")) == 16,
          "schema.put returns a 16-hex plan hash")
    schema = headers["schema"]

    code, headers, body = client.rpc("validate", GOOD_DOC)
    check(code == "ok" and headers.get("verdict") == "ok",
          "self-describing validate verdict ok")
    check(headers.get("cache") == "hit",
          "validate reuses the plan compiled by schema.put")

    code, headers, first_report = client.rpc("validate", DUP_DOC, id="dup-1")
    check(code == "ok" and headers.get("verdict") == "constraint_violations",
          "duplicate key is reported")
    code, headers, second_report = client.rpc("validate", DUP_DOC, id="dup-1")
    check(second_report == first_report,
          "cache-hit report is byte-identical to the first")

    code, headers, _ = client.rpc(
        "validate", '<bib><entry isbn="7"/></bib>', schema=schema)
    check(code == "ok" and headers.get("verdict") == "ok",
          "schema-header validate without DOCTYPE")

    code, headers, _ = client.rpc("validate", "<bib/>", schema="0" * 16)
    check(code == "invalid-argument", "unknown schema hash is refused")

    imply_body = "key entry.isbn\n?\nkey entry.isbn\n"
    code, headers, body = client.rpc("imply", imply_body, lang="lu")
    check(code == "ok" and "implied true" in body, "imply answers")
    check(headers.get("memo") == "miss", "first imply is a memo miss")
    code, headers, _ = client.rpc("imply", imply_body, lang="lu")
    check(headers.get("memo") == "hit", "second imply is a memo hit")

    code, headers, _ = client.rpc("session.open", "", schema=schema)
    check(code == "ok", "session.open")
    session = headers.get("session", "")
    code, _, body = client.rpc(
        "session.apply", "add root bib\nadd 0 entry\nset 1 isbn 42\n",
        session=session)
    check(code == "ok" and "consistent true violations 0" in body,
          "incremental updates keep the session consistent")
    code, _, body = client.rpc(
        "session.apply", "add 0 entry\nset 2 isbn 42\n", session=session)
    check(code == "ok" and "consistent false" in body,
          "duplicate key flips the incremental verdict")
    code, _, _ = client.rpc("session.close", "", session=session)
    check(code == "ok", "session.close")

    code, headers, _ = client.rpc("schema.put", SET_SCHEMA)
    check(code == "ok", "schema.put of the set-valued schema")
    code, headers, _ = client.rpc("session.open", "",
                                  schema=headers.get("schema", ""))
    check(code == "ok", "session.open on the set-valued schema")
    session = headers.get("session", "")
    code, _, body = client.rpc(
        "session.apply",
        "add root list\nadd 0 item\nset 1 id a\nadd 0 item\n"
        "set 2 id b\nset 1 refs a b\nset 2 refs b\n",
        session=session)
    check(code == "ok" and body.endswith("consistent true violations 0\n"),
          "a two-valued set of an NMTOKENS attribute sets two members")
    code, _, _ = client.rpc("session.close", "", session=session)
    check(code == "ok", "session.close of the set-valued session")

    code, headers, _ = client.rpc("frobnicate", "")
    check(code == "invalid-argument", "unknown verb is an explicit error")

    code, _, body = client.rpc("stats", "")
    check(code == "ok" and "xic-serve-stats-v1" in body, "stats endpoint")
    check('"flightrec"' in body, "stats reports the flight recorder")

    # Trace ids: explicit tokens echo verbatim; derived ones are a pure
    # function of the request id (same id -> same trace id).
    code, headers, _ = client.rpc("ping", id="trace-ck", trace_id="tok-42")
    check(code == "ok" and headers.get("trace-id") == "tok-42",
          "client trace-id echoes verbatim")
    first = client.rpc("ping", id="trace-ck")[1].get("trace-id", "")
    second = client.rpc("ping", id="trace-ck")[1].get("trace-id", "")
    check(re.fullmatch(r"[0-9a-f]{16}", first) is not None,
          "derived trace-id is 16-hex")
    check(first == second, "derived trace-id is deterministic per id")
    other = client.rpc("ping", id="trace-other")[1].get("trace-id", "")
    check(other != first, "different ids derive different trace-ids")

    # stats.prom: strictly parseable, and counters are monotonic across
    # two scrapes with traffic in between.
    code, _, scrape1 = client.rpc("stats.prom", "")
    check(code == "ok", "stats.prom answers")
    try:
        families1 = parse_prometheus(scrape1)
        check(True, "stats.prom parses strictly")
    except ValueError as error:
        families1 = None
        check(False, f"stats.prom parses strictly ({error})")
    for _ in range(3):
        client.rpc("validate", GOOD_DOC)
    code, _, scrape2 = client.rpc("stats.prom", "")
    try:
        families2 = parse_prometheus(scrape2)
    except ValueError as error:
        families2 = None
        check(False, f"second stats.prom scrape parses ({error})")
    if families1 is not None and families2 is not None:
        before = counter_values(families1)
        after = counter_values(families2)
        check(set(before) <= set(after),
              "no counter family disappears between scrapes")
        check(all(after[name] >= value for name, value in before.items()
                  if name in after),
              "counters are monotonic across scrapes")
        recorded = "xic_serve_flightrec_recorded"
        check(after.get(recorded, 0) > before.get(recorded, 0),
              "flight recorder records the traffic between scrapes")
        check("xic_serve_cache_hits" in after,
              "cache stats are layered into stats.prom")

    # debugz: the flight recorder replays recent requests, newest last.
    code, _, dump = client.rpc("debugz", "")
    check(code == "ok" and dump.startswith("flightrec capacity="),
          "debugz dumps the flight recorder")
    check("verb=validate" in dump and "trace=" in dump,
          "debugz records carry verb and trace id")
    client.close()

    # Malformed frame: the server answers an error frame, then closes.
    raw = Client(port)
    raw.sock.sendall(b"this is not the protocol\n")
    response = raw.recv()
    check(response is not None and response[0] != "ok",
          "garbage input gets an error frame, not a dropped connection")
    check(raw.recv() is None, "connection is closed after a framing error")
    raw.close()


def run_faulted_flow(port):
    """Against a daemon with --fault-rate: deterministic degraded service."""
    client = Client(port)
    shed = ok = 0
    for i in range(40):
        code, headers, _ = client.rpc("ping", id=f"fault-{i}")
        if code == "ok":
            ok += 1
        elif code == "unavailable":
            shed += 1
            check("retry-after-ms" in headers,
                  "shed response carries a retry-after hint")
    check(ok > 0, "some faulted requests still succeed")
    check(shed > 0, "fault injection actually sheds requests")

    # Server-side retry: retries=3 rides out a transient fault for ids
    # that fail without it (find one deterministically).
    flaky_id = None
    for i in range(40):
        code, _, _ = client.rpc("ping", id=f"flaky-{i}")
        if code == "unavailable":
            flaky_id = f"flaky-{i}"
            break
    if check(flaky_id is not None, "found a deterministically faulted id"):
        code, headers, _ = client.rpc("ping", id=flaky_id, retries="3")
        check(code == "ok" and int(headers.get("attempts", "1")) > 1,
              "retries header rides out the transient fault")

    # The flight recorder saw the degraded traffic: at least one shed
    # (admission fault -> unavailable) and one fault flag in the dump.
    # The debugz request itself is subject to admission faults, so probe
    # with distinct ids until one clears deterministically.
    code, dump = "unavailable", ""
    for i in range(32):
        code, _, dump = client.rpc("debugz", "", id=f"dz-{i}")
        if code == "ok":
            break
    check(code == "ok" and dump.startswith("flightrec capacity="),
          "debugz answers under fault injection")
    check(" shed=1 " in dump or dump.rstrip().endswith("shed=1"),
          "debugz shows shed requests after load shedding")
    check("fault=1" in dump, "debugz flags fault-injected requests")
    check("status=unavailable" in dump,
          "debugz records the unavailable status of shed requests")
    client.close()


def run_drain_check(proc, port):
    """SIGTERM with requests in flight: every response arrives, exit 0."""
    results = []

    def one_request(i):
        try:
            client = Client(port)
            code, _, body = client.rpc("validate", DUP_DOC, id=f"drain-{i}")
            results.append(code in ("ok", "unavailable"))
            client.close()
        except (OSError, ValueError):
            results.append(False)

    threads = [threading.Thread(target=one_request, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    time.sleep(0.05)  # let the requests reach the daemon
    proc.send_signal(signal.SIGTERM)
    for t in threads:
        t.join()
    check(all(results) and len(results) == 6,
          "drain answered every in-flight request")
    check(proc.wait(timeout=10) == 0, "SIGTERM drain exits 0")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xicd", help="path to the xicd binary (spawns it)")
    parser.add_argument("--port", type=int, help="connect to a running daemon")
    parser.add_argument("--faults", action="store_true",
                        help="also run the fault-injected flow "
                             "(needs an XIC_FAULT_INJECTION build)")
    args = parser.parse_args()
    if not args.xicd and not args.port:
        parser.error("need --xicd or --port")

    if args.xicd:
        proc, port = start_daemon(args.xicd, ["--threads", "4"])
        try:
            run_functional_flow(port)
        finally:
            run_drain_check(proc, port)

        if args.faults:
            proc, port = start_daemon(
                args.xicd,
                ["--threads", "4", "--fault-rate", "0.3", "--fault-seed",
                 "42", "--backoff-ms", "1"])
            try:
                run_faulted_flow(port)
            finally:
                proc.send_signal(signal.SIGTERM)
                check(proc.wait(timeout=10) == 0,
                      "faulted daemon still drains and exits 0")
    else:
        run_functional_flow(args.port)

    print(f"xicd_client: {CHECKS['passed']} passed, {CHECKS['failed']} failed")
    return 1 if CHECKS["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
