"""The socket front door, driven as a user would drive it.

Two modes:

* Default — start a `ReproServer` in this process on an ephemeral
  port, then talk to it exactly as a remote client would: `connect()`,
  per-tenant sessions, a quota shed with its retry hint, and the
  in-process twin returning bit-identical results.
* ``--selftest`` — the CI smoke: spawn the real ``repro serve``
  subprocess, parse its banner for the port, run the same scripted
  session over the wire, check a many-chunk reply of int, float and
  str columns value by value and type by type against the in-process
  twin, stop it with the shutdown frame, and require a clean exit.
  Exits non-zero on any divergence.

Run with ``PYTHONPATH=src python examples/client.py [--selftest]``.
"""

import re
import subprocess
import sys

from repro import (
    InProcessClient, QueryService, ServiceConfig, TenantQuota, cached_tpch,
    connect,
)

SCALE = 0.002
QUOTAS = {"metered": TenantQuota(max_state_bytes=1.0)}

#: ~5k rows at SCALE: ten ``rows`` chunks whose int and float columns
#: travel as binary arrays and whose date strings travel inline.
TYPED = (
    "select l_orderkey, l_quantity, l_extendedprice, l_shipdate "
    "from lineitem where l_extendedprice < 34550.0"
)


def scripted_session(port) -> int:
    """One client session against a live server; returns 0 when every
    check holds."""
    failures = 0

    def check(ok, what):
        nonlocal failures
        print("  %s %s" % ("ok " if ok else "FAIL", what))
        failures += 0 if ok else 1

    with connect(port=port, tenant="analytics") as client:
        first = client.query("Q1A")
        check(first.ok, "Q1A over the wire: %s, %d rows, %.4f vs"
              % (first.status, len(first), first.latency))
        again = client.query("Q1A")
        check(again.cached, "repeat served from the result cache")
        check(again.tenant == "analytics", "tenant bound at hello")
        sql = client.query("select count(*) as n from part")
        check(sql.columns == ("n",), "SQL text works too: n=%s"
              % (sql.rows[0][0] if sql.rows else "?"))

    # The metered tenant is over its state quota: shed, with a hint.
    with connect(port=port, tenant="metered") as client:
        shed = client.query("Q2A")
        check(shed.status == "shed" and shed.reason == "quota:state",
              "metered tenant shed (%s)" % shed.reason)
        check((client.last_shed_retry_s or 0) > 0,
              "shed carried retry_after_s=%s" % client.last_shed_retry_s)

    return failures


def equivalence_check() -> int:
    """The same stream through both transports, from the same starting
    state (fresh service each side — caches, clock and submission
    counter all advance identically), must yield *equal* objects."""
    from repro.net.server import ReproServer

    catalog = cached_tpch(scale_factor=SCALE)
    failures = 0
    with ReproServer(QueryService(catalog, ServiceConfig())) as server, \
            connect(port=server.port, tenant="twin") as remote, \
            InProcessClient(catalog, ServiceConfig(),
                            tenant="twin") as local:
        for text in ("Q1A", "Q3A", "Q1A"):
            ok = remote.query(text) == local.query(text)
            print("  %s %s bit-identical across transports"
                  % ("ok " if ok else "FAIL", text))
            failures += 0 if ok else 1
    return failures


def typed_reply_check(port) -> int:
    """A many-chunk reply from the server on ``port`` must equal the
    in-process twin's value by value *and* type by type:
    ``QueryResult.__eq__`` alone would let an int come back a float."""
    from repro.net.protocol import ROWS_PER_FRAME

    catalog = cached_tpch(scale_factor=SCALE)
    with connect(port=port, tenant="typed") as remote, \
            InProcessClient(catalog, ServiceConfig(),
                            tenant="typed") as local:
        over_wire, in_proc = remote.query(TYPED), local.query(TYPED)

    def typed(rows):
        return [[(type(v), v) for v in row] for row in rows]

    ok = (len(in_proc.rows) > 2 * ROWS_PER_FRAME
          and over_wire.columns == in_proc.columns
          and typed(over_wire.rows) == typed(in_proc.rows))
    print("  %s %d-row typed reply value- and type-exact across transports"
          % ("ok " if ok else "FAIL", len(over_wire.rows)))
    return 0 if ok else 1


def run_embedded() -> int:
    from repro.net.server import ReproServer

    catalog = cached_tpch(scale_factor=SCALE)
    service = QueryService(catalog, ServiceConfig(quotas=dict(QUOTAS)))
    with ReproServer(service) as server:
        print("embedded server on port %d" % server.port)
        failures = scripted_session(server.port)
        failures += typed_reply_check(server.port)
    return failures + equivalence_check()


def run_selftest() -> int:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", str(SCALE), "--quota", "metered=:1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline()
        print("server: %s" % banner.strip())
        match = re.search(r"listening on [\d.]+:(\d+)", banner)
        if not match:
            print("FAIL: no listening banner")
            return 1
        failures = scripted_session(int(match.group(1)))
        failures += typed_reply_check(int(match.group(1)))
        failures += equivalence_check()
        with connect(port=int(match.group(1))) as client:
            client.shutdown_server()
        code = proc.wait(timeout=60)
        print("server exit code: %d" % code)
        print(proc.stdout.read().strip())
        return failures or code
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    selftest = "--selftest" in sys.argv[1:]
    rc = run_selftest() if selftest else run_embedded()
    print("PASS" if rc == 0 else "FAIL (%d)" % rc)
    sys.exit(0 if rc == 0 else 1)
