"""Event-log checker: every request a server receives is answered once.

Reads the text of a simnet event log (tick, event, src, dst, detail) and
pairs each T-message delivered to a server with the R-message the server
sends back on the same connection and tag.  A server that tries to send
that reply but has no energy for it logs `txfail`, which answers the
request as well.  A request is keyed by (server, client, tag); a client
may send a tag again while an earlier request with it is still
outstanding, so each key counts its outstanding requests.
"""

from collections import Counter


def check_log(lines, quiesced=True):
    """The violations in a log's text lines, as strings (none: it holds):
    an R-message sent on a key with no request outstanding, and, with
    quiesced (the log ends after the network went quiet), each request
    left unanswered."""
    outstanding = Counter()
    violations = []
    for line in lines:
        tick, event, src, dst, detail = line.split("\t")
        kind = detail[:1]
        if kind not in ("T", "R") or " tag=" not in detail:
            continue                 # not a frame: a head's own log line
        tag = detail.rsplit("=", 1)[1]
        if kind == "T" and event == "deliver":
            outstanding[dst, src, tag] += 1
        elif kind == "R" and event in ("send", "txfail"):
            key = src, dst, tag
            if outstanding[key]:
                outstanding[key] -= 1
            else:
                violations.append("%s: %s with no request outstanding" % (tick, line))
    if quiesced:
        violations += ["%s request(s) from %s to %s tag=%s unanswered" % (n, client, server, tag)
                       for (server, client, tag), n in sorted(outstanding.items()) if n]
    return violations
