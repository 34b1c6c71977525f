"""A node answers every lease, including one for a shard kind it lacks.

A coordinator from before the ``rows`` shard kind left the wire may
still lease one.  The node must report that shard as failed — so the
coordinator retries or fails it — and go on serving scan leases.
"""

import json

from repro.cluster import NodeAgent, NodeConfig, protocol
from repro.cluster.execution import scan_spec_dict

from .test_cluster_e2e import _local_reports, _records, _spec


class _Recorder:
    """The node's channel, reduced to the frames it sends."""

    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)


def _lease(lease_id, shard):
    return {"kind": protocol.LEASE, "job_id": "cj-000001", "lease_id": lease_id,
            "attempt": 1, "shard": shard}


def test_a_stale_rows_lease_fails_and_scans_still_run():
    agent = NodeAgent(NodeConfig(host="127.0.0.1", port=0, node_id="n0"))
    channel = _Recorder()
    spec = _spec(sequence="MKTAYIAKQRMKTAYIAKQR", top_alignments=3)
    stale = {"kind": "rows", "shard_id": 0, "spec": spec.to_dict(),
             "r_start": 1, "r_stop": 20}
    agent._execute_lease(channel, _lease(1, stale), 0.0)

    failed = channel.sent[-1]
    assert (failed["kind"], failed["lease_id"], failed["ok"]) == (
        protocol.RESULT, 1, False
    )
    assert "unknown shard kind 'rows'" in failed["error"]
    assert "value" not in failed

    records = _records(n=2)
    scan = protocol.scan_shard(0, scan_spec_dict(spec), records, 0)
    agent._execute_lease(channel, _lease(2, scan), 0.0)

    served = channel.sent[-1]
    assert (served["lease_id"], served["ok"]) == (2, True)
    assert json.dumps(served["value"]["reports"], sort_keys=True) == json.dumps(
        _local_reports(spec, records), sort_keys=True
    )
    assert agent.shards_done == 2
