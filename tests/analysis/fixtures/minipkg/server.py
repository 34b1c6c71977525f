"""Service half of the fixture.

Seeds RPR013: ``do_fetch`` reaches ``time.sleep`` through a helper, so
the per-file direct-sink rule cannot see it.  The call into
:mod:`minipkg.worker` gives the graph a module-alias edge and the
import the reverse-closure query follows.
"""

import time

from . import worker


def _tail_wait():
    time.sleep(0.5)


class RequestHandler:
    def do_fetch(self, channel):
        _tail_wait()
        channel.send(worker.execute({"id": 1}))
