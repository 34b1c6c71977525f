"""Parallel execution: thread and master/slave dispatch of the one search session."""

from .driver import find_top_alignments_distributed
from .master import MasterRunner
from .msgpass import ANY, Communicator, Message, World
from .shared import ThreadedTopAlignmentRunner, find_top_alignments_threaded
from .slave import SlaveConfig, slave_main

__all__ = [
    "find_top_alignments_threaded",
    "find_top_alignments_distributed",
    "ThreadedTopAlignmentRunner",
    "MasterRunner",
    "SlaveConfig",
    "slave_main",
    "World",
    "Communicator",
    "Message",
    "ANY",
]
